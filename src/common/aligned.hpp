// 64-byte-aligned value storage for the SIMD kernel tier.
//
// AlignedAllocator / AlignedVec — a stateless std::vector allocator that
// guarantees kValueAlign (one cache line, two AVX2 vectors) alignment.
// All dense/format value arrays use AlignedVec so vector loads in
// src/kernels start on aligned addresses and never split cache lines.
// Every instance is interchangeable, so moves and swaps are O(1) pointer
// steals and a buffer may be freed through any copy of the allocator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

namespace mt {

// Alignment of every value buffer: one cache line (and 2x the 32-byte
// AVX2 vector width), so aligned loads never straddle lines.
inline constexpr std::size_t kValueAlign = 64;

inline bool is_aligned(const void* p, std::size_t align = kValueAlign) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

template <class T>
class AlignedAllocator {
  static_assert(alignof(T) <= kValueAlign, "over-aligned element type");

 public:
  using value_type = T;
  using is_always_equal = std::true_type;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(padded_bytes(n), std::align_val_t{kValueAlign}));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, padded_bytes(n), std::align_val_t{kValueAlign});
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }

 private:
  // Round requests up to whole cache lines, so a buffer never shares its
  // last line with another allocation; allocate and deallocate pass the
  // same padded size to the sized aligned operator new/delete.
  static std::size_t padded_bytes(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    return (bytes + kValueAlign - 1) / kValueAlign * kValueAlign;
  }
};

template <class T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

}  // namespace mt
