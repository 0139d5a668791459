#include "runtime/conversion_cache.hpp"

namespace mt::runtime {

ConversionCache::ConversionCache(CacheOptions limits)
    : memo_(limits, [](const Rep& rep) {
        return std::visit(
            [](const auto& p) {
              return static_cast<std::size_t>(
                  storage_of(*p, DataType::kFp32).total_bytes());
            },
            rep);
      }) {}

template <typename Ptr>
Ptr ConversionCache::get(std::uint64_t id, Format f, const Ptr& src,
                         bool* hit) {
  if (format_of(*src) == f) {
    // Identity: share the registered representation, no copy.
    if (hit != nullptr) *hit = true;
    memo_.count_hit();
    return src;
  }
  using Value = typename Ptr::element_type;
  return std::get<Ptr>(memo_.get_or_compute(
      Key{id, f},
      [&] { return Rep(std::make_shared<Value>(convert(*src, f))); }, hit));
}

ConversionCache::MatrixPtr ConversionCache::matrix(std::uint64_t id, Format f,
                                                   const MatrixPtr& src,
                                                   bool* hit) {
  return get(id, f, src, hit);
}

ConversionCache::TensorPtr ConversionCache::tensor(std::uint64_t id, Format f,
                                                   const TensorPtr& src,
                                                   bool* hit) {
  return get(id, f, src, hit);
}

void ConversionCache::evict(std::uint64_t id) {
  memo_.erase_if([id](const Key& k) { return k.id == id; });
}

}  // namespace mt::runtime
