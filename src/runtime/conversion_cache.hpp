// Conversion cache — each registered operand's converted representations,
// materialized once and shared read-only across all requests.
//
// The exec engine's fallback path re-runs convert() on every call; under
// serving traffic that is the dominant per-request cost after SAGE search.
// This cache keys (operand id, target format) to a shared_ptr<const ...>
// representation: the first request pays the O(nnz) conversion, every
// later request — on any worker thread — borrows the same immutable
// object and feeds it to the engine's const-ref entry points, which then
// dispatch natively (zero conversions, zero copies).
//
// A request for the operand's own registered format shares the registered
// representation itself and counts as a hit: identity is the cheapest
// conversion. Like the plan cache, population is MemoCache's
// (cache_policy.hpp) single-flight get-or-compute. Matrix and tensor
// representations share one map keyed on (id, format): the server hands
// out matrix and tensor ids from one counter, so a key names exactly one
// operand and the one budget covers both.
//
// Capacity: a CacheOptions budget bounds the number of materialized
// representations and their aggregate storage_of() bytes. Over budget,
// the cost-aware LRU policy evicts the representation whose measured
// convert() time makes it cheapest to recompute among the least recently
// used; identity shares are never stored, so they cost no budget.
// Eviction only unpublishes the cache entry — in-flight requests holding
// the shared_ptr keep their representation alive until they finish. A
// zero budget is the bypass: every call converts, nothing is stored, and
// identity still shares.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>

#include "convert/convert.hpp"
#include "runtime/cache_policy.hpp"

namespace mt::runtime {

class ConversionCache {
 public:
  using MatrixPtr = std::shared_ptr<const AnyMatrix>;
  using TensorPtr = std::shared_ptr<const AnyTensor>;

  explicit ConversionCache(CacheOptions limits = {});

  // Representation of matrix operand `id` (whose registered form is
  // `src`) in format `f`. `hit` reports whether the conversion was
  // already materialized (or unnecessary because format_of(*src) == f).
  MatrixPtr matrix(std::uint64_t id, Format f, const MatrixPtr& src,
                   bool* hit);

  // Tensor flavor of the same contract.
  TensorPtr tensor(std::uint64_t id, Format f, const TensorPtr& src,
                   bool* hit);

  // Drops every cached representation of operand `id`. In-flight requests
  // holding the shared_ptr keep their representation alive; the cache just
  // stops handing it out.
  void evict(std::uint64_t id);

  bool bypass() const { return memo_.bypass(); }
  std::int64_t hits() const { return memo_.hits(); }
  std::int64_t misses() const { return memo_.misses(); }
  // Representations dropped by the capacity policy (evict() calls — the
  // operand-retirement path — are not counted here).
  std::int64_t evictions() const { return memo_.evictions(); }
  std::size_t size() const { return memo_.size(); }
  // Aggregate storage_of() bytes of the materialized representations
  // (identity shares excluded — they borrow the registry's memory).
  std::size_t bytes() const { return memo_.bytes(); }

 private:
  struct Key {
    std::uint64_t id = 0;
    Format f = Format::kDense;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>{}(k.id * 64 +
                                        static_cast<std::uint64_t>(k.f));
    }
  };
  using Rep = std::variant<MatrixPtr, TensorPtr>;

  // The identity share or the memoized conversion of `src` to `f`.
  template <typename Ptr>
  Ptr get(std::uint64_t id, Format f, const Ptr& src, bool* hit);

  MemoCache<Key, Rep, KeyHash> memo_;
};

}  // namespace mt::runtime
