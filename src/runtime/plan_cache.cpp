#include "runtime/plan_cache.hpp"

namespace mt::runtime {

namespace {

void mix(std::size_t& h, std::uint64_t v) {
  // splitmix64-style avalanche, folded into the running hash.
  v ^= v >> 30;
  v *= 0xbf58476d1ce4e5b9ull;
  v ^= v >> 27;
  v *= 0x94d049bb133111ebull;
  v ^= v >> 31;
  h ^= static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
       (h >> 2);
}

}  // namespace

std::size_t PlanKeyHash::operator()(const PlanKey& k) const {
  std::size_t h = 0;
  mix(h, static_cast<std::uint64_t>(k.kernel));
  mix(h, k.a);
  mix(h, k.b);
  mix(h, k.model);
  mix(h, static_cast<std::uint64_t>(k.width));
  mix(h, static_cast<std::uint64_t>(k.backend));
  return h;
}

void PlanCache::evict_operand(std::uint64_t id) {
  erase_if([id](const PlanKey& k) { return k.a == id || k.b == id; });
}

RetireCounts PlanCache::retire(std::uint64_t model) {
  RetireCounts retired;
  // kHostModel marks model-independent (CPU-backend) plans; sweeping it
  // would throw away plans no model swap can invalidate.
  if (model == kHostModel) return retired;
  erase_if([&](const PlanKey& k) {
    if (k.model != model) return false;
    ++retired.by_backend[static_cast<std::size_t>(k.backend)];
    return true;
  });
  return retired;
}

}  // namespace mt::runtime
