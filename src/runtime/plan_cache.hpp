// Plan cache — memoizes SAGE decisions per distinct serving workload.
//
// SAGE enumerates the full MCF x ACF space on every call (hundreds of
// priced combinations); under serving traffic the same (kernel, operand,
// accelerator) workload recurs thousands of times, so the search should
// run exactly once. The cache keys on the registered operands' stable
// handle ids plus sage::plan_fingerprint of the accelerator/energy model
// — operand contents behind a handle are immutable by contract, so id
// equality implies workload equality.
//
// Lookup is MemoCache's (cache_policy.hpp) single-flight get-or-compute:
// concurrent misses on one key elect one computing thread; the others
// wait rather than duplicating the SAGE search, and a throwing search
// un-publishes the entry so later requests can retry.
//
// Capacity: a CacheOptions budget bounds the number of memoized plans
// (bytes are a flat sizeof(Plan) each — plans are tiny; entry count is the
// real lever). Over budget, the cost-aware LRU policy evicts the plan
// whose measured SAGE-search time makes it cheapest to re-derive among the
// least recently used. A zero budget is the bypass: every request
// searches and nothing is stored.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "common/types.hpp"
#include "exec/exec.hpp"
#include "formats/format.hpp"
#include "runtime/cache_policy.hpp"
#include "sage/sage.hpp"

namespace mt::obs {
class Histogram;
}  // namespace mt::obs

namespace mt::runtime {

// Model fingerprint used for plans whose pricing never reads the device
// model (CPU-backend plans): CpuBackend::price depends only on the
// workload, so a device AccelConfig/EnergyParams swap cannot invalidate
// them. Keying them on this sentinel instead of the live fingerprint is
// what makes retire(model) backend-partitioned. (sage::plan_fingerprint
// is FNV-1a from a nonzero offset basis; a real model hashing to exactly
// 0 is a 2^-64 event, and even then the cost is one skipped eager sweep,
// never a wrong plan — the fingerprint still differs from its successor.)
inline constexpr std::uint64_t kHostModel = 0;

// Per-backend breakdown of a retire(model) sweep, indexed by
// exec::BackendKind. update_model reports this so operators can see a
// device-model swap retiring only device-priced plans.
struct RetireCounts {
  std::array<std::size_t, 3> by_backend{};  // kCpu, kSim, kMint

  std::size_t total() const {
    std::size_t n = 0;
    for (const auto c : by_backend) n += c;
    return n;
  }
  std::size_t of(exec::BackendKind b) const {
    return by_backend[static_cast<std::size_t>(b)];
  }
  RetireCounts& operator+=(const RetireCounts& o) {
    for (std::size_t i = 0; i < by_backend.size(); ++i) {
      by_backend[i] += o.by_backend[i];
    }
    return *this;
  }
  bool operator==(const RetireCounts&) const = default;
};

// Identity of one distinct serving workload.
struct PlanKey {
  Kernel kernel = Kernel::kSpMV;
  std::uint64_t a = 0;      // first registered operand id (matrix or tensor)
  std::uint64_t b = 0;      // second registered operand id (0 = none/dense)
  std::uint64_t model = 0;  // sage::plan_fingerprint(cfg, energy)
  index_t width = 0;        // dense factor columns: N for SpMM, rank for
                            // tensor kernels, 1 for SpMV, 0 otherwise
  // Execution substrate the plan routes to. Same workload, different
  // backend => different plan: the executed ACFs may repair differently
  // and the priced costs certainly do.
  exec::BackendKind backend = exec::BackendKind::kCpu;

  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const;
};

// A reusable, fully-resolved decision: the winning SAGE combination plus
// the ACFs the server actually executes. run_a/run_b are "repaired" to the
// formats the exec engine runs them in (exec::runnable / runnable_pair),
// i.e. formats with native exec-engine kernels, so a served request
// never pays a per-call conversion fallback inside the engine — the
// conversion cache materializes exactly these formats, once.
struct Plan {
  Kernel kernel = Kernel::kSpMV;
  SageChoice choice;               // matrix kernels (unset for kGemm)
  SageTensorChoice tensor_choice;  // tensor kernels
  Format run_a = Format::kDense;   // executed ACF of operand A / tensor X
  Format run_b = Format::kDense;   // executed ACF of operand B (if any)
  // The backend dimension: which substrate executes this plan, and what
  // each configured backend charges for the workload (exec::Backend::
  // price). Both prices are recorded even under forced routing so stats
  // and benches can compare the host and device envelopes per plan.
  exec::BackendKind backend = exec::BackendKind::kCpu;
  double cpu_cost_ns = 0.0;     // CpuBackend's predicted latency
  double device_cost_ns = 0.0;  // device backend's price (0 = none built)
  // device_cost_ns rounded to whole ns — travels as Job::modeled_ns, i.e.
  // the latency MintBackend reports (and optionally enforces).
  std::int64_t modeled_device_ns = 0;
  // Per-plan exec-latency accumulator (mt_plan_exec_ns{plan="..."}),
  // owned by the Server's obs::Registry and wired at plan creation; null
  // when telemetry is off. Living on the plan keeps the hot path at one
  // pointer chase — no name lookup per request — and the measured
  // distribution is the feed for the ROADMAP's online adaptive planner.
  obs::Histogram* latency = nullptr;
};

// MemoCache::get_or_compute(key, fn, &hit) memoizes plans: `fn` runs at
// most once per key across concurrent callers, outside the cache lock (it
// is a full SAGE search, so it may re-enter the cache-owning Server).
class PlanCache
    : public MemoCache<PlanKey, std::shared_ptr<const Plan>, PlanKeyHash> {
 public:
  using PlanPtr = std::shared_ptr<const Plan>;

  explicit PlanCache(CacheOptions limits = {})
      : MemoCache(limits, [](const PlanPtr&) { return sizeof(Plan); }) {}

  // Drops every plan mentioning operand `id` (called on eviction; ids are
  // never reused, so this is memory hygiene rather than correctness).
  void evict_operand(std::uint64_t id);

  // Drops every plan priced against model fingerprint `model` and returns
  // how many were retired, broken down by backend. Plans keyed on a
  // superseded AccelConfig/EnergyParams already miss cleanly (the
  // fingerprint is part of the key); this reclaims their memory eagerly
  // instead of leaking dead entries for the server's lifetime. Retirement
  // is backend-partitioned: CPU-backend plans are keyed on kHostModel
  // (their pricing never reads the device model), so retiring a real
  // device fingerprint leaves them cached, and retire(kHostModel) itself
  // is a no-op — CPU plans only leave via eviction.
  RetireCounts retire(std::uint64_t model);
};

}  // namespace mt::runtime
