// Pluggable execution backends — the substrate dimension of a plan.
//
// The paper prices MCF x ACF choices against one execution substrate; this
// repo carries three that can run a chosen plan, and this interface makes
// them interchangeable behind the serving stack:
//
//   CpuBackend   the OpenMP/SIMD kernel library (src/kernels via the
//                exec free functions) — the fast host path, the
//                correctness reference for everything else.
//   SimBackend   the cycle-accurate weight-stationary simulator
//                (src/accel/cycle_sim) — "slow accurate": every kernel is
//                lowered to tiled A*B matmuls inside the simulator's
//                single-tile envelope, producing real output values plus
//                exact cycle counts.
//   MintBackend  the MINT modeled-offload path — results computed by the
//                CPU kernels (bit-exact with CpuBackend), latency taken
//                from the SAGE/MINT cost model of the plan's winning
//                combination, optionally *enforced* with a bounded sleep
//                so an async submission ring shows real overlap.
//
// One Job shape covers all six kernels and collapses the historical
// special-case entry points (SpMM with a dense factor vs. with a second
// compressed operand) into a single Backend::run(Job). Backends are
// stateless and const — one instance serves many threads; per-model state
// (AccelConfig/EnergyParams) travels inside the Job so a model swap never
// has to rebuild a backend under concurrent use.
//
// Numerical contract: CpuBackend and MintBackend are bit-identical.
// SimBackend tiles over N and K and accumulates fp32 partial products in
// tile order, which reassociates the K-reduction relative to the CPU
// kernels — dual-run comparisons must use max_rel_error with a documented
// tolerance (see tests/test_backend.cpp), exactly like the SIMD tier's
// lane-tree reductions in test_simd.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "accel/config.hpp"
#include "common/types.hpp"
#include "energy/energy_model.hpp"
#include "exec/exec.hpp"

namespace mt::exec {

// One unit of backend work. Which operand fields matter depends on the
// kernel (same convention as runtime::Request):
//   kSpMV            a + vec
//   kGemm / kSpMM    a + dense_b, or a + b (both compressed/registered)
//   kSpGEMM          a + b
//   kSpTTM           x + dense_b (the factor U)
//   kMTTKRP          x + dense_b + dense_c
// Operand pointers are borrowed, never owned: the submitter keeps them
// alive until the job's result is claimed (the async ring's contract).
struct Job {
  Kernel kernel = Kernel::kSpMV;
  const AnyMatrix* a = nullptr;
  const AnyMatrix* b = nullptr;              // second compressed operand
  const AnyTensor* x = nullptr;              // tensor operand
  const DenseMatrix* dense_b = nullptr;      // dense factor (B / U)
  const DenseMatrix* dense_c = nullptr;      // MTTKRP C
  const std::vector<value_t>* vec = nullptr; // SpMV input vector

  // Model the device backends execute/price under; null falls back to the
  // paper defaults. Passed per job (not held by the backend) so a serving
  // model swap needs no backend rebuild.
  const AccelConfig* accel = nullptr;
  const EnergyParams* energy = nullptr;

  // Modeled offload latency of this job's plan (ns), priced by the plan's
  // cost model at plan time. MintBackend reports it as device_ns and, when
  // built with simulate_latency, sleeps min(modeled_ns, max sleep) so
  // in-flight overlap is physically observable. 0 = not priced.
  std::int64_t modeled_ns = 0;
};

// Every result shape a job can produce; runtime::Result aliases this.
using JobOutput = std::variant<std::vector<value_t>,  // SpMV
                               DenseMatrix,           // GEMM/SpMM/MTTKRP
                               CsrMatrix,             // SpGEMM
                               DenseTensor3>;         // SpTTM

struct JobResult {
  JobOutput output;
  Dispatch dispatch;          // how the backend actually ran the job
  std::int64_t device_ns = 0; // modeled/simulated device time (0 on CPU):
                              // sim = cycle count at the model clock,
                              // mint = the job's modeled offload latency
  std::int64_t run_ns = 0;    // wall-clock of run(); stamped by the
                              // DeviceRing (0 on direct backend calls,
                              // where the caller times the call itself)
};

// What a backend charges for one job — the plan's backend dimension.
struct BackendCost {
  double ns = 0.0;       // predicted latency
  double energy_j = 0.0; // predicted energy (0 where the model has none)
};

// Workload summary the server assembles at plan time so pricing never
// re-derives operand structure. `sage_cost` is the winning combination's
// CostBreakdown when a SAGE search ran (null for plain GEMM): its
// compute_cycles are the accelerator execution model and its total_cycles
// add DRAM streaming + MINT conversion — exactly the sim and mint
// offload envelopes.
struct PricingInput {
  Kernel kernel = Kernel::kSpMV;
  std::int64_t flops = 0;  // useful MAC work estimate (2*nnz*width style)
  const CostBreakdown* sage_cost = nullptr;
  const AccelConfig* accel = nullptr;
  const EnergyParams* energy = nullptr;
};

class Backend {
 public:
  virtual ~Backend() = default;

  virtual BackendKind kind() const = 0;

  // Executes the job synchronously on the calling thread. Throws on
  // malformed jobs (missing operands, shape mismatch) — the same error
  // surface as the exec free functions. Const and reentrant: one backend
  // instance serves every worker.
  virtual JobResult run(const Job& job) const = 0;

  // Predicted cost of one such job on this backend — the number the plan
  // cache stores per backend and the auto-selection policy compares.
  virtual BackendCost price(const PricingInput& in) const = 0;
};

// Factory covering the three kinds. MintBackend options:
struct MintBackendOptions {
  // Sleep the modeled offload latency (bounded below) inside run(), so
  // device jobs occupy wall-clock time proportional to the model and an
  // async ring demonstrably overlaps them. Off: results return at CPU
  // speed with the latency only reported.
  bool simulate_latency = false;
  std::int64_t max_simulated_latency_ns = 2'000'000;
};

std::unique_ptr<Backend> make_backend(BackendKind kind,
                                      const MintBackendOptions& mint = {});

// Dual-run comparator: worst elementwise |x - y| / max(1, |x|, |y|) over
// the two outputs' decoded dense values (mixed absolute/relative, so
// near-zero entries compare absolutely). Returns +infinity when the
// outputs hold different result types or shapes. CPU-vs-mint must be 0;
// CPU-vs-sim is bounded by the fp32 K-tiling reassociation tolerance
// documented in tests/test_backend.cpp.
double max_rel_error(const JobOutput& a, const JobOutput& b);

}  // namespace mt::exec
