// SimBackend — every kernel lowered onto the cycle-accurate
// weight-stationary simulator (accel/cycle_sim.hpp).
//
// The simulator executes one tile: stationary operand B holds at most
// num_pes columns of at most buffer_elems() elements each. This backend
// tiles the lowered A(m x k) * B(k x n) product over N (output-column
// tiles of num_pes) and K (stationary-depth passes of buffer_elems()),
// streaming each A tile as CSR against a Dense stationary tile, and
// accumulates the partial products — the analytic PerfModel's tiled
// execution, run functionally. Accumulating fp32 partials in K-tile order
// reassociates the reduction relative to the CPU kernels, hence the
// documented dual-run tolerance instead of bit-equality.
//
// Kernel lowerings (all exact, not approximations):
//   SpMV     y = A x            -> (m x k) * (k x 1)
//   GEMM/SpMM                   -> (m x k) * (k x n)
//   SpGEMM   C = A B            -> dense product, re-encoded to CSR
//   SpTTM    Y(i,j,l)           -> unfold X as (x*y, z) times U (z x r)
//   MTTKRP   M(i,r)             -> X_(1) (x, y*z) times the Khatri-Rao
//                                  product (B kr C)(jy*z+jz, r)
#include <algorithm>
#include <utility>

#include "accel/cycle_sim.hpp"
#include "common/error.hpp"
#include "exec/backend_detail.hpp"

namespace mt::exec::detail {

namespace {

struct SimRun {
  DenseMatrix out;
  std::int64_t cycles = 0;
};

DenseMatrix slice(const DenseMatrix& m, index_t r0, index_t nr, index_t c0,
                  index_t nc) {
  DenseMatrix out(nr, nc);
  const value_t* pm = m.values().data();
  value_t* po = out.values().data();
  const index_t stride = m.cols();
  for (index_t r = 0; r < nr; ++r) {
    for (index_t c = 0; c < nc; ++c) {
      po[r * nc + c] = pm[(r0 + r) * stride + c0 + c];
    }
  }
  return out;
}

// O = A * B through the simulator, tiled to its single-tile envelope.
SimRun sim_matmul(const DenseMatrix& a, const DenseMatrix& b,
                  const AccelConfig& cfg) {
  const index_t m = a.rows(), k = a.cols(), n = b.cols();
  MT_REQUIRE(b.rows() == k, "sim matmul inner dimensions must agree");
  SimRun run{DenseMatrix(m, n), 0};
  if (m == 0 || n == 0 || k == 0) return run;
  const index_t nt_max = std::min(n, cfg.num_pes);
  const index_t kt_max = std::min(k, cfg.buffer_elems());
  value_t* po = run.out.values().data();
  for (index_t n0 = 0; n0 < n; n0 += nt_max) {
    const index_t nt = std::min(nt_max, n - n0);
    for (index_t k0 = 0; k0 < k; k0 += kt_max) {
      const index_t kt = std::min(kt_max, k - k0);
      const DenseMatrix at = slice(a, 0, m, k0, kt);
      const DenseMatrix bt = slice(b, k0, kt, n0, nt);
      const CycleSimResult res =
          simulate_ws_matmul(at, bt, Format::kCSR, Format::kDense, cfg);
      run.cycles += res.phases.total_cycles();
      const value_t* pr = res.output.values().data();
      for (index_t r = 0; r < m; ++r) {
        for (index_t c = 0; c < nt; ++c) {
          po[r * n + n0 + c] += pr[r * nt + c];
        }
      }
    }
  }
  return run;
}

// X unfolded along mode 1: the (x, y, z) dense buffer IS the row-major
// (x*y, z) matrix (linear index (ix*y + iy)*z + iz), so the unfold is a
// copy of the value buffer under a matrix shape.
DenseMatrix unfold_xy_by_z(const DenseTensor3& t) {
  DenseMatrix m(t.dim_x() * t.dim_y(), t.dim_z());
  std::copy(t.values().begin(), t.values().end(), m.values().begin());
  return m;
}

DenseMatrix unfold_x_by_yz(const DenseTensor3& t) {
  DenseMatrix m(t.dim_x(), t.dim_y() * t.dim_z());
  std::copy(t.values().begin(), t.values().end(), m.values().begin());
  return m;
}

// (B kr C)(iy*z + iz, r) = B(iy, r) * C(iz, r) — the MTTKRP factor.
DenseMatrix khatri_rao(const DenseMatrix& b, const DenseMatrix& c) {
  MT_REQUIRE(b.cols() == c.cols(), "Khatri-Rao factors share a rank");
  const index_t y = b.rows(), z = c.rows(), r = b.cols();
  DenseMatrix out(y * z, r);
  value_t* po = out.values().data();
  for (index_t iy = 0; iy < y; ++iy) {
    for (index_t iz = 0; iz < z; ++iz) {
      for (index_t rr = 0; rr < r; ++rr) {
        po[(iy * z + iz) * r + rr] = b.at(iy, rr) * c.at(iz, rr);
      }
    }
  }
  return out;
}

class SimBackend final : public Backend {
 public:
  BackendKind kind() const override { return BackendKind::kSim; }

  JobResult run(const Job& job) const override {
    const AccelConfig cfg =
        job.accel != nullptr ? *job.accel : AccelConfig::paper_default();
    const EnergyParams energy =
        job.energy != nullptr ? *job.energy : EnergyParams{};
    JobResult r;
    r.dispatch.kernel = job.kernel;
    r.dispatch.backend = BackendKind::kSim;
    r.dispatch.tier = ExecTier::kDevice;
    r.dispatch.ran_a = Format::kCSR;  // the streamed ACF of every lowering
    std::int64_t cycles = 0;
    switch (job.kernel) {
      case Kernel::kSpMV: {
        MT_REQUIRE(job.a != nullptr && job.vec != nullptr,
                   "SpMV job needs a matrix operand and an input vector");
        r.dispatch.given_a = format_of(*job.a);
        const DenseMatrix a = decode(*job.a);
        MT_REQUIRE(static_cast<index_t>(job.vec->size()) == a.cols(),
                   "SpMV vector length must match the matrix columns");
        DenseMatrix bx(a.cols(), 1);
        std::copy(job.vec->begin(), job.vec->end(), bx.values().begin());
        SimRun run = sim_matmul(a, bx, cfg);
        cycles = run.cycles;
        r.output = column_of(run.out, 0);
        break;
      }
      case Kernel::kGemm:
      case Kernel::kSpMM: {
        MT_REQUIRE(job.a != nullptr &&
                       (job.b != nullptr || job.dense_b != nullptr),
                   "SpMM job needs operand A and a B operand or factor");
        r.dispatch.given_a = format_of(*job.a);
        r.dispatch.has_b = job.b != nullptr;
        if (job.b != nullptr) r.dispatch.given_b = format_of(*job.b);
        r.dispatch.ran_b = Format::kDense;
        const DenseMatrix a = decode(*job.a);
        const DenseMatrix b =
            job.b != nullptr ? decode(*job.b) : *job.dense_b;
        SimRun run = sim_matmul(a, b, cfg);
        cycles = run.cycles;
        r.output = std::move(run.out);
        break;
      }
      case Kernel::kSpGEMM: {
        MT_REQUIRE(job.a != nullptr && job.b != nullptr,
                   "SpGEMM job needs two compressed operands");
        r.dispatch.given_a = format_of(*job.a);
        r.dispatch.has_b = true;
        r.dispatch.given_b = format_of(*job.b);
        r.dispatch.ran_b = Format::kDense;
        SimRun run = sim_matmul(decode(*job.a), decode(*job.b), cfg);
        cycles = run.cycles;
        r.output = dense_to_csr(run.out);
        break;
      }
      case Kernel::kSpTTM: {
        MT_REQUIRE(job.x != nullptr && job.dense_b != nullptr,
                   "SpTTM job needs a tensor operand and a dense factor");
        r.dispatch.given_a = format_of(*job.x);
        const DenseTensor3 x = decode(*job.x);
        SimRun run = sim_matmul(unfold_xy_by_z(x), *job.dense_b, cfg);
        cycles = run.cycles;
        DenseTensor3 y(x.dim_x(), x.dim_y(), job.dense_b->cols());
        std::copy(run.out.values().begin(), run.out.values().end(),
                  y.values().begin());
        r.output = std::move(y);
        break;
      }
      case Kernel::kMTTKRP: {
        MT_REQUIRE(job.x != nullptr && job.dense_b != nullptr &&
                       job.dense_c != nullptr,
                   "MTTKRP job needs a tensor operand and two dense factors");
        r.dispatch.given_a = format_of(*job.x);
        const DenseTensor3 x = decode(*job.x);
        SimRun run = sim_matmul(unfold_x_by_yz(x),
                                khatri_rao(*job.dense_b, *job.dense_c), cfg);
        cycles = run.cycles;
        r.output = std::move(run.out);
        break;
      }
    }
    r.device_ns =
        static_cast<std::int64_t>(energy.seconds(cycles) * 1e9);
    return r;
  }

  BackendCost price(const PricingInput& in) const override {
    const EnergyParams energy =
        in.energy != nullptr ? *in.energy : EnergyParams{};
    BackendCost c;
    if (in.sage_cost != nullptr) {
      // The device this backend simulates is exactly the device the SAGE
      // performance model prices: charge the winning combination's
      // compute phase (operands arrive converted from the host, so no
      // DRAM/convert term). This prices the *modeled device*, not the
      // host wall-clock of running the simulator — SimBackend is a
      // verification backend, and its plan cost should rank it like the
      // hardware it stands in for.
      c.ns = energy.seconds(in.sage_cost->compute_cycles) * 1e9;
      c.energy_j = in.sage_cost->compute_energy_j;
      return c;
    }
    const AccelConfig cfg =
        in.accel != nullptr ? *in.accel : AccelConfig::paper_default();
    const double macs = static_cast<double>(in.flops) / 2.0;
    const double cycles = macs / static_cast<double>(cfg.total_macs());
    c.ns = energy.seconds(static_cast<std::int64_t>(cycles)) * 1e9;
    c.energy_j = macs * energy.mac_energy_j(cfg.dtype);
    return c;
  }
};

}  // namespace

std::unique_ptr<Backend> make_sim_backend() {
  return std::make_unique<SimBackend>();
}

}  // namespace mt::exec::detail
