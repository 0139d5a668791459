#include "replay.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "exec/backend.hpp"
#include "exec/device_ring.hpp"
#include "runtime/batcher.hpp"
#include "sage/sage.hpp"

namespace servebench {

namespace {

using mt::runtime::now_ns;

// Median wall time of `fn` over at least 3 and at most `max_reps` calls,
// stopping early once `budget_ns` is spent.
template <class Fn>
double time_median_ns(Fn&& fn, int max_reps = 25,
                      std::int64_t budget_ns = 30'000'000) {
  Samples s;
  fn();  // untimed: first-touch allocation and thread-team start-up
  const auto start = now_ns();
  for (int i = 0; i < max_reps; ++i) {
    const auto t0 = now_ns();
    fn();
    s.add(static_cast<double>(now_ns() - t0));
    if (i >= 2 && now_ns() - start > budget_ns) break;
  }
  return s.quantile(0.5);
}

// Weighted mean accumulator.
struct WMean {
  double sum = 0.0, w = 0.0;
  void add(double v, double weight) {
    sum += v * weight;
    w += weight;
  }
  double value() const { return w > 0.0 ? sum / w : 0.0; }
};

bool twin_spmv(const mt::runtime::Plan& p) {
  return p.backend == mt::exec::BackendKind::kCpu &&
         mt::runtime::coalescible_spmv_format(p.run_a) &&
         mt::exec::has_native(Kernel::kSpMM, p.run_a);
}

// Exact multiply-adds of A * B from the client's COO copies.
std::int64_t spgemm_macs(const mt::CooMatrix& a, const mt::CooMatrix& b) {
  std::vector<std::int64_t> row_nnz(static_cast<std::size_t>(b.rows()), 0);
  for (const auto r : b.row_ids()) ++row_nnz[static_cast<std::size_t>(r)];
  std::int64_t macs = 0;
  for (const auto c : a.col_ids()) macs += row_nnz[static_cast<std::size_t>(c)];
  return macs;
}

// Everything one replayed request needs: its representations in the
// plan's executed formats and the job the server would build.
struct Prepared {
  mt::AnyMatrix rep_a, rep_b;
  mt::AnyTensor rep_x;
  mt::DenseMatrix staged;  // SpMV served through the width-1 SpMM twin
  mt::exec::Job job;
  double flops = 0.0;
  double bytes = 0.0;
};

void prepare(const PlannedShape& ps, Prepared& p) {
  const auto& s = ps.shape;
  const auto& plan = *ps.plan;
  const auto& pay = s.tmpl.payload;
  auto& job = p.job;
  job.kernel = s.tmpl.kernel;
  job.modeled_ns = plan.modeled_device_ns;
  constexpr auto kFp32 = mt::DataType::kFp32;
  if (mt::is_tensor_kernel(s.tmpl.kernel)) {
    p.rep_x = mt::convert(s.op_x->t, plan.run_a);
    job.x = &p.rep_x;
    job.dense_b = pay.dense_b.get();
    job.dense_c = pay.dense_c.get();
    const auto nnz = static_cast<double>(s.op_x->nnz);
    const auto r = static_cast<double>(pay.dense_b->cols());
    p.flops = (s.tmpl.kernel == Kernel::kMTTKRP ? 3.0 : 2.0) * nnz * r;
    p.bytes = mt::storage_of(p.rep_x, kFp32).total_bytes() +
              4.0 * static_cast<double>(pay.dense_b->size());
    if (pay.dense_c) {
      p.bytes += 4.0 * static_cast<double>(pay.dense_c->size());
      p.bytes += 4.0 * static_cast<double>(s.op_x->tcoo.dim_x()) * r;
    } else {
      p.bytes += 4.0 * static_cast<double>(s.op_x->tcoo.dim_x() *
                                           s.op_x->tcoo.dim_y()) * r;
    }
    return;
  }
  p.rep_a = mt::convert(s.op_a->m, plan.run_a);
  job.a = &p.rep_a;
  const auto nnz = static_cast<double>(s.op_a->nnz);
  const auto rows = static_cast<double>(s.op_a->coo.rows());
  p.bytes = mt::storage_of(p.rep_a, kFp32).total_bytes();
  switch (s.tmpl.kernel) {
    case Kernel::kSpMV:
      if (twin_spmv(plan)) {
        p.staged = mt::exec::stack_columns({pay.vec.get()});
        job.kernel = Kernel::kSpMM;
        job.dense_b = &p.staged;
      } else {
        job.vec = pay.vec.get();
      }
      p.flops = 2.0 * nnz;
      p.bytes += 4.0 * (static_cast<double>(pay.vec->size()) + rows);
      break;
    case Kernel::kSpMM: {
      job.dense_b = pay.dense_b.get();
      const auto w = static_cast<double>(pay.dense_b->cols());
      p.flops = 2.0 * nnz * w;
      p.bytes += 4.0 * (static_cast<double>(pay.dense_b->size()) + rows * w);
      break;
    }
    case Kernel::kSpGEMM: {
      p.rep_b = mt::convert(s.op_b->m, plan.run_b);
      job.b = &p.rep_b;
      const auto macs = spgemm_macs(s.op_a->coo, s.op_b->coo);
      p.flops = 2.0 * static_cast<double>(macs);
      // Inputs plus a CSR output bounded by one entry per multiply-add.
      p.bytes += mt::storage_of(p.rep_b, kFp32).total_bytes() +
                 12.0 * static_cast<double>(macs) + 8.0 * (rows + 1.0);
      break;
    }
    default:
      break;
  }
}

// The exec entry point the server's plan runs for this request.
void run_exec(const Prepared& p) {
  const auto& j = p.job;
  switch (j.kernel) {
    case Kernel::kSpMV:
      (void)mt::exec::spmv(*j.a, *j.vec);
      break;
    case Kernel::kSpMM:
    case Kernel::kGemm:
      if (j.b != nullptr) {
        (void)mt::exec::spmm(*j.a, *j.b);
      } else {
        (void)mt::exec::spmm(*j.a, *j.dense_b);
      }
      break;
    case Kernel::kSpGEMM:
      (void)mt::exec::spgemm(*j.a, *j.b);
      break;
    case Kernel::kSpTTM:
      (void)mt::exec::ttm(*j.x, *j.dense_b);
      break;
    case Kernel::kMTTKRP:
      (void)mt::exec::mttkrp(*j.x, *j.dense_b, *j.dense_c);
      break;
  }
}

}  // namespace

std::string lower(std::string_view s) {
  std::string o(s);
  for (auto& c : o) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return o;
}

void replay_layers(const std::vector<PlannedShape>& shapes,
                   const mt::runtime::ServerOptions& server, MetricSet& out) {
  const mt::AccelConfig& cfg = server.accel;
  const mt::EnergyParams& energy = server.energy;

  // --- SAGE selection, one call per distinct workload (at most 8 each) ---
  Samples sage_spmv, sage_matmul, sage_tensor;
  std::set<const Operand*> spmv_seen;
  std::set<std::pair<const Operand*, const Operand*>> pair_seen;
  std::set<std::pair<const Operand*, int>> tensor_seen;
  for (const auto& ps : shapes) {
    const auto& s = ps.shape;
    const Kernel k = s.tmpl.kernel;
    if (k == Kernel::kSpMV && spmv_seen.size() < 8 &&
        spmv_seen.insert(s.op_a).second) {
      const auto t0 = now_ns();
      (void)mt::sage_select_spmm_dense_b(s.op_a->coo, 1, cfg, energy);
      sage_spmv.add(static_cast<double>(now_ns() - t0));
    } else if (k == Kernel::kSpGEMM && pair_seen.size() < 8 &&
               pair_seen.insert({s.op_a, s.op_b}).second) {
      const auto t0 = now_ns();
      (void)mt::sage_select_matmul(s.op_a->coo, s.op_b->coo, cfg, energy);
      sage_matmul.add(static_cast<double>(now_ns() - t0));
    } else if (mt::is_tensor_kernel(k) &&
               tensor_seen.insert({s.op_x, static_cast<int>(k)}).second) {
      const auto rank = s.tmpl.payload.dense_b->cols();
      const auto t0 = now_ns();
      (void)mt::sage_select_tensor(s.op_x->tcoo, rank, k, cfg, energy);
      sage_tensor.add(static_cast<double>(now_ns() - t0));
    }
  }
  out.set("sage.select_us.spmv", sage_spmv.quantile(0.5) / 1e3, "us",
          static_cast<long long>(sage_spmv.count()));
  out.set("sage.select_us.matmul", sage_matmul.quantile(0.5) / 1e3, "us",
          static_cast<long long>(sage_matmul.count()));
  out.set("sage.select_us.tensor", sage_tensor.quantile(0.5) / 1e3, "us",
          static_cast<long long>(sage_tensor.count()));

  // --- Conversion: every format each operand's plans need (SAGE's COO
  // input plus the executed ACFs), per nonzero, grouped by memory format.
  std::map<const Operand*, std::set<Format>> targets;
  for (const auto& ps : shapes) {
    const auto& s = ps.shape;
    const auto add = [&](const Operand* o, Format f) {
      if (o != nullptr && f != o->mcf) targets[o].insert(f);
    };
    add(s.op_a, Format::kCOO);
    add(s.op_a, ps.plan->run_a);
    add(s.op_b, Format::kCOO);
    add(s.op_b, ps.plan->run_b);
    add(s.op_x, Format::kCOO);
    add(s.op_x, ps.plan->run_a);
    if (s.op_a != nullptr) targets[s.op_a];
    if (s.op_b != nullptr) targets[s.op_b];
    if (s.op_x != nullptr) targets[s.op_x];
  }
  std::map<Format, Samples> per_mcf;
  for (const auto& [op, fmts] : targets) {
    double ns = 0.0;
    for (const Format f : fmts) {
      ns += time_median_ns(
          [&] {
            if (op->tensor) {
              (void)mt::convert(op->t, f);
            } else {
              (void)mt::convert(op->m, f);
            }
          },
          3);
    }
    per_mcf[op->mcf].add(ns / static_cast<double>(std::max<std::int64_t>(1, op->nnz)));
  }
  for (const Format f : {Format::kDense, Format::kCOO, Format::kCSR,
                         Format::kCSC, Format::kRLC, Format::kZVC,
                         Format::kBSR, Format::kELL}) {
    auto it = per_mcf.find(f);
    const double v = it == per_mcf.end() ? 0.0 : it->second.quantile(0.5);
    out.set("convert." + lower(mt::name_of(f)) + ".ns_per_nnz", v, "ns/nnz");
  }

  // --- Kernels through the exec entry points and Backend::run, weighted
  // by the workload's request mix per (kernel, executed format) pair.
  const auto cpu = mt::exec::make_backend(mt::exec::BackendKind::kCpu);
  mt::exec::MintBackendOptions mo;
  mo.simulate_latency = server.backend.simulate_latency;
  mo.max_simulated_latency_ns = server.backend.max_simulated_latency_ns;
  const auto mint = mt::exec::make_backend(mt::exec::BackendKind::kMint, mo);
  struct PairAcc {
    WMean ns, flops, bytes;
  };
  std::map<std::string, PairAcc> pairs;
  WMean cpu_run, mint_run;
  std::vector<std::unique_ptr<Prepared>> device_jobs;
  // The mint backend and the ring replay the device-routed shapes; on a
  // host-only workload they replay every shape (unpriced, so no simulated
  // latency), which measures the device path's own overhead on its jobs.
  const bool any_device = std::any_of(
      shapes.begin(), shapes.end(), [](const PlannedShape& ps) {
        return ps.plan->backend == mt::exec::BackendKind::kMint;
      });
  for (const auto& ps : shapes) {
    auto p = std::make_unique<Prepared>();
    prepare(ps, *p);
    p->job.accel = &cfg;
    p->job.energy = &energy;
    const double w = ps.shape.tmpl.weight;
    const std::string key = "kernel." + lower(mt::name_of(ps.shape.tmpl.kernel)) +
                            "." + lower(mt::name_of(ps.plan->run_a));
    auto& acc = pairs[key];
    acc.ns.add(time_median_ns([&] { run_exec(*p); }), w);
    acc.flops.add(p->flops, w);
    acc.bytes.add(p->bytes, w);
    cpu_run.add(time_median_ns([&] { (void)cpu->run(p->job); }) / 1e3, w);
    if (!any_device || ps.plan->backend == mt::exec::BackendKind::kMint) {
      // The device path takes SpMV as-is (no SpMM twin).
      if (ps.shape.tmpl.kernel == Kernel::kSpMV) {
        p->job.kernel = Kernel::kSpMV;
        p->job.dense_b = nullptr;
        p->job.vec = ps.shape.tmpl.payload.vec.get();
      }
      mint_run.add(time_median_ns([&] { (void)mint->run(p->job); }, 10) / 1e3,
                   w);
      device_jobs.push_back(std::move(p));
    }
  }
  for (const auto& [key, acc] : pairs) {
    out.set(key + ".ns", acc.ns.value(), "ns");
    out.set(key + ".flops", acc.flops.value(), "flop");
    out.set(key + ".bytes", acc.bytes.value(), "B");
  }
  out.set("backend.cpu.run_us", cpu_run.value(), "us");
  out.set("backend.mint.run_us", mint_run.value(), "us");

  // --- DeviceRing submit / wait on the same jobs ---
  Samples submit_ns, wait_ns;
  if (!device_jobs.empty()) {
    mt::exec::DeviceRing ring(*mint, {.slots = server.backend.ring_slots,
                                      .workers = server.backend.ring_workers});
    for (int round = 0; round < 8; ++round) {
      std::vector<mt::exec::DeviceRing::Ticket> tickets;
      for (const auto& p : device_jobs) {
        const auto t0 = now_ns();
        tickets.push_back(ring.submit(p->job));
        submit_ns.add(static_cast<double>(now_ns() - t0));
      }
      for (const auto tk : tickets) {
        const auto t0 = now_ns();
        (void)ring.wait(tk);
        wait_ns.add(static_cast<double>(now_ns() - t0));
      }
    }
  }
  out.set("ring.submit_us", submit_ns.quantile(0.5) / 1e3, "us",
          static_cast<long long>(submit_ns.count()));
  out.set("ring.wait_us", wait_ns.quantile(0.5) / 1e3, "us",
          static_cast<long long>(wait_ns.count()));
}

}  // namespace servebench
