// Per-kernel speedup bench, emitted as JSON. This is the perf baseline
// bench/run_all.sh records into BENCH_kernels.json.
//
// Three phases per kernel, all over the SAME RNG-seeded operands:
//   serial   — scalar tier, 1 thread   (the historical baseline axis)
//   parallel — scalar tier, N threads  (speedup = serial/parallel)
//   simd     — SIMD tier,   1 thread   (simd_over_scalar = serial/simd)
// The serial and parallel phases pin the scalar tier so their numbers
// stay comparable to baselines recorded before the SIMD layer existed;
// the SIMD phase runs single-threaded so simd_over_scalar isolates the
// vectorization win from thread scaling. On hosts without AVX2+FMA the
// simd fields are emitted as 0 and "simd_supported" is false — the
// check_bench.py gate skips them.
//
// Each phase fingerprints the kernel's operand buffers (FNV-1a) before
// timing; a mismatch across phases means an operand was re-synthesized
// or mutated and the comparison is void, so the bench aborts.
//
// Kernels run through the execution engine's format-generic dispatch (the
// path every layer above uses); operand sizes are large enough that the
// parallel-region overhead is amortized — the earlier 2048-point SpMV ran
// 66us serial, far below the fork/join cost at small thread counts.
//
// A second array, "planner", times the first-touch planning path on one
// seeded operand (1024 x 1024 at 5% in full mode): each sage_select_*
// search in ms per call on the CSR operands the server plans on, each
// MCF -> CSR conversion (the one decode a served operand pays) and each
// MCF -> COO decode in ns per nonzero.
// check_bench.py prints these next to the committed values without
// gating them; a planner that falls back to comparison sorts or dense
// decodes shows up there as a several-fold jump.
//
// Usage: bench_speedup [--smoke] [--threads N] [--out FILE]
//   --smoke     tiny operands, one rep (CI launch check)
//   --threads N parallel thread count (default: mt::num_threads())
//   --out FILE  write JSON there instead of stdout
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/simd.hpp"
#include "common/threads.hpp"
#include "exec/exec.hpp"
#include "sage/sage.hpp"
#include "workloads/synth.hpp"

namespace {

using namespace mt;
using clock_t_ = std::chrono::steady_clock;

// Best-of-reps wall time of f() at the given thread count, in ms.
template <typename F>
double time_ms(F&& f, int threads, int reps) {
  set_num_threads(threads);
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock_t_::now();
    f();
    const auto t1 = clock_t_::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best) best = ms;
  }
  set_num_threads(0);
  return best;
}

struct Row {
  std::string kernel;
  double serial_ms;
  double parallel_ms;
  double simd_ms;  // 0 when the host lacks AVX2+FMA
  std::uint64_t operand_fp;
};

struct PlannerRow {
  std::string name;
  double value;
  const char* unit;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int threads = num_threads();
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--threads N] [--out FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  if (threads < 1) threads = 1;
  const int reps = smoke ? 1 : 3;
  const bool simd = cpu_has_avx2();
  // Uniform-random rows: static scheduling, sized so each kernel runs
  // >= O(10M) scalar ops and the parallel region dominates its overhead.
  const index_t n_spmv = smoke ? 256 : 8192;
  const index_t n = smoke ? 256 : 4096;
  const index_t rank = smoke ? 8 : 64;
  const index_t n_spgemm = smoke ? 256 : 2048;
  const index_t tdim = smoke ? 32 : 256;
  const index_t gemm_n = smoke ? 64 : 512;

  const AnyMatrix csr_spmv = convert(
      AnyMatrix(synth_coo_matrix(n_spmv, n_spmv, n_spmv * n_spmv / 50, 7)),
      Format::kCSR);
  const AnyMatrix csr =
      convert(AnyMatrix(synth_coo_matrix(n, n, n * n / 50, 7)), Format::kCSR);
  const AnyMatrix csr_gemm = convert(
      AnyMatrix(synth_coo_matrix(n_spgemm, n_spgemm,
                                 n_spgemm * n_spgemm / 50, 7)),
      Format::kCSR);
  const auto dense_b = synth_dense_matrix(n, rank, 1.0, 8);
  const AnyMatrix dense_sq_a = AnyMatrix(synth_dense_matrix(gemm_n, gemm_n, 1.0, 9));
  const AnyMatrix dense_sq_b = AnyMatrix(synth_dense_matrix(gemm_n, gemm_n, 1.0, 10));
  const std::vector<value_t> xvec(static_cast<std::size_t>(n_spmv), 1.0f);
  const auto tcoo =
      synth_coo_tensor(tdim, tdim, tdim,
                       static_cast<std::int64_t>(tdim) * tdim * tdim / 50, 11);
  const AnyTensor csf = convert(AnyTensor(tcoo), Format::kCSF);
  const auto fb = synth_dense_matrix(tdim, rank, 1.0, 12);
  const auto fc = synth_dense_matrix(tdim, rank, 1.0, 13);

  // Per-kernel operand fingerprints: chained FNV-1a over every value and
  // index buffer the kernel reads.
  const auto fp_csr = [](const AnyMatrix& m, std::uint64_t h) {
    const auto& c = std::get<CsrMatrix>(m);
    h = bench::fnv1a_vec(c.row_ptr(), h);
    h = bench::fnv1a_vec(c.col_ids(), h);
    return bench::fnv1a_vec(c.values(), h);
  };
  const auto fp_dense = [](const DenseMatrix& m, std::uint64_t h) {
    return bench::fnv1a_vec(m.values(), h);
  };
  const auto fp_csf = [&](std::uint64_t h) {
    return bench::fnv1a_vec(std::get<CsfTensor3>(csf).values(), h);
  };
  const std::uint64_t kSeed = 14695981039346656037ull;
  const std::function<std::uint64_t()> fps[] = {
      [&] { return bench::fnv1a_vec(xvec, fp_csr(csr_spmv, kSeed)); },
      [&] { return fp_dense(dense_b, fp_csr(csr, kSeed)); },
      [&] { return fp_csr(csr_gemm, kSeed); },
      [&] { return fp_dense(fc, fp_dense(fb, fp_csf(kSeed))); },
      [&] { return fp_dense(fc, fp_csf(kSeed)); },
      [&] {
        return fp_dense(std::get<DenseMatrix>(dense_sq_b),
                        fp_dense(std::get<DenseMatrix>(dense_sq_a), kSeed));
      },
  };

  std::vector<Row> rows;
  const auto run = [&](const char* name, auto&& f) {
    const auto& fp = fps[rows.size()];
    const std::uint64_t fp0 = fp();
    Row r;
    r.kernel = name;
    set_simd_enabled(0);  // scalar tier: comparable to pre-SIMD baselines
    r.serial_ms = time_ms(f, 1, reps);
    const std::uint64_t fp_serial = fp();
    r.parallel_ms = time_ms(f, threads, reps);
    const std::uint64_t fp_parallel = fp();
    r.simd_ms = 0.0;
    std::uint64_t fp_simd = fp_parallel;
    if (simd) {
      set_simd_enabled(1);
      r.simd_ms = time_ms(f, 1, reps);
      fp_simd = fp();
    }
    set_simd_enabled(-1);
    if (fp_serial != fp0 || fp_parallel != fp0 || fp_simd != fp0) {
      std::fprintf(stderr,
                   "%s: operand fingerprint drifted across phases "
                   "(pre=%016llx serial=%016llx parallel=%016llx "
                   "simd=%016llx) — phases did not time identical "
                   "operands\n",
                   name, static_cast<unsigned long long>(fp0),
                   static_cast<unsigned long long>(fp_serial),
                   static_cast<unsigned long long>(fp_parallel),
                   static_cast<unsigned long long>(fp_simd));
      std::exit(1);
    }
    r.operand_fp = fp0;
    rows.push_back(std::move(r));
  };
  run("SpMV", [&] { exec::spmv(csr_spmv, xvec); });
  run("SpMM", [&] { exec::spmm(csr, dense_b); });
  run("SpGEMM", [&] { exec::spgemm(csr_gemm, csr_gemm); });
  run("MTTKRP", [&] { exec::mttkrp(csf, fb, fc); });
  run("SpTTM", [&] { exec::ttm(csf, fc); });
  run("GEMM", [&] { exec::spmm(dense_sq_a, dense_sq_b); });

  // Planner path, single-threaded as the serving runtime runs it.
  std::vector<PlannerRow> planner;
  {
    const index_t n_plan = smoke ? 128 : 1024;
    const std::int64_t nnz_plan = n_plan * n_plan / 20;
    const auto pa = synth_coo_matrix(n_plan, n_plan, nnz_plan, 15);
    const auto pa_csr = CsrMatrix::from_coo(pa);
    const auto pb_csr =
        CsrMatrix::from_coo(synth_coo_matrix(n_plan, n_plan, nnz_plan, 16));
    const AccelConfig cfg;
    const EnergyParams energy;
    const int plan_reps = smoke ? 1 : 5;
    planner.push_back(
        {"sage_select_matmul",
         time_ms([&] { (void)sage_select_matmul(pa_csr, pb_csr, cfg, energy); },
                 1, plan_reps),
         "ms/call"});
    planner.push_back(
        {"sage_select_spmm_dense_b",
         time_ms([&] {
           (void)sage_select_spmm_dense_b(pa_csr, 16, cfg, energy);
         }, 1, plan_reps),
         "ms/call"});
    planner.push_back(
        {"sage_select_tensor",
         time_ms([&] {
           (void)sage_select_tensor(tcoo, rank, Kernel::kMTTKRP, cfg, energy);
         }, 1, plan_reps),
         "ms/call"});
    const AnyMatrix hub{pa};
    for (Format to : {Format::kCSR, Format::kCOO}) {
      for (Format f : {Format::kDense, Format::kCOO, Format::kCSR,
                       Format::kCSC, Format::kRLC, Format::kZVC, Format::kBSR,
                       Format::kDIA, Format::kELL}) {
        if (f == to) continue;
        const AnyMatrix src = convert(hub, f);
        const double ms =
            time_ms([&] { (void)convert(src, to); }, 1, plan_reps);
        planner.push_back({"convert_" + std::string(name_of(f)) + "_to_" +
                               std::string(name_of(to)),
                           ms * 1e6 / static_cast<double>(nnz_plan),
                           "ns/nnz"});
      }
    }
  }

  std::FILE* out = out_path ? std::fopen(out_path, "w") : stdout;
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"kernels_speedup\",\n");
  std::fprintf(out, "  \"threads\": %d,\n  \"smoke\": %s,\n", threads,
               smoke ? "true" : "false");
  std::fprintf(out, "  \"simd_supported\": %s,\n", simd ? "true" : "false");
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double speedup = r.parallel_ms > 0.0 ? r.serial_ms / r.parallel_ms : 0.0;
    const double simd_over_scalar =
        r.simd_ms > 0.0 ? r.serial_ms / r.simd_ms : 0.0;
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"serial_ms\": %.4f, "
                 "\"parallel_ms\": %.4f, \"simd_ms\": %.4f,\n"
                 "     \"serial_ns\": %.0f, \"parallel_ns\": %.0f, "
                 "\"simd_ns\": %.0f,\n"
                 "     \"speedup\": %.3f, \"simd_over_scalar\": %.3f, "
                 "\"operand_fp\": \"%016llx\"}%s\n",
                 r.kernel.c_str(), r.serial_ms, r.parallel_ms, r.simd_ms,
                 r.serial_ms * 1e6, r.parallel_ms * 1e6, r.simd_ms * 1e6,
                 speedup, simd_over_scalar,
                 static_cast<unsigned long long>(r.operand_fp),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"planner\": [\n");
  for (std::size_t i = 0; i < planner.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"value\": %.4f, "
                 "\"unit\": \"%s\"}%s\n",
                 planner[i].name.c_str(), planner[i].value, planner[i].unit,
                 i + 1 < planner.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (out != stdout) std::fclose(out);
  return 0;
}
