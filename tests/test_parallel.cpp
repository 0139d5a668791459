// Parallel-vs-serial equivalence: every OpenMP kernel path must produce
// the same result with MT_NUM_THREADS=4 as with 1. Parallelism in these
// kernels is always across independent output rows/fibers, so the
// per-element accumulation order is identical and results are
// bit-identical, not merely tolerance-close.
//
// Every kernel check runs once per kernel tier (scalar always, the AVX2
// tier when the host supports it): the determinism contract is per-tier —
// each tier is bit-identical across thread counts, even though the two
// tiers round differently from each other.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/simd.hpp"
#include "common/threads.hpp"
#include "formats/csc.hpp"
#include "formats/csf.hpp"
#include "formats/csr.hpp"
#include "kernels/gemm.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/spgemm.hpp"
#include "kernels/spmm.hpp"
#include "kernels/spmv.hpp"
#include "kernels/ttm.hpp"
#include "testing.hpp"

namespace {

using namespace mt;

constexpr int kThreads = 4;

// Runs `f` serially and with kThreads threads, restoring the previous
// setting, and returns the two results.
template <typename F>
auto serial_vs_parallel(F&& f) {
  set_num_threads(1);
  auto serial = f();
  set_num_threads(kThreads);
  auto parallel = f();
  set_num_threads(0);
  return std::pair(std::move(serial), std::move(parallel));
}

// Runs `body` once with the scalar tier pinned and, when the host has
// AVX2+FMA, once with the SIMD tier pinned, restoring runtime detection
// afterwards.
template <typename F>
void run_tiers(F&& body) {
  set_simd_enabled(0);
  body();
  if (cpu_has_avx2()) {
    set_simd_enabled(1);
    body();
  }
  set_simd_enabled(-1);
}

template <class AllocA, class AllocB>
void expect_same(const std::vector<value_t, AllocA>& a,
                 const std::vector<value_t, AllocB>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "element " << i;
  }
}

void expect_same(const DenseMatrix& a, const DenseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  expect_same(a.values(), b.values());
}

TEST(Parallel, OpenMPIsActive) {
#ifdef _OPENMP
  set_num_threads(kThreads);
  int observed = 0;
  const int nt = num_threads();
#pragma omp parallel num_threads(nt)
  {
#pragma omp single
    observed = omp_get_num_threads();
  }
  set_num_threads(0);
  EXPECT_EQ(observed, kThreads);
#else
  FAIL() << "built without OpenMP: parallel kernel paths are dead code";
#endif
}

TEST(Parallel, ThreadsKnobPrecedence) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(0);  // falls back to MT_NUM_THREADS / OpenMP default
  EXPECT_GE(num_threads(), 1);
}

TEST(Parallel, SpmvCsr) {
  const auto a = CsrMatrix::from_dense(mt::testing::random_dense(64, 96, 0.15, 11));
  const auto xd = mt::testing::random_dense(96, 1, 1.0, 12);
  const std::vector<value_t> x(xd.values().begin(), xd.values().end());
  run_tiers([&] {
    auto [s, p] = serial_vs_parallel([&] { return spmv_csr(a, x); });
    expect_same(s, p);
  });
}

// The engine's other SpMV ACFs: CSC reduces fixed column chunks in chunk
// order, COO splits the entry range at row boundaries, Dense/ELL/BSR own
// disjoint rows — all bit-identical by construction.
TEST(Parallel, SpmvEngineFormats) {
  const auto d = mt::testing::random_dense(70, 90, 0.15, 13);
  const auto xd = mt::testing::random_dense(90, 1, 1.0, 14);
  const std::vector<value_t> x(xd.values().begin(), xd.values().end());
  run_tiers([&] {
    {
      const auto a = CscMatrix::from_dense(d);
      auto [s, p] = serial_vs_parallel([&] { return spmv_csc(a, x); });
      expect_same(s, p);
    }
    {
      const auto a = CooMatrix::from_dense(d);
      auto [s, p] = serial_vs_parallel([&] { return spmv_coo(a, x); });
      expect_same(s, p);
    }
    {
      auto [s, p] = serial_vs_parallel([&] { return spmv_dense(d, x); });
      expect_same(s, p);
    }
    {
      const auto a = EllMatrix::from_dense(d);
      auto [s, p] = serial_vs_parallel([&] { return spmv_ell(a, x); });
      expect_same(s, p);
    }
    {
      const auto a = BsrMatrix::from_dense(d);
      auto [s, p] = serial_vs_parallel([&] { return spmv_bsr(a, x); });
      expect_same(s, p);
    }
  });
}

TEST(Parallel, SpmmCooDense) {
  const auto a = CooMatrix::from_dense(mt::testing::random_dense(52, 60, 0.2, 15));
  const auto b = mt::testing::random_dense(60, 28, 1.0, 16);
  run_tiers([&] {
    auto [s, p] = serial_vs_parallel([&] { return spmm_coo_dense(a, b); });
    expect_same(s, p);
  });
}

TEST(Parallel, SpmmCscDense) {
  const auto a = CscMatrix::from_dense(mt::testing::random_dense(52, 60, 0.2, 17));
  const auto b = mt::testing::random_dense(60, 28, 1.0, 18);
  run_tiers([&] {
    auto [s, p] = serial_vs_parallel([&] { return spmm_csc_dense(a, b); });
    expect_same(s, p);
  });
}

TEST(Parallel, MttkrpHicoo) {
  const auto t = mt::testing::random_tensor(24, 20, 16, 0.1, 19);
  const auto x = HicooTensor3::from_coo(CooTensor3::from_dense(t));
  const auto b = mt::testing::random_dense(20, 8, 1.0, 44);
  const auto c = mt::testing::random_dense(16, 8, 1.0, 45);
  run_tiers([&] {
    auto [s, p] = serial_vs_parallel([&] { return mttkrp_hicoo(x, b, c); });
    expect_same(s, p);
  });
}

TEST(Parallel, SpmmCsrDense) {
  const auto a = CsrMatrix::from_dense(mt::testing::random_dense(48, 64, 0.2, 21));
  const auto b = mt::testing::random_dense(64, 32, 1.0, 22);
  run_tiers([&] {
    auto [s, p] = serial_vs_parallel([&] { return spmm_csr_dense(a, b); });
    expect_same(s, p);
  });
}

TEST(Parallel, SpmmDenseCsc) {
  const auto a = mt::testing::random_dense(40, 56, 1.0, 23);
  const auto b = CscMatrix::from_dense(mt::testing::random_dense(56, 44, 0.2, 24));
  run_tiers([&] {
    auto [s, p] = serial_vs_parallel([&] { return spmm_dense_csc(a, b); });
    expect_same(s, p);
  });
}

TEST(Parallel, SpmmCsrCsc) {
  const auto a = CsrMatrix::from_dense(mt::testing::random_dense(40, 56, 0.2, 25));
  const auto b = CscMatrix::from_dense(mt::testing::random_dense(56, 44, 0.2, 26));
  run_tiers([&] {
    auto [s, p] = serial_vs_parallel([&] { return spmm_csr_csc(a, b); });
    expect_same(s, p);
  });
}

// SpGEMM splits A's rows into nt contiguous ranges and stitches the
// per-thread buffers, so its cases run at several team widths — including
// odd ones and more threads than rows — and compare row_ptr, col_ids and
// the value bits against the 1-thread result.
constexpr int kSpgemmThreads[] = {2, 3, 4, 7};

void expect_same_bits(const CsrMatrix& s, const CsrMatrix& p) {
  EXPECT_EQ(s.rows(), p.rows());
  EXPECT_EQ(s.cols(), p.cols());
  EXPECT_EQ(s.row_ptr(), p.row_ptr());
  EXPECT_EQ(s.col_ids(), p.col_ids());
  ASSERT_EQ(s.values().size(), p.values().size());
  for (std::size_t i = 0; i < s.values().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(s.values()[i]),
              std::bit_cast<std::uint32_t>(p.values()[i]))
        << "value " << i;
  }
}

template <typename F>
void expect_spgemm_thread_invariant(F&& f) {
  set_num_threads(1);
  const CsrMatrix serial = f();
  for (const int nt : kSpgemmThreads) {
    SCOPED_TRACE(::testing::Message() << nt << " threads");
    set_num_threads(nt);
    expect_same_bits(serial, f());
  }
  set_num_threads(0);
}

// A with an empty row just before and a dense row at every thread cut
// m * t / nt of every tested width, so each range begins on a full row
// and the previous one ends on a row that contributes no output.
DenseMatrix rows_at_thread_cuts(index_t m, index_t k, std::uint64_t seed) {
  auto d = mt::testing::random_dense(m, k, 0.15, seed);
  for (const int nt : kSpgemmThreads) {
    for (int t = 1; t < nt; ++t) {
      const index_t cut = m * t / nt;
      for (index_t c = 0; c < k; ++c) {
        d.set(cut - 1, c, 0.0f);
        d.set(cut, c, 0.5f + static_cast<value_t>(c % 7));
      }
    }
  }
  return d;
}

TEST(Parallel, SpgemmCsr) {
  const auto a = CsrMatrix::from_dense(mt::testing::random_dense(48, 64, 0.15, 31));
  const auto b = CsrMatrix::from_dense(mt::testing::random_dense(64, 56, 0.15, 32));
  run_tiers([&] {
    expect_spgemm_thread_invariant([&] { return spgemm_csr(a, b); });
  });
}

TEST(Parallel, SpgemmCsrEmptyAndDenseRowsAtThreadCuts) {
  const auto d = rows_at_thread_cuts(84, 40, 33);
  const auto a = CsrMatrix::from_dense(d);
  const auto b = CsrMatrix::from_dense(mt::testing::random_dense(40, 52, 0.2, 34));
  // The construction must really leave the rows at the cuts empty and
  // dense, or the case silently degrades to a plain random one.
  for (const int nt : kSpgemmThreads) {
    for (int t = 1; t < nt; ++t) {
      const index_t cut = 84 * t / nt;
      EXPECT_EQ(a.row_ptr()[cut], a.row_ptr()[cut - 1]) << "cut " << cut;
      EXPECT_EQ(a.row_ptr()[cut + 1] - a.row_ptr()[cut], 40) << "cut " << cut;
    }
  }
  run_tiers([&] {
    expect_spgemm_thread_invariant([&] { return spgemm_csr(a, b); });
  });
}

TEST(Parallel, SpgemmCsrMoreThreadsThanRows) {
  const auto a = CsrMatrix::from_dense(mt::testing::random_dense(5, 30, 0.3, 35));
  const auto b = CsrMatrix::from_dense(mt::testing::random_dense(30, 24, 0.3, 36));
  run_tiers([&] {
    expect_spgemm_thread_invariant([&] { return spgemm_csr(a, b); });
  });
}

TEST(Parallel, SpgemmCsrAllEmptyB) {
  const auto a = CsrMatrix::from_dense(mt::testing::random_dense(48, 64, 0.15, 37));
  const auto b = CsrMatrix::from_dense(DenseMatrix(64, 56));
  run_tiers([&] {
    expect_spgemm_thread_invariant([&] {
      const auto c = spgemm_csr(a, b);
      EXPECT_EQ(c.nnz(), 0);
      return c;
    });
  });
}

TEST(Parallel, SpgemmCsrMultiTile) {
  const auto a = CsrMatrix::from_dense(rows_at_thread_cuts(84, 48, 38));
  const auto b = CsrMatrix::from_dense(mt::testing::random_dense(48, 200, 0.15, 39));
  run_tiers([&] {
    for (const index_t tile : {7, 64, 130}) {
      SCOPED_TRACE(::testing::Message() << "tile " << tile);
      expect_spgemm_thread_invariant(
          [&] { return spgemm_csr_tiled(a, b, tile); });
    }
  });
}

TEST(Parallel, MttkrpCsf) {
  const auto t = mt::testing::random_tensor(24, 20, 16, 0.1, 41);
  const auto x = CsfTensor3::from_dense(t);
  const auto b = mt::testing::random_dense(20, 8, 1.0, 42);
  const auto c = mt::testing::random_dense(16, 8, 1.0, 43);
  run_tiers([&] {
    auto [s, p] = serial_vs_parallel([&] { return mttkrp_csf(x, b, c); });
    expect_same(s, p);
  });
}

TEST(Parallel, SpttmCsf) {
  const auto t = mt::testing::random_tensor(24, 20, 16, 0.1, 51);
  const auto x = CsfTensor3::from_dense(t);
  const auto u = mt::testing::random_dense(16, 8, 1.0, 52);
  run_tiers([&] {
    auto [s, p] = serial_vs_parallel([&] { return spttm_csf(x, u); });
    ASSERT_EQ(s.dim_x(), p.dim_x());
    ASSERT_EQ(s.dim_y(), p.dim_y());
    ASSERT_EQ(s.dim_z(), p.dim_z());
    expect_same(s.values(), p.values());
  });
}

TEST(Parallel, Gemm) {
  const auto a = mt::testing::random_dense(40, 48, 0.5, 61);
  const auto b = mt::testing::random_dense(48, 36, 0.5, 62);
  run_tiers([&] {
    auto [s, p] = serial_vs_parallel([&] { return gemm(a, b); });
    expect_same(s, p);
  });
}

}  // namespace
