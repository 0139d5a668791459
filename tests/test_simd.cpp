// The SIMD kernel tier: knob precedence, scalar-tier backward
// compatibility, SIMD-vs-scalar numerical agreement, run-to-run
// determinism, cache-blocked SpGEMM tiling, and the aligned value
// storage the vector loads rely on.
//
// Tolerance note: the ISSUE's determinism contract asks that the SIMD
// tier "match scalar results within tolerance". With value_t = float
// (eps ~ 1.2e-7) a 1e-10 relative bound is unrepresentable: FMA fuses
// the multiply-add rounding step and 8-lane accumulation reassociates
// the sum, so per-element differences of a few ULPs — relative ~1e-6
// over hundreds of accumulated terms — are the *expected* behavior of a
// correct SIMD kernel. The checks below use rtol 1e-5 / atol 1e-6,
// several ULP-decades tighter than any real divergence (a wrong index
// or dropped term shows up at ~1e-1).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/aligned.hpp"
#include "common/simd.hpp"
#include "common/threads.hpp"
#include "formats/bsr.hpp"
#include "formats/csc.hpp"
#include "formats/csf.hpp"
#include "formats/csr.hpp"
#include "formats/dense.hpp"
#include "formats/ell.hpp"
#include "kernels/gemm.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/spgemm.hpp"
#include "kernels/spmm.hpp"
#include "kernels/spmv.hpp"
#include "testing.hpp"

namespace {

using namespace mt;

// Restores the override (and the thread setting) even when a test fails.
struct TierGuard {
  int saved = simd_override();
  ~TierGuard() {
    set_simd_enabled(saved);
    set_num_threads(0);
  }
};

constexpr float kRtol = 1e-5f;
constexpr float kAtol = 1e-6f;

void expect_close(const std::vector<value_t>& a,
                  const std::vector<value_t>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float bound =
        kAtol + kRtol * std::max(std::fabs(a[i]), std::fabs(b[i]));
    EXPECT_NEAR(a[i], b[i], bound) << "element " << i;
  }
}

void expect_close(const DenseMatrix& a, const DenseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    const float av = a.values()[i], bv = b.values()[i];
    const float bound = kAtol + kRtol * std::max(std::fabs(av), std::fabs(bv));
    EXPECT_NEAR(av, bv, bound) << "element " << i;
  }
}

// --- Knob ---

TEST(SimdKnob, OverrideBeatsDetection) {
  TierGuard guard;
  set_simd_enabled(0);
  EXPECT_EQ(simd_override(), 0);
  EXPECT_FALSE(simd_enabled());  // forced scalar regardless of the CPU
  set_simd_enabled(1);
  EXPECT_EQ(simd_override(), 1);
  // Forced on still never claims SIMD on a CPU that cannot run it.
  EXPECT_EQ(simd_enabled(), cpu_has_avx2());
  set_simd_enabled(-1);
  EXPECT_EQ(simd_override(), -1);
  // No override: env/detection decide; either way the predicate must be
  // false whenever the capability probe is.
  if (!cpu_has_avx2()) {
    EXPECT_FALSE(simd_enabled());
  }
}

TEST(SimdKnob, OverrideModeClamps) {
  TierGuard guard;
  set_simd_enabled(7);
  EXPECT_EQ(simd_override(), 1);
  set_simd_enabled(-3);
  EXPECT_EQ(simd_override(), -1);
}

#if !MT_SIMD_X86
TEST(SimdKnob, PortableBuildNeverEnables) {
  TierGuard guard;
  EXPECT_FALSE(cpu_has_avx2());
  set_simd_enabled(1);
  EXPECT_FALSE(simd_enabled());
}
#endif

// --- Scalar tier backward compatibility ---
//
// With the SIMD tier forced off, every kernel must reproduce the naive
// reference loop bit-for-bit: this is the MT_SIMD=off escape hatch that
// restores pre-SIMD results exactly.

TEST(SimdScalarTier, SpmvCsrBitEqualsNaiveReference) {
  TierGuard guard;
  set_simd_enabled(0);
  const auto d = mt::testing::random_dense(48, 64, 0.4, 101);
  const auto a = CsrMatrix::from_dense(d);
  std::vector<value_t> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.25f * static_cast<float>(i % 7) - 0.5f;
  }
  std::vector<value_t> want(48, 0.0f);
  for (index_t r = 0; r < 48; ++r) {
    value_t acc = 0.0f;
    for (index_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      acc += a.values()[i] * x[static_cast<std::size_t>(a.col_ids()[i])];
    }
    want[static_cast<std::size_t>(r)] = acc;
  }
  EXPECT_EQ(spmv_csr(a, x), want);
}

TEST(SimdScalarTier, GemmBitEqualsNaiveReference) {
  TierGuard guard;
  set_simd_enabled(0);
  const auto a = mt::testing::random_dense(20, 30, 0.6, 102);
  const auto b = mt::testing::random_dense(30, 25, 0.6, 103);
  DenseMatrix want(20, 25);
  for (index_t i = 0; i < 20; ++i) {
    for (index_t k = 0; k < 30; ++k) {
      const value_t av = a.at(i, k);
      if (av == 0.0f) continue;
      for (index_t j = 0; j < 25; ++j) {
        want.set(i, j, want.at(i, j) + av * b.at(k, j));
      }
    }
  }
  EXPECT_EQ(gemm(a, b).values(), want.values());
}

// --- SIMD vs scalar: tolerance agreement on every vectorized kernel ---

class SimdVsScalar : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!cpu_has_avx2()) GTEST_SKIP() << "host lacks AVX2+FMA";
  }
  TierGuard guard_;
};

TEST_F(SimdVsScalar, SpmvFormats) {
  // Dense enough that rows exceed both the 16-step and 8-step unroll.
  const auto d = mt::testing::random_dense(64, 96, 0.5, 111);
  const auto xd = mt::testing::random_dense(96, 1, 1.0, 112);
  const std::vector<value_t> x(xd.values().begin(), xd.values().end());
  const auto csr = CsrMatrix::from_dense(d);
  const auto ell = EllMatrix::from_dense(d);
  const auto bsr = BsrMatrix::from_dense(d);
  set_simd_enabled(0);
  const auto s_csr = spmv_csr(csr, x);
  const auto s_ell = spmv_ell(ell, x);
  const auto s_bsr = spmv_bsr(bsr, x);
  const auto s_den = spmv_dense(d, x);
  set_simd_enabled(1);
  expect_close(spmv_csr(csr, x), s_csr);
  expect_close(spmv_ell(ell, x), s_ell);
  expect_close(spmv_bsr(bsr, x), s_bsr);
  expect_close(spmv_dense(d, x), s_den);
}

TEST_F(SimdVsScalar, SpmmCsrAndDenseCsc) {
  // 70 columns: two 32-wide tiles, one 8-wide step, a 6-column tail.
  const auto ad = mt::testing::random_dense(48, 64, 0.3, 113);
  const auto b = mt::testing::random_dense(64, 70, 0.9, 114);
  const auto csr = CsrMatrix::from_dense(ad);
  const auto dl = mt::testing::random_dense(45, 52, 0.9, 115);
  const auto csc = CscMatrix::from_dense(mt::testing::random_dense(52, 38, 0.3, 116));
  set_simd_enabled(0);
  const auto s_csr = spmm_csr_dense(csr, b);
  const auto s_dcsc = spmm_dense_csc(dl, csc);
  set_simd_enabled(1);
  expect_close(spmm_csr_dense(csr, b), s_csr);
  expect_close(spmm_dense_csc(dl, csc), s_dcsc);
}

TEST_F(SimdVsScalar, GemmAcrossPanelBoundaries) {
  // k = 300 spans two kKc = 256 panels; n = 37 leaves a 5-column tail.
  const auto a = mt::testing::random_dense(37, 300, 0.8, 117);
  const auto b = mt::testing::random_dense(300, 37, 0.8, 118);
  set_simd_enabled(0);
  const auto s = gemm(a, b);
  set_simd_enabled(1);
  expect_close(gemm(a, b), s);
}

TEST_F(SimdVsScalar, MttkrpCsfRankTiles) {
  // Rank 24: one 16-wide tile plus an 8-rank scalar tail.
  const auto t = mt::testing::random_tensor(16, 14, 12, 0.2, 119);
  const auto x = CsfTensor3::from_dense(t);
  const auto b = mt::testing::random_dense(14, 24, 1.0, 120);
  const auto c = mt::testing::random_dense(12, 24, 1.0, 121);
  set_simd_enabled(0);
  const auto s = mttkrp_csf(x, b, c);
  set_simd_enabled(1);
  expect_close(mttkrp_csf(x, b, c), s);
}

// --- SIMD tier determinism ---

TEST_F(SimdVsScalar, RunToRunBitIdentical) {
  set_simd_enabled(1);
  const auto d = mt::testing::random_dense(64, 96, 0.5, 131);
  const auto csr = CsrMatrix::from_dense(d);
  const auto b = mt::testing::random_dense(96, 40, 0.9, 132);
  const auto xd = mt::testing::random_dense(96, 1, 1.0, 133);
  const std::vector<value_t> x(xd.values().begin(), xd.values().end());
  EXPECT_EQ(spmv_csr(csr, x), spmv_csr(csr, x));
  EXPECT_EQ(spmm_csr_dense(csr, b).values(), spmm_csr_dense(csr, b).values());
  const auto g1 = gemm(d, mt::testing::random_dense(96, 33, 0.8, 134));
  const auto g2 = gemm(d, mt::testing::random_dense(96, 33, 0.8, 134));
  EXPECT_EQ(g1.values(), g2.values());
}

// The ELL padding contract under the masked gather: padding lanes
// (col_id == -1) must contribute exactly nothing, even when the vector
// holds non-finite values at indices no real entry references.
TEST_F(SimdVsScalar, EllPaddingIgnoresPoisonedVector) {
  set_simd_enabled(1);
  // Row 0 references columns 0..8 (9 entries, exercising the 8-lane
  // step + tail); row 1 references only column 0 and is padded to 9.
  DenseMatrix d(2, 12);
  for (index_t c = 0; c < 9; ++c) d.set(0, c, 1.0f);
  d.set(1, 0, 2.0f);
  const auto ell = EllMatrix::from_dense(d);
  std::vector<value_t> x(12, 1.0f);
  // Columns 9..11 are referenced by no entry; poison them.
  x[9] = std::numeric_limits<float>::quiet_NaN();
  x[10] = std::numeric_limits<float>::infinity();
  x[11] = -std::numeric_limits<float>::infinity();
  const auto y = spmv_ell(ell, x);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_EQ(y[0], 9.0f);
  EXPECT_EQ(y[1], 2.0f);
}

// --- Cache-blocked SpGEMM ---

TEST(SpgemmTiling, TileWidthNeverChangesBits) {
  TierGuard guard;
  const auto a = CsrMatrix::from_dense(mt::testing::random_dense(40, 64, 0.2, 141));
  const auto b = CsrMatrix::from_dense(mt::testing::random_dense(64, 120, 0.2, 142));
  const auto ref = spgemm_csr(a, b);  // production tile width (single tile)
  for (const index_t tile : {7, 16, 64, 121}) {
    const auto got = spgemm_csr_tiled(a, b, tile);
    ASSERT_EQ(got.nnz(), ref.nnz()) << "tile " << tile;
    EXPECT_EQ(got.row_ptr(), ref.row_ptr()) << "tile " << tile;
    EXPECT_EQ(got.col_ids(), ref.col_ids()) << "tile " << tile;
    EXPECT_EQ(got.values(), ref.values()) << "tile " << tile;
  }
}

// --- Aligned value storage ---

TEST(AlignedStorage, FormatValueBuffersAreCacheLineAligned) {
  const auto d = mt::testing::random_dense(33, 47, 0.3, 151);
  EXPECT_TRUE(is_aligned(d.values().data()));
  EXPECT_TRUE(is_aligned(CsrMatrix::from_dense(d).values().data()));
  EXPECT_TRUE(is_aligned(EllMatrix::from_dense(d).values().data()));
  EXPECT_TRUE(is_aligned(BsrMatrix::from_dense(d).block_values().data()));
}

}  // namespace
