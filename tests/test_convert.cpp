// Direct converters vs encode-from-dense oracles, plus the generic
// any->any conversion layer (property: decode is invariant under convert).
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <tuple>
#include <vector>

#include "common/prng.hpp"
#include "convert/convert.hpp"
#include "testing.hpp"

namespace mt {
namespace {

using testing::random_dense;
using testing::random_tensor;

class DirectConverters
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, double>> {
 protected:
  DenseMatrix dense() const {
    const auto [m, k, d] = GetParam();
    return random_dense(m, k, d, 0xC0FFEE);
  }
};

TEST_P(DirectConverters, CsrToCscMatchesOracle) {
  const auto d = dense();
  const auto got = csr_to_csc(CsrMatrix::from_dense(d));
  const auto want = CscMatrix::from_dense(d);
  EXPECT_EQ(got.col_ptr(), want.col_ptr());
  EXPECT_EQ(got.row_ids(), want.row_ids());
  EXPECT_EQ(got.values(), want.values());
}

TEST_P(DirectConverters, CscToCsrMatchesOracle) {
  const auto d = dense();
  const auto got = csc_to_csr(CscMatrix::from_dense(d));
  const auto want = CsrMatrix::from_dense(d);
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_ids(), want.col_ids());
  EXPECT_EQ(got.values(), want.values());
}

TEST_P(DirectConverters, CsrCscInvolution) {
  const auto d = dense();
  const auto csr = CsrMatrix::from_dense(d);
  const auto back = csc_to_csr(csr_to_csc(csr));
  EXPECT_EQ(back.row_ptr(), csr.row_ptr());
  EXPECT_EQ(back.col_ids(), csr.col_ids());
  EXPECT_EQ(back.values(), csr.values());
}

TEST_P(DirectConverters, RlcToCooMatchesOracle) {
  const auto d = dense();
  const auto got = rlc_to_coo(RlcMatrix::from_dense(d));
  const auto want = CooMatrix::from_dense(d);
  EXPECT_EQ(got.row_ids(), want.row_ids());
  EXPECT_EQ(got.col_ids(), want.col_ids());
  EXPECT_EQ(got.values(), want.values());
}

TEST_P(DirectConverters, CsrToBsrMatchesOracle) {
  const auto d = dense();
  const auto got = csr_to_bsr(CsrMatrix::from_dense(d), 2, 2);
  const auto want = BsrMatrix::from_dense(d, 2, 2);
  EXPECT_EQ(got.block_row_ptr(), want.block_row_ptr());
  EXPECT_EQ(got.block_col_ids(), want.block_col_ids());
  EXPECT_EQ(got.block_values(), want.block_values());
}

TEST_P(DirectConverters, CsrToBsrOddBlocksRoundTrip) {
  const auto d = dense();
  const auto bsr = csr_to_bsr(CsrMatrix::from_dense(d), 3, 5);
  EXPECT_EQ(max_abs_diff(bsr.to_dense(), d), 0.0);
  const auto back = bsr_to_csr(bsr);
  EXPECT_EQ(max_abs_diff(back.to_dense(), d), 0.0);
}

TEST_P(DirectConverters, DenseZvcRoundTrip) {
  const auto d = dense();
  EXPECT_EQ(max_abs_diff(zvc_to_dense(dense_to_zvc(d)), d), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DirectConverters,
    ::testing::Values(std::tuple<index_t, index_t, double>{4, 4, 0.4},
                      std::tuple<index_t, index_t, double>{16, 16, 0.0},
                      std::tuple<index_t, index_t, double>{16, 16, 1.0},
                      std::tuple<index_t, index_t, double>{33, 17, 0.07},
                      std::tuple<index_t, index_t, double>{17, 33, 0.5},
                      std::tuple<index_t, index_t, double>{64, 64, 0.02},
                      std::tuple<index_t, index_t, double>{1, 100, 0.1},
                      std::tuple<index_t, index_t, double>{100, 1, 0.1}));

TEST(DirectConverters, RlcWithEscapesToCoo) {
  DenseMatrix d(3, 40);
  d.set(0, 0, 1.f);
  d.set(2, 39, 2.f);  // long run of zeros in between forces escapes
  const auto got = rlc_to_coo(RlcMatrix::from_dense(d, 3));
  EXPECT_EQ(got.nnz(), 2);
  EXPECT_EQ(max_abs_diff(got.to_dense(), d), 0.0);
}

TEST(DirectConverters, DenseToCsfMatchesFromCoo) {
  const auto t = random_tensor(9, 7, 11, 0.08, 1234);
  const auto a = dense_to_csf(t);
  const auto b = CsfTensor3::from_coo(CooTensor3::from_dense(t));
  EXPECT_EQ(a.x_ids(), b.x_ids());
  EXPECT_EQ(a.y_ptr(), b.y_ptr());
  EXPECT_EQ(a.y_ids(), b.y_ids());
  EXPECT_EQ(a.z_ptr(), b.z_ptr());
  EXPECT_EQ(a.z_ids(), b.z_ids());
  EXPECT_EQ(a.values(), b.values());
}

// --- Generic layer: every (from, to) pair preserves the dense decode ---

class AnyToAny : public ::testing::TestWithParam<std::tuple<Format, Format>> {};

TEST_P(AnyToAny, ConversionPreservesContents) {
  const auto [from, to] = GetParam();
  const auto d = random_dense(24, 18, 0.15, 31337);
  const AnyMatrix src = encode(d, from);
  const AnyMatrix dst = convert(src, to);
  EXPECT_EQ(format_of(dst), to);
  EXPECT_EQ(max_abs_diff(decode(dst), d), 0.0);
}

TEST_P(AnyToAny, NnzPreservedThroughNonPaddingFormats) {
  const auto [from, to] = GetParam();
  // BSR/DIA/RLC report structural element counts that include fill; skip.
  const auto d = random_dense(24, 18, 0.15, 555);
  const AnyMatrix dst = convert(encode(d, from), to);
  EXPECT_EQ(decode(dst).nnz(), d.nnz());
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, AnyToAny,
    ::testing::Combine(
        ::testing::Values(Format::kDense, Format::kCOO, Format::kCSR,
                          Format::kCSC, Format::kRLC, Format::kZVC,
                          Format::kBSR, Format::kDIA, Format::kELL),
        ::testing::Values(Format::kDense, Format::kCOO, Format::kCSR,
                          Format::kCSC, Format::kRLC, Format::kZVC,
                          Format::kBSR, Format::kDIA, Format::kELL)),
    [](const auto& info) {
      return std::string(name_of(std::get<0>(info.param))) + "_to_" +
             std::string(name_of(std::get<1>(info.param)));
    });

// --- Every MCF reaches COO/CSR/CSC exactly as the dense decode does ---

template <class Vec>
std::vector<std::uint32_t> value_bits(const Vec& v) {
  std::vector<std::uint32_t> out;
  out.reserve(v.size());
  for (value_t x : v) out.push_back(std::bit_cast<std::uint32_t>(x));
  return out;
}

void expect_same(const AnyMatrix& got, const AnyMatrix& want) {
  ASSERT_EQ(format_of(got), format_of(want));
  EXPECT_EQ(rows_of(got), rows_of(want));
  EXPECT_EQ(cols_of(got), cols_of(want));
  if (const auto* g = std::get_if<CooMatrix>(&got)) {
    const auto& w = std::get<CooMatrix>(want);
    EXPECT_EQ(g->row_ids(), w.row_ids());
    EXPECT_EQ(g->col_ids(), w.col_ids());
    EXPECT_EQ(value_bits(g->values()), value_bits(w.values()));
  } else if (const auto* g = std::get_if<CsrMatrix>(&got)) {
    const auto& w = std::get<CsrMatrix>(want);
    EXPECT_EQ(g->row_ptr(), w.row_ptr());
    EXPECT_EQ(g->col_ids(), w.col_ids());
    EXPECT_EQ(value_bits(g->values()), value_bits(w.values()));
  } else {
    const auto& g2 = std::get<CscMatrix>(got);
    const auto& w = std::get<CscMatrix>(want);
    EXPECT_EQ(g2.col_ptr(), w.col_ptr());
    EXPECT_EQ(g2.row_ids(), w.row_ids());
    EXPECT_EQ(value_bits(g2.values()), value_bits(w.values()));
  }
}

class McfToHub
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, double>> {};

TEST_P(McfToHub, MatchesDenseDecodeBitwise) {
  const auto [m, k, density] = GetParam();
  for (std::uint64_t seed : {11u, 12u}) {
    const auto d = random_dense(m, k, density, seed);
    for (Format from : {Format::kDense, Format::kCOO, Format::kCSR,
                        Format::kCSC, Format::kRLC, Format::kZVC,
                        Format::kBSR, Format::kDIA, Format::kELL}) {
      const AnyMatrix src = encode(d, from);
      for (Format to : {Format::kCOO, Format::kCSR, Format::kCSC}) {
        SCOPED_TRACE(std::string(name_of(from)) + "->" +
                     std::string(name_of(to)) + " seed " +
                     std::to_string(seed));
        expect_same(convert(src, to), encode(decode(src), to));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, McfToHub,
    ::testing::Values(std::tuple<index_t, index_t, double>{0, 0, 0.0},
                      std::tuple<index_t, index_t, double>{0, 7, 0.0},
                      std::tuple<index_t, index_t, double>{7, 0, 0.0},
                      std::tuple<index_t, index_t, double>{1, 130, 0.2},
                      std::tuple<index_t, index_t, double>{130, 1, 0.2},
                      std::tuple<index_t, index_t, double>{63, 65, 0.0},
                      std::tuple<index_t, index_t, double>{63, 65, 0.03},
                      std::tuple<index_t, index_t, double>{70, 129, 0.3},
                      std::tuple<index_t, index_t, double>{64, 64, 1.0}));

TEST(McfToHub, EllPaddingSlotsAreSkipped) {
  // One full row and one empty row: every other row is padded out to the
  // full width.
  auto d = random_dense(9, 37, 0.1, 21);
  for (index_t c = 0; c < 37; ++c) d.set(3, c, 1.0f + static_cast<value_t>(c));
  for (index_t c = 0; c < 37; ++c) d.set(5, c, 0.0f);
  const auto ell = EllMatrix::from_dense(d);
  ASSERT_EQ(ell.width(), 37);
  ASSERT_GT(ell.rows() * ell.width(), d.nnz());
  for (Format to : {Format::kCOO, Format::kCSR, Format::kCSC}) {
    expect_same(convert(AnyMatrix(ell), to), encode(d, to));
  }
}

TEST(CooEntries, SortsUnsortedInputLikeTheDenseScan) {
  const auto want = CooMatrix::from_dense(random_dense(45, 70, 0.1, 5));
  std::vector<std::size_t> order(static_cast<std::size_t>(want.nnz()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Prng rng(6);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  std::vector<index_t> rows, cols;
  std::vector<value_t> vals;
  for (std::size_t i : order) {
    rows.push_back(want.row_ids()[i]);
    cols.push_back(want.col_ids()[i]);
    vals.push_back(want.values()[i]);
  }
  const auto got = CooMatrix::from_entries(45, 70, rows, cols, vals);
  EXPECT_EQ(got.row_ids(), want.row_ids());
  EXPECT_EQ(got.col_ids(), want.col_ids());
  EXPECT_EQ(value_bits(got.values()), value_bits(want.values()));

  // Column-major order and back again.
  auto cm = got;
  cm.sort_col_major();
  EXPECT_FALSE(cm.is_row_major_sorted());
  for (std::int64_t i = 1; i < cm.nnz(); ++i) {
    const auto p = static_cast<std::size_t>(i);
    EXPECT_TRUE(cm.col_ids()[p - 1] < cm.col_ids()[p] ||
                (cm.col_ids()[p - 1] == cm.col_ids()[p] &&
                 cm.row_ids()[p - 1] < cm.row_ids()[p]));
  }
  cm.sort_row_major();
  EXPECT_EQ(cm.row_ids(), want.row_ids());
  EXPECT_EQ(cm.col_ids(), want.col_ids());
  EXPECT_EQ(value_bits(cm.values()), value_bits(want.values()));
}

TEST(CooEntries, RejectsBadCoordinatesSortedOrNot) {
  using V = std::vector<index_t>;
  const std::vector<value_t> three = {1.f, 2.f, 3.f};
  // Already row-major sorted.
  EXPECT_THROW(CooMatrix::from_entries(3, 3, V{0, 1, 3}, V{0, 1, 2}, three),
               std::invalid_argument);
  EXPECT_THROW(CooMatrix::from_entries(3, 3, V{0, 1, 2}, V{0, 1, 3}, three),
               std::invalid_argument);
  EXPECT_THROW(CooMatrix::from_entries(3, 3, V{-1, 1, 2}, V{0, 1, 2}, three),
               std::invalid_argument);
  EXPECT_THROW(CooMatrix::from_entries(3, 3, V{0, 1, 1}, V{0, 2, 2}, three),
               std::invalid_argument);
  // Unsorted.
  EXPECT_THROW(CooMatrix::from_entries(3, 3, V{2, 0, 3}, V{0, 1, 2}, three),
               std::invalid_argument);
  EXPECT_THROW(CooMatrix::from_entries(3, 3, V{2, 0, 1}, V{0, -1, 2}, three),
               std::invalid_argument);
  EXPECT_THROW(CooMatrix::from_entries(3, 3, V{2, 0, 2}, V{1, 1, 1}, three),
               std::invalid_argument);
  // The valid neighbours of those inputs are accepted.
  EXPECT_NO_THROW(CooMatrix::from_entries(3, 3, V{0, 1, 2}, V{0, 1, 2}, three));
  EXPECT_NO_THROW(CooMatrix::from_entries(3, 3, V{2, 0, 2}, V{1, 1, 0}, three));
}

class AnyTensorToAny
    : public ::testing::TestWithParam<std::tuple<Format, Format>> {};

TEST_P(AnyTensorToAny, ConversionPreservesContents) {
  const auto [from, to] = GetParam();
  const auto d = random_tensor(10, 8, 12, 0.06, 8844);
  const AnyTensor dst = convert(encode(d, from), to);
  EXPECT_EQ(format_of(dst), to);
  EXPECT_EQ(max_abs_diff(decode(dst), d), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, AnyTensorToAny,
    ::testing::Combine(
        ::testing::Values(Format::kDense, Format::kCOO, Format::kCSF,
                          Format::kHiCOO, Format::kZVC, Format::kRLC),
        ::testing::Values(Format::kDense, Format::kCOO, Format::kCSF,
                          Format::kHiCOO, Format::kZVC, Format::kRLC)),
    [](const auto& info) {
      return std::string(name_of(std::get<0>(info.param))) + "_to_" +
             std::string(name_of(std::get<1>(info.param)));
    });

TEST(AnyMatrix, MetadataAccessors) {
  const auto d = random_dense(12, 20, 0.2, 99);
  const AnyMatrix m = encode(d, Format::kCSR);
  EXPECT_EQ(rows_of(m), 12);
  EXPECT_EQ(cols_of(m), 20);
  EXPECT_EQ(nnz_of(m), d.nnz());
  EXPECT_EQ(storage_of(m, DataType::kFp32).total_bits(),
            CsrMatrix::from_dense(d).storage(DataType::kFp32).total_bits());
}

TEST(AnyMatrix, EncodeRejectsTensorFormats) {
  EXPECT_THROW(encode(DenseMatrix(2, 2), Format::kCSF), std::invalid_argument);
}

}  // namespace
}  // namespace mt
