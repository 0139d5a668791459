// Round-trip and structural tests for every matrix and tensor format,
// including the paper's Fig. 3 worked examples.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "convert/convert.hpp"
#include "formats/bsr.hpp"
#include "formats/coo.hpp"
#include "formats/csc.hpp"
#include "formats/csf.hpp"
#include "formats/csr.hpp"
#include "formats/dense.hpp"
#include "formats/dia.hpp"
#include "formats/hicoo.hpp"
#include "formats/rlc.hpp"
#include "formats/tensor_coo.hpp"
#include "formats/tensor_flat.hpp"
#include "formats/zvc.hpp"
#include "testing.hpp"

namespace mt {
namespace {

using testing::random_dense;
using testing::random_tensor;

// The paper's Fig. 3a example matrix:
//   a b . .
//   c d . .
//   . . e .
//   . . . f
DenseMatrix fig3_matrix() {
  DenseMatrix d(4, 4);
  d.set(0, 0, 1.0f);  // a
  d.set(0, 1, 2.0f);  // b
  d.set(1, 0, 3.0f);  // c
  d.set(1, 1, 4.0f);  // d
  d.set(2, 2, 5.0f);  // e
  d.set(3, 3, 6.0f);  // f
  return d;
}

TEST(DenseMatrix, BasicAccessors) {
  DenseMatrix d(3, 5);
  EXPECT_EQ(d.rows(), 3);
  EXPECT_EQ(d.cols(), 5);
  EXPECT_EQ(d.size(), 15);
  EXPECT_EQ(d.nnz(), 0);
  d.set(2, 4, 1.5f);
  EXPECT_EQ(d.at(2, 4), 1.5f);
  EXPECT_EQ(d.nnz(), 1);
}

TEST(DenseMatrix, StorageHasNoMetadata) {
  DenseMatrix d(7, 9);
  const auto s = d.storage(DataType::kFp32);
  EXPECT_EQ(s.data_bits, 7 * 9 * 32);
  EXPECT_EQ(s.metadata_bits, 0);
  EXPECT_EQ(d.storage(DataType::kInt8).data_bits, 7 * 9 * 8);
}

TEST(DenseMatrix, OutOfRangeThrows) {
  DenseMatrix d(2, 2);
  EXPECT_THROW(d.at(2, 0), std::invalid_argument);
  EXPECT_THROW(d.at(0, -1), std::invalid_argument);
}

TEST(CooMatrix, Fig3Example) {
  const auto c = CooMatrix::from_dense(fig3_matrix());
  EXPECT_EQ(c.nnz(), 6);
  // Row-major order: a b c d e f.
  const std::vector<index_t> rows = {0, 0, 1, 1, 2, 3};
  const std::vector<index_t> cols = {0, 1, 0, 1, 2, 3};
  EXPECT_EQ(c.row_ids(), rows);
  EXPECT_EQ(c.col_ids(), cols);
}

TEST(CooMatrix, RejectsDuplicates) {
  EXPECT_THROW(CooMatrix::from_entries(2, 2, {0, 0}, {1, 1}, {1.f, 2.f}),
               std::invalid_argument);
}

TEST(CooMatrix, RejectsOutOfRange) {
  EXPECT_THROW(CooMatrix::from_entries(2, 2, {2}, {0}, {1.f}),
               std::invalid_argument);
}

TEST(CooMatrix, SortsUnsortedEntries) {
  const auto c = CooMatrix::from_entries(3, 3, {2, 0, 1}, {1, 2, 0},
                                         {3.f, 1.f, 2.f});
  EXPECT_TRUE(c.is_row_major_sorted());
  EXPECT_EQ(c.values()[0], 1.f);
  EXPECT_EQ(c.values()[2], 3.f);
}

TEST(CooMatrix, ColMajorSort) {
  auto c = CooMatrix::from_dense(fig3_matrix());
  c.sort_col_major();
  // Column-major order: a c b d e f.
  const std::vector<value_t> want = {1.f, 3.f, 2.f, 4.f, 5.f, 6.f};
  EXPECT_EQ(c.values(), want);
}

TEST(CsrMatrix, Fig3Example) {
  const auto m = CsrMatrix::from_dense(fig3_matrix());
  const std::vector<index_t> ptr = {0, 2, 4, 5, 6};
  const std::vector<index_t> col = {0, 1, 0, 1, 2, 3};
  EXPECT_EQ(m.row_ptr(), ptr);
  EXPECT_EQ(m.col_ids(), col);
}

TEST(CscMatrix, Fig3Example) {
  const auto m = CscMatrix::from_dense(fig3_matrix());
  const std::vector<index_t> ptr = {0, 2, 4, 5, 6};
  const std::vector<index_t> row = {0, 1, 0, 1, 2, 3};
  // Column-major values: a c b d e f.
  const std::vector<value_t> val = {1.f, 3.f, 2.f, 4.f, 5.f, 6.f};
  EXPECT_EQ(m.col_ptr(), ptr);
  EXPECT_EQ(m.row_ids(), row);
  EXPECT_EQ(m.values(), val);
}

TEST(CsrMatrix, FromPartsValidates) {
  // row_ptr wrong length
  EXPECT_THROW(CsrMatrix::from_parts(2, 2, {0, 1}, {0}, {1.f}),
               std::invalid_argument);
  // col id out of range
  EXPECT_THROW(CsrMatrix::from_parts(1, 2, {0, 1}, {2}, {1.f}),
               std::invalid_argument);
  // descending cols in a row
  EXPECT_THROW(CsrMatrix::from_parts(1, 3, {0, 2}, {1, 0}, {1.f, 2.f}),
               std::invalid_argument);
}

TEST(RlcMatrix, Fig3Example) {
  // Row-major stream: a b 0 0 c d 0 0 0 0 e 0 0 0 0 f
  // -> entries (0,a)(0,b)(2,c)(0,d)(4,e)(4,f), matching the paper.
  const auto m = RlcMatrix::from_dense(fig3_matrix());
  ASSERT_EQ(m.entries().size(), 6u);
  const std::vector<std::uint32_t> runs = {0, 0, 2, 0, 4, 4};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(m.entries()[i].zero_run, runs[i]) << i;
  }
  EXPECT_EQ(m.nnz(), 6);
}

TEST(RlcMatrix, EscapeEntriesForLongRuns) {
  // 40 zeros then a nonzero with a 4-bit counter (max run 15): escapes
  // consume 16 zeros each -> entries (15,0)(15,0)(8,x).
  DenseMatrix d(1, 41);
  d.set(0, 40, 9.f);
  const auto m = RlcMatrix::from_dense(d, 4);
  ASSERT_EQ(m.entries().size(), 3u);
  EXPECT_EQ(m.entries()[0].zero_run, 15u);
  EXPECT_EQ(m.entries()[0].value, 0.0f);
  EXPECT_EQ(m.entries()[1].zero_run, 15u);
  EXPECT_EQ(m.entries()[2].zero_run, 8u);
  EXPECT_EQ(m.entries()[2].value, 9.f);
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_EQ(max_abs_diff(m.to_dense(), d), 0.0);
}

TEST(RlcMatrix, TrailingZerosImplicit) {
  DenseMatrix d(2, 8);
  d.set(0, 0, 1.f);
  const auto m = RlcMatrix::from_dense(d);
  EXPECT_EQ(m.entries().size(), 1u);
  EXPECT_EQ(max_abs_diff(m.to_dense(), d), 0.0);
}

TEST(RlcMatrix, AllZeroMatrixIsEmpty) {
  const auto m = RlcMatrix::from_dense(DenseMatrix(16, 16));
  EXPECT_TRUE(m.entries().empty());
  EXPECT_EQ(m.storage(DataType::kFp32).total_bits(), 0);
}

TEST(ZvcMatrix, Fig3Example) {
  const auto m = ZvcMatrix::from_dense(fig3_matrix());
  EXPECT_EQ(m.nnz(), 6);
  // Mask = 1100 1100 0010 0001 over the row-major stream.
  EXPECT_TRUE(m.occupied(0));
  EXPECT_TRUE(m.occupied(1));
  EXPECT_FALSE(m.occupied(2));
  EXPECT_TRUE(m.occupied(10));
  EXPECT_TRUE(m.occupied(15));
  EXPECT_EQ(m.storage(DataType::kFp32).metadata_bits, 16);
}

TEST(BsrMatrix, Fig3ExampleTwoByTwo) {
  // Fig. 3a BSR: blocks (0,0) [a b; c d], (1,1) [e 0; 0 0] is wrong — in
  // the paper's matrix e=(2,2), f=(3,3) so block row 1 holds one block
  // with e and f on its diagonal: [e 0; 0 f].
  const auto m = BsrMatrix::from_dense(fig3_matrix(), 2, 2);
  EXPECT_EQ(m.num_blocks(), 2);
  const std::vector<index_t> ptr = {0, 1, 2};
  const std::vector<index_t> col = {0, 1};
  EXPECT_EQ(m.block_row_ptr(), ptr);
  EXPECT_EQ(m.block_col_ids(), col);
  // Second block stores explicit zeros for the empty positions.
  EXPECT_EQ(m.block_values()[4], 5.f);
  EXPECT_EQ(m.block_values()[5], 0.f);
  EXPECT_EQ(m.block_values()[7], 6.f);
  EXPECT_EQ(m.nnz(), 6);
}

TEST(BsrMatrix, NonMultipleDimensionsPad) {
  auto d = random_dense(5, 7, 0.4, 101);
  const auto m = BsrMatrix::from_dense(d, 2, 2);
  EXPECT_EQ(m.block_grid_rows(), 3);
  EXPECT_EQ(m.block_grid_cols(), 4);
  EXPECT_EQ(max_abs_diff(m.to_dense(), d), 0.0);
}

TEST(DiaMatrix, TridiagonalIsThreeLanes) {
  DenseMatrix d(6, 6);
  for (index_t i = 0; i < 6; ++i) {
    d.set(i, i, 2.f);
    if (i > 0) d.set(i, i - 1, -1.f);
    if (i < 5) d.set(i, i + 1, -1.f);
  }
  const auto m = DiaMatrix::from_dense(d);
  EXPECT_EQ(m.num_diagonals(), 3);
  const std::vector<index_t> off = {-1, 0, 1};
  EXPECT_EQ(m.offsets(), off);
  EXPECT_EQ(max_abs_diff(m.to_dense(), d), 0.0);
}

TEST(DiaMatrix, PaysFullLanePerDiagonal) {
  DenseMatrix d(8, 8);
  d.set(0, 7, 1.f);  // single element on the far diagonal
  const auto m = DiaMatrix::from_dense(d);
  EXPECT_EQ(m.num_diagonals(), 1);
  EXPECT_EQ(m.storage(DataType::kFp32).data_bits, 8 * 32);
}

// --- Parameterized round-trip sweep over (rows, cols, density) ---

class MatrixRoundTrip
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, double>> {};

TEST_P(MatrixRoundTrip, AllFormatsReconstructDense) {
  const auto [rows, cols, density] = GetParam();
  const auto d = random_dense(rows, cols, density, 7777);

  EXPECT_EQ(max_abs_diff(CooMatrix::from_dense(d).to_dense(), d), 0.0);
  EXPECT_EQ(max_abs_diff(CsrMatrix::from_dense(d).to_dense(), d), 0.0);
  EXPECT_EQ(max_abs_diff(CscMatrix::from_dense(d).to_dense(), d), 0.0);
  EXPECT_EQ(max_abs_diff(RlcMatrix::from_dense(d).to_dense(), d), 0.0);
  EXPECT_EQ(max_abs_diff(ZvcMatrix::from_dense(d).to_dense(), d), 0.0);
  EXPECT_EQ(max_abs_diff(BsrMatrix::from_dense(d).to_dense(), d), 0.0);
  EXPECT_EQ(max_abs_diff(DiaMatrix::from_dense(d).to_dense(), d), 0.0);
}

TEST_P(MatrixRoundTrip, NnzPreserved) {
  const auto [rows, cols, density] = GetParam();
  const auto d = random_dense(rows, cols, density, 4242);
  const auto n = d.nnz();
  EXPECT_EQ(CooMatrix::from_dense(d).nnz(), n);
  EXPECT_EQ(CsrMatrix::from_dense(d).nnz(), n);
  EXPECT_EQ(CscMatrix::from_dense(d).nnz(), n);
  EXPECT_EQ(RlcMatrix::from_dense(d).nnz(), n);
  EXPECT_EQ(ZvcMatrix::from_dense(d).nnz(), n);
  EXPECT_EQ(BsrMatrix::from_dense(d).nnz(), n);
  EXPECT_EQ(DiaMatrix::from_dense(d).nnz(), n);
}

TEST_P(MatrixRoundTrip, CsrCooCsrStable) {
  const auto [rows, cols, density] = GetParam();
  const auto d = random_dense(rows, cols, density, 515);
  const auto csr = CsrMatrix::from_dense(d);
  const auto again = CsrMatrix::from_coo(csr.to_coo());
  EXPECT_EQ(csr.row_ptr(), again.row_ptr());
  EXPECT_EQ(csr.col_ids(), again.col_ids());
  EXPECT_EQ(csr.values(), again.values());
}

TEST_P(MatrixRoundTrip, CsrFromCooSameBitsOnEveryInputPath) {
  // from_coo reads sorted input in place, sorts a copy of unsorted input,
  // and takes over an rvalue's column ids; the COO hub hands its
  // temporary to the rvalue overload. None of that may move a bit.
  const auto [rows, cols, density] = GetParam();
  const auto d = random_dense(rows, cols, density, 919);
  std::vector<index_t> row_ptr{0}, col_ids;
  std::vector<value_t> values;
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (d.at(r, c) == 0.0f) continue;
      col_ids.push_back(c);
      values.push_back(d.at(r, c));
    }
    row_ptr.push_back(static_cast<index_t>(col_ids.size()));
  }
  const auto want = CsrMatrix::from_parts(rows, cols, row_ptr, col_ids, values);
  const auto expect_same = [&](const CsrMatrix& got) {
    EXPECT_EQ(got.rows(), rows);
    EXPECT_EQ(got.cols(), cols);
    EXPECT_EQ(got.row_ptr(), want.row_ptr());
    EXPECT_EQ(got.col_ids(), want.col_ids());
    EXPECT_EQ(got.values(), want.values());
  };

  const auto sorted = CooMatrix::from_dense(d);
  ASSERT_TRUE(sorted.is_row_major_sorted());
  auto col_major = sorted;
  col_major.sort_col_major();
  expect_same(CsrMatrix::from_coo(sorted));
  expect_same(CsrMatrix::from_coo(col_major));
  expect_same(CsrMatrix::from_coo(CooMatrix(sorted)));
  expect_same(CsrMatrix::from_coo(CooMatrix(col_major)));
  expect_same(CsrMatrix::from_dense(d));
  for (Format f : {Format::kCOO, Format::kCSC, Format::kRLC, Format::kZVC,
                   Format::kBSR, Format::kDIA, Format::kELL}) {
    SCOPED_TRACE(std::string(name_of(f)));
    expect_same(std::get<CsrMatrix>(convert(encode(d, f), Format::kCSR)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatrixRoundTrip,
    ::testing::Values(std::tuple<index_t, index_t, double>{1, 1, 1.0},
                      std::tuple<index_t, index_t, double>{4, 4, 0.4},
                      std::tuple<index_t, index_t, double>{16, 16, 0.0},
                      std::tuple<index_t, index_t, double>{16, 16, 1.0},
                      std::tuple<index_t, index_t, double>{1, 64, 0.1},
                      std::tuple<index_t, index_t, double>{64, 1, 0.1},
                      std::tuple<index_t, index_t, double>{33, 17, 0.05},
                      std::tuple<index_t, index_t, double>{17, 33, 0.5},
                      std::tuple<index_t, index_t, double>{50, 50, 0.01},
                      std::tuple<index_t, index_t, double>{128, 64, 0.002}));

// --- Tensor formats ---

// The paper's Fig. 3b example tensor (4x4x4, 6 nonzeros).
DenseTensor3 fig3_tensor() {
  DenseTensor3 t(4, 4, 4);
  t.set(0, 0, 0, 1.0f);  // a
  t.set(0, 0, 1, 2.0f);  // b
  t.set(1, 2, 2, 3.0f);  // c
  t.set(2, 1, 0, 4.0f);  // d
  t.set(2, 1, 3, 5.0f);  // e
  t.set(3, 0, 3, 6.0f);  // f
  return t;
}

TEST(CooTensor3, Fig3bExample) {
  const auto c = CooTensor3::from_dense(fig3_tensor());
  EXPECT_EQ(c.nnz(), 6);
  const std::vector<index_t> x = {0, 0, 1, 2, 2, 3};
  const std::vector<index_t> y = {0, 0, 2, 1, 1, 0};
  const std::vector<index_t> z = {0, 1, 2, 0, 3, 3};
  EXPECT_EQ(c.x_ids(), x);
  EXPECT_EQ(c.y_ids(), y);
  EXPECT_EQ(c.z_ids(), z);
}

TEST(CsfTensor3, Fig3bTreeShape) {
  const auto t = CsfTensor3::from_dense(fig3_tensor());
  // 4 distinct x slices; 4 distinct (x,y) fibers; 6 leaves.
  const std::vector<index_t> x_ids = {0, 1, 2, 3};
  EXPECT_EQ(t.x_ids(), x_ids);
  EXPECT_EQ(t.y_ids().size(), 4u);
  EXPECT_EQ(t.nnz(), 6);
  EXPECT_EQ(t.y_ptr().back(), 4);
  EXPECT_EQ(t.z_ptr().back(), 6);
}

TEST(CsfTensor3, EmptyTensor) {
  const auto t = CsfTensor3::from_dense(DenseTensor3(3, 3, 3));
  EXPECT_EQ(t.nnz(), 0);
  EXPECT_TRUE(t.x_ids().empty());
}

TEST(HicooTensor3, Fig3bBlocks) {
  const auto c = CooTensor3::from_dense(fig3_tensor());
  const auto h = HicooTensor3::from_coo(c, 2);
  // The paper's Fig. 3b HiCOO example shows 4 blocks for this tensor.
  EXPECT_EQ(h.num_blocks(), 4);
  EXPECT_EQ(h.nnz(), 6);
}

class TensorRoundTrip
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t, double>> {};

TEST_P(TensorRoundTrip, AllFormatsReconstructDense) {
  const auto [x, y, z, density] = GetParam();
  const auto d = random_tensor(x, y, z, density, 999);
  EXPECT_EQ(max_abs_diff(CooTensor3::from_dense(d).to_dense(), d), 0.0);
  EXPECT_EQ(max_abs_diff(CsfTensor3::from_dense(d).to_dense(), d), 0.0);
  EXPECT_EQ(max_abs_diff(ZvcTensor3::from_dense(d).to_dense(), d), 0.0);
  EXPECT_EQ(max_abs_diff(RlcTensor3::from_dense(d).to_dense(), d), 0.0);
  const auto coo = CooTensor3::from_dense(d);
  EXPECT_EQ(
      max_abs_diff(HicooTensor3::from_coo(coo, 2).to_coo().to_dense(), d), 0.0);
  EXPECT_EQ(
      max_abs_diff(HicooTensor3::from_coo(coo, 4).to_coo().to_dense(), d), 0.0);
}

TEST_P(TensorRoundTrip, CsfCooEquivalence) {
  const auto [x, y, z, density] = GetParam();
  const auto d = random_tensor(x, y, z, density, 321);
  const auto coo = CooTensor3::from_dense(d);
  const auto back = CsfTensor3::from_coo(coo).to_coo();
  EXPECT_EQ(coo.x_ids(), back.x_ids());
  EXPECT_EQ(coo.y_ids(), back.y_ids());
  EXPECT_EQ(coo.z_ids(), back.z_ids());
  EXPECT_EQ(coo.values(), back.values());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TensorRoundTrip,
    ::testing::Values(std::tuple<index_t, index_t, index_t, double>{4, 4, 4, 0.1},
                      std::tuple<index_t, index_t, index_t, double>{8, 8, 8, 0.0},
                      std::tuple<index_t, index_t, index_t, double>{8, 8, 8, 1.0},
                      std::tuple<index_t, index_t, index_t, double>{16, 4, 9, 0.05},
                      std::tuple<index_t, index_t, index_t, double>{3, 20, 7, 0.3},
                      std::tuple<index_t, index_t, index_t, double>{32, 32, 2, 0.02}));

// --- Storage accounting on concrete structures ---

TEST(Storage, CooExactBits) {
  const auto c = CooMatrix::from_dense(fig3_matrix());
  const auto s = c.storage(DataType::kFp32);
  // 6 values * 32 bits; ids are 2 bits each (dim 4), 6 * (2+2).
  EXPECT_EQ(s.data_bits, 6 * 32);
  EXPECT_EQ(s.metadata_bits, 6 * 4);
}

TEST(Storage, CsrExactBits) {
  const auto m = CsrMatrix::from_dense(fig3_matrix());
  const auto s = m.storage(DataType::kFp32);
  // col ids: 6 * 2 bits; row_ptr: 5 entries * bits_for(7) = 3.
  EXPECT_EQ(s.metadata_bits, 6 * 2 + 5 * 3);
}

TEST(Storage, MetadataRatioRisesAsDataShrinks) {
  const auto d = random_dense(64, 64, 0.2, 31);
  const auto csr = CsrMatrix::from_dense(d);
  const double r32 = csr.storage(DataType::kFp32).metadata_ratio();
  const double r8 = csr.storage(DataType::kInt8).metadata_ratio();
  // Paper Fig. 4a: quantization pushes the metadata share up.
  EXPECT_GT(r8, r32);
}

TEST(Storage, DenseBeatsCompressedAtFullDensity) {
  const auto d = random_dense(32, 32, 1.0, 77);
  const auto dense_bits = d.storage(DataType::kFp32).total_bits();
  EXPECT_LT(dense_bits, CsrMatrix::from_dense(d).storage(DataType::kFp32).total_bits());
  EXPECT_LT(dense_bits, CooMatrix::from_dense(d).storage(DataType::kFp32).total_bits());
  EXPECT_LT(dense_bits, ZvcMatrix::from_dense(d).storage(DataType::kFp32).total_bits());
}

TEST(Storage, CooBeatsCsrAtExtremeSparsity) {
  // nnz << rows: COO's 2 ids per nonzero beat CSR's row_ptr overhead.
  DenseMatrix d(1024, 1024);
  d.set(17, 400, 1.f);
  d.set(900, 3, 2.f);
  const auto coo_bits = CooMatrix::from_dense(d).storage(DataType::kFp32).total_bits();
  const auto csr_bits = CsrMatrix::from_dense(d).storage(DataType::kFp32).total_bits();
  EXPECT_LT(coo_bits, csr_bits);
}

}  // namespace
}  // namespace mt
