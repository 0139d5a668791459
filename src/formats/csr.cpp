#include "formats/csr.hpp"

#include "common/bitutil.hpp"
#include "common/error.hpp"

namespace mt {

CsrMatrix CsrMatrix::from_parts(index_t rows, index_t cols,
                                std::vector<index_t> row_ptr,
                                std::vector<index_t> col_ids,
                                std::vector<value_t> values) {
  return from_parts_aligned(rows, cols, std::move(row_ptr),
                            std::move(col_ids),
                            AlignedVec<value_t>(values.begin(), values.end()));
}

CsrMatrix CsrMatrix::from_parts_aligned(index_t rows, index_t cols,
                                        std::vector<index_t> row_ptr,
                                        std::vector<index_t> col_ids,
                                        AlignedVec<value_t> values) {
  MT_REQUIRE(static_cast<index_t>(row_ptr.size()) == rows + 1,
             "row_ptr must have rows+1 entries");
  MT_REQUIRE(col_ids.size() == values.size(), "col_ids/values length mismatch");
  MT_REQUIRE(row_ptr.front() == 0 &&
                 row_ptr.back() == static_cast<index_t>(values.size()),
             "row_ptr must span [0, nnz]");
  for (index_t r = 0; r < rows; ++r) {
    MT_REQUIRE(row_ptr[r] <= row_ptr[r + 1], "row_ptr must be non-decreasing");
    for (index_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      MT_REQUIRE(col_ids[i] >= 0 && col_ids[i] < cols, "col_id out of range");
      MT_REQUIRE(i == row_ptr[r] || col_ids[i - 1] < col_ids[i],
                 "col_ids ascending within a row");
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_ = std::move(col_ids);
  m.val_ = std::move(values);
  return m;
}

CsrMatrix CsrMatrix::from_dense(const DenseMatrix& d) {
  return from_coo(CooMatrix::from_dense(d));
}

CsrMatrix CsrMatrix::from_coo(const CooMatrix& c) {
  if (!c.is_row_major_sorted()) return from_coo(CooMatrix(c));
  return from_sorted_coo(c, c.col_ids());
}

CsrMatrix CsrMatrix::from_coo(CooMatrix&& c) {
  if (!c.is_row_major_sorted()) c.sort_row_major();
  return from_sorted_coo(c, std::move(c.col_));
}

CsrMatrix CsrMatrix::from_sorted_coo(const CooMatrix& c,
                                     std::vector<index_t> col_ids) {
  CsrMatrix m;
  m.rows_ = c.rows();
  m.cols_ = c.cols();
  m.row_ptr_.assign(static_cast<std::size_t>(m.rows_) + 1, 0);
  m.col_ = std::move(col_ids);
  m.val_.assign(c.values().begin(), c.values().end());
  for (index_t r : c.row_ids()) ++m.row_ptr_[static_cast<std::size_t>(r) + 1];
  for (index_t r = 0; r < m.rows_; ++r) {
    m.row_ptr_[static_cast<std::size_t>(r) + 1] += m.row_ptr_[static_cast<std::size_t>(r)];
  }
  return m;
}

DenseMatrix CsrMatrix::to_dense() const {
  DenseMatrix d(rows_, cols_);
  for (index_t r = 0; r < rows_; ++r) {
    for (index_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      d.set(r, col_[i], val_[i]);
    }
  }
  return d;
}

CooMatrix CsrMatrix::to_coo() const {
  std::vector<index_t> rows(val_.size());
  for (index_t r = 0; r < rows_; ++r) {
    for (index_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) rows[i] = r;
  }
  return CooMatrix::from_entries(rows_, cols_, std::move(rows), col_,
                                 std::vector<value_t>(val_.begin(), val_.end()));
}

StorageSize CsrMatrix::storage(DataType dt) const {
  const std::int64_t n = nnz();
  const std::int64_t meta =
      n * bits_for(static_cast<std::uint64_t>(cols_)) +
      (rows_ + 1) * bits_for(static_cast<std::uint64_t>(n) + 1);
  return {n * bits_of(dt), meta};
}

}  // namespace mt
