// Compressed Sparse Row (CSR) matrix format.
//
// row_ptr[r]..row_ptr[r+1] delimit the nonzeros of row r in (col_id, value)
// pairs. CSR is the best MCF in the low-density band left of the paper's
// Fig. 4a first crossover, and CSR(A) is the streaming ACF of EIE-style
// accelerators (paper Fig. 6b).
#pragma once

#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "formats/coo.hpp"
#include "formats/dense.hpp"
#include "formats/storage.hpp"

namespace mt {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  static CsrMatrix from_parts(index_t rows, index_t cols,
                              std::vector<index_t> row_ptr,
                              std::vector<index_t> col_ids,
                              std::vector<value_t> values);
  // Move-in variant for producers that already build aligned storage
  // (SpGEMM assembles its output directly into an AlignedVec). A
  // distinct name, not an overload: braced-init value lists would be
  // ambiguous between the two vector types.
  static CsrMatrix from_parts_aligned(index_t rows, index_t cols,
                                      std::vector<index_t> row_ptr,
                                      std::vector<index_t> col_ids,
                                      AlignedVec<value_t> values);
  static CsrMatrix from_dense(const DenseMatrix& d);
  // Row-major sorted input is read in place; other input is copied and
  // sorted. The rvalue overload sorts in place and keeps the column ids.
  static CsrMatrix from_coo(const CooMatrix& c);
  static CsrMatrix from_coo(CooMatrix&& c);

  DenseMatrix to_dense() const;
  CooMatrix to_coo() const;

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(val_.size()); }

  const std::vector<index_t>& row_ptr() const { return row_ptr_; }
  const std::vector<index_t>& col_ids() const { return col_; }
  // 64-byte aligned (common/aligned.hpp) for the SIMD kernel tier.
  const AlignedVec<value_t>& values() const { return val_; }

  index_t row_nnz(index_t r) const { return row_ptr_[r + 1] - row_ptr_[r]; }

  StorageSize storage(DataType dt) const;

 private:
  // CSR of row-major sorted `c` whose column ids are `col_ids`.
  static CsrMatrix from_sorted_coo(const CooMatrix& c,
                                   std::vector<index_t> col_ids);

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> row_ptr_;  // rows + 1
  std::vector<index_t> col_;      // nnz, ascending within each row
  AlignedVec<value_t> val_;       // nnz
};

}  // namespace mt
