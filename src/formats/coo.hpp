// Coordinate (COO) matrix format.
//
// Stores each nonzero as (row_id, col_id, value). COO is the most compact
// MCF at extreme sparsity (paper Fig. 4b) and the hub representation for
// general format conversion (paper §V-B: "COO enables fast translation to
// other formats").
#pragma once

#include <vector>

#include "common/types.hpp"
#include "formats/dense.hpp"
#include "formats/storage.hpp"

namespace mt {

class CooMatrix {
 public:
  CooMatrix() = default;

  // Entries may arrive unsorted; they are sorted row-major (input that is
  // already sorted is only scanned) and always validated (in-range, no
  // duplicates).
  static CooMatrix from_entries(index_t rows, index_t cols,
                                std::vector<index_t> row_ids,
                                std::vector<index_t> col_ids,
                                std::vector<value_t> values);
  static CooMatrix from_dense(const DenseMatrix& d);

  DenseMatrix to_dense() const;

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  std::int64_t nnz() const { return static_cast<std::int64_t>(val_.size()); }

  const std::vector<index_t>& row_ids() const { return row_; }
  const std::vector<index_t>& col_ids() const { return col_; }
  const std::vector<value_t>& values() const { return val_; }

  // Re-sorts entries column-major (col, then row) or row-major, by stable
  // counting sort: O(nnz + rows + cols).
  void sort_col_major();
  void sort_row_major();
  // Strictly ascending (row, col) order. O(1): every constructor and sort
  // records it, and entries cannot change otherwise.
  bool is_row_major_sorted() const { return row_major_; }

  StorageSize storage(DataType dt) const;

 private:
  // CsrMatrix::from_coo(CooMatrix&&) takes over the column ids.
  friend class CsrMatrix;

  // Scans the entries for strictly ascending (row, col) order.
  bool scan_row_major() const;

  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> row_, col_;
  std::vector<value_t> val_;
  bool row_major_ = true;
};

}  // namespace mt
