#include <algorithm>

#include "common/bitutil.hpp"
#include "common/error.hpp"
#include "convert/convert.hpp"

namespace mt {

CscMatrix csr_to_csc(const CsrMatrix& a) {
  const std::int64_t n = a.nnz();
  // Histogram of column ids (MINT's cluster counter, Fig. 8c step 3).
  std::vector<index_t> col_ptr(static_cast<std::size_t>(a.cols()) + 1, 0);
  for (index_t c : a.col_ids()) ++col_ptr[static_cast<std::size_t>(c) + 1];
  // Prefix sum (Fig. 8c step 5).
  for (index_t c = 0; c < a.cols(); ++c) {
    col_ptr[static_cast<std::size_t>(c) + 1] += col_ptr[static_cast<std::size_t>(c)];
  }
  // Scatter with a per-column write cursor (Fig. 8c steps 6-9). Iterating
  // rows in order makes row ids ascending within each column.
  std::vector<index_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
  std::vector<index_t> row_ids(static_cast<std::size_t>(n));
  std::vector<value_t> values(static_cast<std::size_t>(n));
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      const index_t dst = cursor[static_cast<std::size_t>(a.col_ids()[i])]++;
      row_ids[static_cast<std::size_t>(dst)] = r;
      values[static_cast<std::size_t>(dst)] = a.values()[i];
    }
  }
  return CscMatrix::from_parts(a.rows(), a.cols(), std::move(col_ptr),
                               std::move(row_ids), std::move(values));
}

CsrMatrix csc_to_csr(const CscMatrix& a) {
  std::vector<index_t> row_ptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  for (index_t r : a.row_ids()) ++row_ptr[static_cast<std::size_t>(r) + 1];
  for (index_t r = 0; r < a.rows(); ++r) {
    row_ptr[static_cast<std::size_t>(r) + 1] += row_ptr[static_cast<std::size_t>(r)];
  }
  std::vector<index_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  std::vector<index_t> col_ids(static_cast<std::size_t>(a.nnz()));
  std::vector<value_t> values(static_cast<std::size_t>(a.nnz()));
  for (index_t c = 0; c < a.cols(); ++c) {
    for (index_t i = a.col_ptr()[c]; i < a.col_ptr()[c + 1]; ++i) {
      const index_t dst = cursor[static_cast<std::size_t>(a.row_ids()[i])]++;
      col_ids[static_cast<std::size_t>(dst)] = c;
      values[static_cast<std::size_t>(dst)] = a.values()[i];
    }
  }
  return CsrMatrix::from_parts(a.rows(), a.cols(), std::move(row_ptr),
                               std::move(col_ids), std::move(values));
}

CooMatrix rlc_to_coo(const RlcMatrix& a) {
  // Running linear position = prefix sum of (zero_run + 1) (Fig. 8d step
  // 2-3); row/col recovered by dividing/modding by the K dimension
  // (Fig. 8d step 4). Escape entries advance the position but emit nothing.
  std::vector<index_t> rows, cols;
  std::vector<value_t> vals;
  rows.reserve(a.entries().size());
  index_t pos = -1;
  for (const RlcEntry& e : a.entries()) {
    pos += static_cast<index_t>(e.zero_run) + 1;
    if (e.value == 0.0f) continue;
    rows.push_back(pos / a.cols());
    cols.push_back(pos % a.cols());
    vals.push_back(e.value);
  }
  return CooMatrix::from_entries(a.rows(), a.cols(), std::move(rows),
                                 std::move(cols), std::move(vals));
}

RlcMatrix coo_to_rlc(const CooMatrix& a, int run_bits) {
  MT_REQUIRE(a.is_row_major_sorted(), "COO must be row-major sorted");
  // RlcMatrix can only be built by its dense encoder: stage through one.
  return RlcMatrix::from_dense(a.to_dense(), run_bits);
}

BsrMatrix csr_to_bsr(const CsrMatrix& a, index_t block_rows,
                     index_t block_cols) {
  MT_REQUIRE(block_rows > 0 && block_cols > 0, "positive block dims");
  const index_t grid_rows = ceil_div(a.rows(), block_rows);
  const index_t grid_cols = ceil_div(a.cols(), block_cols);
  std::vector<index_t> block_row_ptr{0};
  std::vector<index_t> block_col_ids;
  std::vector<value_t> block_values;
  // Per row block: find the set of touched block columns (MINT uses mods +
  // comparators + register flags, Fig. 8e step 2), then fill each block's
  // br*bc region with values or explicit zeros.
  std::vector<index_t> touched(static_cast<std::size_t>(grid_cols), 0);
  for (index_t gr = 0; gr < grid_rows; ++gr) {
    std::fill(touched.begin(), touched.end(), 0);
    const index_t r_lo = gr * block_rows;
    const index_t r_hi = std::min(r_lo + block_rows, a.rows());
    for (index_t r = r_lo; r < r_hi; ++r) {
      for (index_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
        touched[static_cast<std::size_t>(a.col_ids()[i] / block_cols)] = 1;
      }
    }
    const index_t first_block = static_cast<index_t>(block_col_ids.size());
    for (index_t gc = 0; gc < grid_cols; ++gc) {
      if (touched[static_cast<std::size_t>(gc)]) block_col_ids.push_back(gc);
    }
    const index_t nb_row = static_cast<index_t>(block_col_ids.size()) - first_block;
    block_values.resize(block_values.size() +
                        static_cast<std::size_t>(nb_row * block_rows * block_cols),
                        0.0f);
    // Map block col -> slot within this row block for scatter.
    std::vector<index_t> slot(static_cast<std::size_t>(grid_cols), -1);
    for (index_t b = first_block; b < first_block + nb_row; ++b) {
      slot[static_cast<std::size_t>(block_col_ids[b])] = b;
    }
    for (index_t r = r_lo; r < r_hi; ++r) {
      for (index_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
        const index_t c = a.col_ids()[i];
        const index_t b = slot[static_cast<std::size_t>(c / block_cols)];
        const index_t within =
            (b * block_rows + (r - r_lo)) * block_cols + (c % block_cols);
        block_values[static_cast<std::size_t>(within)] = a.values()[i];
      }
    }
    block_row_ptr.push_back(static_cast<index_t>(block_col_ids.size()));
  }
  return BsrMatrix::from_parts(a.rows(), a.cols(), block_rows, block_cols,
                               std::move(block_row_ptr),
                               std::move(block_col_ids),
                               std::move(block_values));
}

CsrMatrix bsr_to_csr(const BsrMatrix& a) {
  std::vector<index_t> rows, cols;
  std::vector<value_t> vals;
  const index_t grid_rows = a.block_grid_rows();
  for (index_t gr = 0; gr < grid_rows; ++gr) {
    for (index_t b = a.block_row_ptr()[gr]; b < a.block_row_ptr()[gr + 1]; ++b) {
      for (index_t br = 0; br < a.block_rows(); ++br) {
        for (index_t bc = 0; bc < a.block_cols(); ++bc) {
          const value_t x = a.block_values()[static_cast<std::size_t>(
              (b * a.block_rows() + br) * a.block_cols() + bc)];
          if (x == 0.0f) continue;  // drop fill zeros
          rows.push_back(gr * a.block_rows() + br);
          cols.push_back(a.block_col_ids()[b] * a.block_cols() + bc);
          vals.push_back(x);
        }
      }
    }
  }
  return CsrMatrix::from_coo(CooMatrix::from_entries(
      a.rows(), a.cols(), std::move(rows), std::move(cols), std::move(vals)));
}

CsfTensor3 dense_to_csf(const DenseTensor3& a) { return CsfTensor3::from_dense(a); }
ZvcMatrix dense_to_zvc(const DenseMatrix& a) { return ZvcMatrix::from_dense(a); }
DenseMatrix zvc_to_dense(const ZvcMatrix& a) { return a.to_dense(); }
CsrMatrix dense_to_csr(const DenseMatrix& a) { return CsrMatrix::from_dense(a); }
DenseMatrix csr_to_dense(const CsrMatrix& a) { return a.to_dense(); }

}  // namespace mt
