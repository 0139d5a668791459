#include "formats/coo.hpp"

#include <numeric>

#include "common/bitutil.hpp"
#include "common/error.hpp"

namespace mt {

namespace {
// One stable counting-sort pass of the three parallel arrays keyed by
// `key` (the row or the column array), whose values lie in [0, buckets).
// O(n + buckets); two passes, minor key first, give a lexicographic order.
void counting_pass(const std::vector<index_t>& key, index_t buckets,
                   std::vector<index_t>& r, std::vector<index_t>& c,
                   std::vector<value_t>& v) {
  std::vector<std::size_t> next(static_cast<std::size_t>(buckets) + 1, 0);
  for (index_t x : key) ++next[static_cast<std::size_t>(x) + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  std::vector<index_t> r2(r.size()), c2(c.size());
  std::vector<value_t> v2(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::size_t dst = next[static_cast<std::size_t>(key[i])]++;
    r2[dst] = r[i];
    c2[dst] = c[i];
    v2[dst] = v[i];
  }
  r = std::move(r2);
  c = std::move(c2);
  v = std::move(v2);
}
}  // namespace

CooMatrix CooMatrix::from_entries(index_t rows, index_t cols,
                                  std::vector<index_t> row_ids,
                                  std::vector<index_t> col_ids,
                                  std::vector<value_t> values) {
  MT_REQUIRE(rows >= 0 && cols >= 0, "non-negative dimensions");
  MT_REQUIRE(row_ids.size() == col_ids.size() && col_ids.size() == values.size(),
             "parallel arrays must have equal length");
  CooMatrix c;
  c.rows_ = rows;
  c.cols_ = cols;
  c.row_ = std::move(row_ids);
  c.col_ = std::move(col_ids);
  c.val_ = std::move(values);
  for (std::size_t i = 0; i < c.val_.size(); ++i) {
    MT_REQUIRE(c.row_[i] >= 0 && c.row_[i] < rows && c.col_[i] >= 0 &&
                   c.col_[i] < cols,
               "COO coordinate out of range");
  }
  c.row_major_ = c.scan_row_major();
  c.sort_row_major();  // a no-op when the input is already sorted
  for (std::size_t i = 1; i < c.val_.size(); ++i) {
    MT_REQUIRE(c.row_[i] != c.row_[i - 1] || c.col_[i] != c.col_[i - 1],
               "duplicate COO coordinate");
  }
  return c;
}

CooMatrix CooMatrix::from_dense(const DenseMatrix& d) {
  CooMatrix c;
  c.rows_ = d.rows();
  c.cols_ = d.cols();
  for (index_t r = 0; r < d.rows(); ++r) {
    for (index_t k = 0; k < d.cols(); ++k) {
      const value_t x = d.at(r, k);
      if (x != 0.0f) {
        c.row_.push_back(r);
        c.col_.push_back(k);
        c.val_.push_back(x);
      }
    }
  }
  return c;
}

DenseMatrix CooMatrix::to_dense() const {
  DenseMatrix d(rows_, cols_);
  for (std::size_t i = 0; i < val_.size(); ++i) d.set(row_[i], col_[i], val_[i]);
  return d;
}

void CooMatrix::sort_row_major() {
  if (row_major_) return;
  counting_pass(col_, cols_, row_, col_, val_);
  counting_pass(row_, rows_, row_, col_, val_);
  row_major_ = true;  // coordinates are unique
}

void CooMatrix::sort_col_major() {
  // Stable by column: a row-major input already has its rows ascending
  // within every column, so one pass suffices.
  if (!row_major_) counting_pass(row_, rows_, row_, col_, val_);
  counting_pass(col_, cols_, row_, col_, val_);
  row_major_ = scan_row_major();  // e.g. a diagonal is sorted both ways
}

bool CooMatrix::scan_row_major() const {
  for (std::size_t i = 1; i < val_.size(); ++i) {
    if (row_[i] < row_[i - 1] ||
        (row_[i] == row_[i - 1] && col_[i] <= col_[i - 1])) {
      return false;
    }
  }
  return true;
}

StorageSize CooMatrix::storage(DataType dt) const {
  const std::int64_t n = nnz();
  return {n * bits_of(dt), n * (bits_for(static_cast<std::uint64_t>(rows_)) +
                                bits_for(static_cast<std::uint64_t>(cols_)))};
}

}  // namespace mt
