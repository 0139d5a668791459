#include "formats/dense.hpp"

#include <algorithm>
#include <cmath>

namespace mt {

DenseMatrix::DenseMatrix(index_t rows, index_t cols, value_t fill)
    : rows_(rows), cols_(cols),
      v_(static_cast<std::size_t>(rows * cols), fill) {
  MT_REQUIRE(rows >= 0 && cols >= 0, "non-negative dimensions");
}

DenseMatrix DenseMatrix::from_values(index_t rows, index_t cols,
                                     std::vector<value_t> values) {
  MT_REQUIRE(static_cast<index_t>(values.size()) == rows * cols,
             "value count must equal rows*cols");
  DenseMatrix d(rows, cols);
  d.v_.assign(values.begin(), values.end());
  return d;
}

DenseMatrix DenseMatrix::from_values(index_t rows, index_t cols,
                                     AlignedVec<value_t> values) {
  MT_REQUIRE(static_cast<index_t>(values.size()) == rows * cols,
             "value count must equal rows*cols");
  DenseMatrix d(rows, cols);
  d.v_ = std::move(values);
  return d;
}

std::int64_t DenseMatrix::nnz() const {
  return std::count_if(v_.begin(), v_.end(),
                       [](value_t x) { return x != 0.0f; });
}

StorageSize DenseMatrix::storage(DataType dt) const {
  return {rows_ * cols_ * bits_of(dt), 0};
}

double max_abs_diff(const DenseMatrix& a, const DenseMatrix& b) {
  MT_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
             "shape mismatch in max_abs_diff");
  double m = 0.0;
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a.values()[i]) -
                             static_cast<double>(b.values()[i])));
  }
  return m;
}

}  // namespace mt
