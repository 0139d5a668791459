// Dense (uncompressed) matrix, row-major.
//
// Dense is both a storage format (the trivial MCF with zero metadata) and
// the ACF used by TPU-style accelerators; it is also the interchange
// representation every compressed format can encode from / decode to,
// which the round-trip tests rely on.
#pragma once

#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "formats/storage.hpp"

namespace mt {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(index_t rows, index_t cols, value_t fill = 0.0f);

  static DenseMatrix from_values(index_t rows, index_t cols,
                                 std::vector<value_t> values);
  static DenseMatrix from_values(index_t rows, index_t cols,
                                 AlignedVec<value_t> values);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t size() const { return rows_ * cols_; }

  value_t at(index_t r, index_t c) const {
    MT_REQUIRE(r >= 0 && r < rows_ && c >= 0 && c < cols_, "index in range");
    return v_[static_cast<std::size_t>(r * cols_ + c)];
  }
  void set(index_t r, index_t c, value_t x) {
    MT_REQUIRE(r >= 0 && r < rows_ && c >= 0 && c < cols_, "index in range");
    v_[static_cast<std::size_t>(r * cols_ + c)] = x;
  }

  // Value storage is 64-byte aligned (common/aligned.hpp) so the SIMD
  // kernel tier's vector loads start on cache-line boundaries.
  const AlignedVec<value_t>& values() const { return v_; }
  AlignedVec<value_t>& values() { return v_; }

  std::int64_t nnz() const;

  StorageSize storage(DataType dt) const;

  bool operator==(const DenseMatrix&) const = default;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  AlignedVec<value_t> v_;
};

// Max |a - b| over all elements; matrices must have identical shape.
double max_abs_diff(const DenseMatrix& a, const DenseMatrix& b);

}  // namespace mt
