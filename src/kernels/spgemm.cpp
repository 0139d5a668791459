#include "kernels/spgemm.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/threads.hpp"

namespace mt {

namespace {

// Accumulator tile width for the production path: the touched slice of
// the dense accumulator (tile * 4 B) plus its occupancy bitmap stays
// within L1/L2 even when B has millions of columns. Tiling only changes
// *when* a column range is drained, never the per-cell accumulation
// order, so the result is bit-identical at any width (tests force small
// widths to prove it).
constexpr index_t kSpgemmTileCols = 16384;

}  // namespace

// Gustavson, cache-blocked, sort-free. Per output row the classic dense
// accumulator is paired with an occupancy *bitmap*; draining a tile
// sweeps the bitmap words in ascending order (countr_zero per word), so
// the sorted column ids fall out of the sweep instead of a per-row
// std::sort of the touched list — the sort was the dominant cost of the
// previous implementation, not the FLOPs. Column tiles are walked with
// per-entry resume cursors into B's rows, so every B nonzero is still
// visited exactly once per A entry regardless of the tile count.
//
// Determinism: each output row depends only on its own A row and B, per
// (r, c) accumulation follows A's row-r nonzero order on any thread
// count, and rows are concatenated in ascending order — bit-identical
// run-to-run, across thread counts, and to the pre-tiled kernel.
CsrMatrix spgemm_csr_tiled(const CsrMatrix& a, const CsrMatrix& b,
                           index_t tile_cols) {
  MT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  MT_REQUIRE(tile_cols > 0, "tile width must be positive");
  const index_t m = a.rows(), n = b.cols();
  const int nt = num_threads();
  const index_t nwords = (n + 63) / 64;

  const index_t* a_rp = a.row_ptr().data();
  const index_t* a_ci = a.col_ids().data();
  const value_t* a_v = a.values().data();
  const index_t* b_rp = b.row_ptr().data();
  const index_t* b_ci = b.col_ids().data();
  const value_t* b_v = b.values().data();

  // Contiguous row ranges per thread, stitched in row order below, so
  // the assembled output does not depend on nt. Each thread appends to
  // output buffers declared inside the region and moves them into
  // tcols/tvals once, after its last row: the vector headers in those
  // shared arrays sit side by side, so appending through them would make
  // every push_back write a cache line the other threads also write.
  std::vector<index_t> row_nnz(static_cast<std::size_t>(m), 0);
  std::vector<std::vector<index_t>> tcols(static_cast<std::size_t>(nt));
  std::vector<std::vector<value_t>> tvals(static_cast<std::size_t>(nt));
#pragma omp parallel for num_threads(nt) schedule(static, 1)
  for (int t = 0; t < nt; ++t) {
    const index_t r_lo = m * t / nt;
    const index_t r_hi = m * (t + 1) / nt;
    std::vector<index_t> out_c;
    std::vector<value_t> out_v;
    std::vector<value_t> acc(static_cast<std::size_t>(n), 0.0f);
    std::vector<std::uint64_t> occupied(static_cast<std::size_t>(nwords), 0);
    std::vector<index_t> cursor;
    for (index_t r = r_lo; r < r_hi; ++r) {
      const index_t a_lo = a_rp[r], a_hi = a_rp[r + 1];
      cursor.assign(static_cast<std::size_t>(a_hi - a_lo), 0);
      for (index_t i = a_lo; i < a_hi; ++i) {
        cursor[static_cast<std::size_t>(i - a_lo)] = b_rp[a_ci[i]];
      }
      const std::size_t row_start = out_c.size();
      for (index_t c0 = 0; c0 < n; c0 += tile_cols) {
        const index_t c_end = std::min<index_t>(n, c0 + tile_cols);
        // Scatter this row's contributions that land in [c0, c_end).
        for (index_t i = a_lo; i < a_hi; ++i) {
          const value_t av = a_v[i];
          const index_t j_hi = b_rp[a_ci[i] + 1];
          index_t j = cursor[static_cast<std::size_t>(i - a_lo)];
          for (; j < j_hi && b_ci[j] < c_end; ++j) {
            const index_t c = b_ci[j];
            acc[static_cast<std::size_t>(c)] += av * b_v[j];
            occupied[static_cast<std::size_t>(c >> 6)] |=
                std::uint64_t{1} << (c & 63);
          }
          cursor[static_cast<std::size_t>(i - a_lo)] = j;
        }
        // Drain the tile: sweeping words (then bits) in ascending order
        // yields sorted column ids for free. A word straddling c_end is
        // safe to drain whole — bits >= c_end cannot be set yet, and the
        // next tile re-sweeps the word.
        for (index_t w = c0 >> 6; w < (c_end + 63) >> 6; ++w) {
          std::uint64_t bits = occupied[static_cast<std::size_t>(w)];
          occupied[static_cast<std::size_t>(w)] = 0;
          while (bits != 0) {
            const index_t c = (w << 6) + std::countr_zero(bits);
            bits &= bits - 1;
            const value_t x = acc[static_cast<std::size_t>(c)];
            acc[static_cast<std::size_t>(c)] = 0.0f;
            // Numerical cancellation can produce exact zeros; keep them
            // out of the compressed output so nnz reflects stored values.
            if (x != 0.0f) {
              out_c.push_back(c);
              out_v.push_back(x);
            }
          }
        }
      }
      row_nnz[static_cast<std::size_t>(r)] =
          static_cast<index_t>(out_c.size() - row_start);
    }
    tcols[static_cast<std::size_t>(t)] = std::move(out_c);
    tvals[static_cast<std::size_t>(t)] = std::move(out_v);
  }

  std::vector<index_t> row_ptr(static_cast<std::size_t>(m) + 1, 0);
  for (index_t r = 0; r < m; ++r) {
    row_ptr[static_cast<std::size_t>(r) + 1] =
        row_ptr[static_cast<std::size_t>(r)] +
        row_nnz[static_cast<std::size_t>(r)];
  }
  const auto total = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(m)]);
  std::vector<index_t> col_ids(total);
  AlignedVec<value_t> values(total);
  for (int t = 0; t < nt; ++t) {
    const index_t r_lo = m * t / nt;
    const auto off = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(r_lo)]);
    const auto& src_c = tcols[static_cast<std::size_t>(t)];
    const auto& src_v = tvals[static_cast<std::size_t>(t)];
    std::copy(src_c.begin(), src_c.end(), col_ids.begin() + static_cast<std::ptrdiff_t>(off));
    std::copy(src_v.begin(), src_v.end(), values.begin() + static_cast<std::ptrdiff_t>(off));
  }
  return CsrMatrix::from_parts_aligned(m, n, std::move(row_ptr),
                                       std::move(col_ids), std::move(values));
}

CsrMatrix spgemm_csr(const CsrMatrix& a, const CsrMatrix& b) {
  return spgemm_csr_tiled(a, b, kSpgemmTileCols);
}

}  // namespace mt
