// Analytic performance model of the weight-stationary accelerator — the
// model SAGE queries (paper §VI "Performance Modeling").
//
// Shares the exact accounting of the functional cycle simulator (bus
// packing closed forms, buffer-occupancy K-passes, one PE per output
// column, compute/stream overlap) but works on compressed operands and
// tiles over N and K. The cores read CSR operands, the representation the
// host runs: row segments come straight from row_ptr, and B's grouping by
// column is one counting pass over its rows. The operand views
// (MatmulOperands, PassStreams) are shared by every ACF pair a search
// prices and memoize each distinct sweep: one A sweep per K-pass height,
// one B sweep per CSC pass height, and none at all for a Dense B, whose
// useful MACs are an operand constant. The COO overloads convert once
// (CsrMatrix::from_coo) and call the cores. tests/test_accel.cpp
// cross-checks the model cycle-for-cycle against simulate_ws_matmul on
// single-tile instances; tests/test_sage.cpp pins multi-tile, multi-pass
// results and the CSR/COO equivalence.
#pragma once

#include <vector>

#include "accel/config.hpp"
#include "accel/cycle_sim.hpp"
#include "accel/stream.hpp"
#include "energy/energy_model.hpp"
#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "formats/tensor_coo.hpp"

namespace mt {

struct PerfResult {
  SimPhases phases;
  std::int64_t performed_macs = 0;
  std::int64_t useful_macs = 0;
  std::int64_t streamed_elems = 0;  // payload elements over all passes
  std::int64_t n_tiles = 0;         // output-column tiles
  std::int64_t k_passes = 0;        // stationary reload passes per tile
  double bus_occupancy = 0.0;
  double pe_utilization = 0.0;
  double compute_energy_j = 0.0;    // on-chip: MACs + buffers + bus

  std::int64_t total_cycles() const { return phases.total_cycles(); }
};

// O = A * B with A streamed (Dense/CSR/COO ACF) and B stationary
// (Dense/CSC ACF). Operands carry their true nonzero structure; the ACF
// decides how they are represented on the bus and in the buffers. Covers
// GEMM, SpMM and SpGEMM uniformly — what makes A or B "sparse" is its
// nnz, what makes the run efficient is the ACF.
PerfResult model_matmul(const CsrMatrix& a, const CsrMatrix& b, Format acf_a,
                        Format acf_b, const AccelConfig& cfg,
                        const EnergyParams& energy);
// The same on COO operands in any entry order; bit-identical.
PerfResult model_matmul(const CooMatrix& a, const CooMatrix& b, Format acf_a,
                        Format acf_b, const AccelConfig& cfg,
                        const EnergyParams& energy);

// A's stream statistics in one K pass.
struct PassStream {
  std::int64_t cycles = 0;        // CSR packet count (row-break rule)
  std::int64_t elems = 0;         // nonzeros streamed
  std::int64_t rows_touched = 0;  // distinct rows
};

// A's per-K-pass stream sweep, kept per pass height. Every streaming ACF
// reads the same sweep (only CSR reads the packet count), so a search
// that prices all ACF pairs sweeps A once per distinct height instead of
// once per pair. References A (a temporary does not compile) and is not
// thread-safe: one per search.
class PassStreams {
 public:
  explicit PassStreams(const CsrMatrix& a) : a_(a) {}
  explicit PassStreams(CsrMatrix&& a) = delete;

  const CsrMatrix& a() const { return a_; }
  // Stream stats of each of the ceil(K / kt) passes of height kt; the
  // reference stays valid until the next call.
  const std::vector<PassStream>& at(index_t kt, const AccelConfig& cfg);

 private:
  struct Sweep {
    index_t kt = 0;
    index_t cap = 0;
    std::vector<PassStream> passes;
  };
  const CsrMatrix& a_;
  std::vector<Sweep> sweeps_;
};

// What a CSC-stationary B loads in one (tile, K pass): its nonzeros there
// and, over the tile's PEs, the largest per-PE nonzero count and the
// largest per-PE sum of A's matching nonzeros. A Dense-ACF A MACs every
// row per B nonzero (rows x max_pe_nnz); a compressed A MACs only its
// matches (max_pe_useful).
struct CscPassLoad {
  std::int64_t load_elems = 0;  // two buffer elements per nonzero
  std::int64_t max_pe_nnz = 0;
  std::int64_t max_pe_useful = 0;
};

// What model_matmul reads of its operands, independent of the ACF pair:
// A itself with its pass sweeps (see PassStreams; A must outlive the
// view), A's nonzeros per K coordinate, B's row ids grouped by column
// (ascending within each column), the useful MACs of the product, and
// B's CSC loads per (tile, K pass), swept once per pass height and PE
// count. Not thread-safe: one per search.
struct MatmulOperands {
  MatmulOperands(const CsrMatrix& a, const CsrMatrix& b);
  MatmulOperands(CsrMatrix&& a, const CsrMatrix& b) = delete;

  // [tile * ceil(K / kt) + pass]; the reference stays valid until the
  // next call.
  const std::vector<CscPassLoad>& csc_loads(index_t kt, index_t num_pes);

  PassStreams a_streams;
  index_t n = 0;                        // B's columns
  std::int64_t b_nnz = 0;
  std::int64_t useful_macs = 0;         // sum over B's (k, j) of A's col-k nnz
  std::vector<std::int64_t> a_col_nnz;  // K entries
  std::vector<index_t> b_col_ptr;       // N + 1 offsets into b_row_ids
  std::vector<index_t> b_row_ids;

 private:
  struct CscSweep {
    index_t kt = 0;
    index_t num_pes = 0;
    std::vector<CscPassLoad> loads;
  };
  std::vector<CscSweep> csc_sweeps_;
};

// model_matmul on prebuilt operand views; bit-identical to the overloads
// above.
PerfResult model_matmul(MatmulOperands& ops, Format acf_a, Format acf_b,
                        const AccelConfig& cfg, const EnergyParams& energy);

// SpMM fast path: B is a fully dense K x N matrix. Closed forms replace
// the per-nonzero B sweep, so a 3600x5500 dense factor (Table III's
// speech1 SpMM scenario) never needs 20M COO entries materialized.
// Matches model_matmul(a, dense_b, ...) exactly (tested).
PerfResult model_matmul_dense_b(const CsrMatrix& a, index_t n, Format acf_a,
                                Format acf_b, const AccelConfig& cfg,
                                const EnergyParams& energy);
// The same on COO A in any entry order; bit-identical.
PerfResult model_matmul_dense_b(const CooMatrix& a, index_t n, Format acf_a,
                                Format acf_b, const AccelConfig& cfg,
                                const EnergyParams& energy);
// The same on A's shared pass sweeps; bit-identical.
PerfResult model_matmul_dense_b(PassStreams& a, index_t n, Format acf_a,
                                Format acf_b, const AccelConfig& cfg,
                                const EnergyParams& energy);

// Mode-3 SpTTM: Y(i,j,l) = sum_k X(i,j,k) U(k,l), U dense Z x R.
// acf_t in {Dense, COO, CSF} decides the tensor's bus representation.
PerfResult model_spttm(const CooTensor3& x, index_t r, Format acf_t,
                       const AccelConfig& cfg, const EnergyParams& energy);

// MTTKRP: M(i,r) = sum_{j,k} X(i,j,k) B(j,r) C(k,r), B/C dense.
PerfResult model_mttkrp(const CooTensor3& x, index_t r, Format acf_t,
                        const AccelConfig& cfg, const EnergyParams& energy);

// Bus cost of streaming a 3-D tensor under a tensor ACF; exposed for tests.
std::int64_t tensor_stream_cycles(const CooTensor3& x, Format acf_t,
                                  const AccelConfig& cfg);

}  // namespace mt
