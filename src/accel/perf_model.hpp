// Analytic performance model of the weight-stationary accelerator — the
// model SAGE queries (paper §VI "Performance Modeling").
//
// Shares the exact accounting of the functional cycle simulator (bus
// packing closed forms, buffer-occupancy K-passes, one PE per output
// column, compute/stream overlap) but works on compressed operands and
// tiles over N and K. Pricing one ACF pair is linear, with no sort: one
// sweep over A for the per-pass stream stats, one over B's columns, plus
// O(tiles x K passes) bookkeeping. The operand views (MatmulOperands,
// PassStreams) cost one O(nnz + K + N) counting pass plus one A sweep per
// K-pass height and are shared by every ACF pair a search prices.
// tests/test_accel.cpp cross-checks the model cycle-for-cycle against
// simulate_ws_matmul on single-tile instances; tests/test_sage.cpp pins
// multi-tile, multi-pass results.
#pragma once

#include <vector>

#include "accel/config.hpp"
#include "accel/cycle_sim.hpp"
#include "accel/stream.hpp"
#include "energy/energy_model.hpp"
#include "formats/coo.hpp"
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
// (Dense/CSC ACF). Operands arrive as sorted COO carrying their true
// nonzero structure; the ACF decides how they are represented on the bus
// and in the buffers. Covers GEMM, SpMM and SpGEMM uniformly — what makes
// A or B "sparse" is its nnz, what makes the run efficient is the ACF.
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
// once per pair. References A (row-major sorted; a temporary does not
// compile) and is not thread-safe: one per search.
class PassStreams {
 public:
  explicit PassStreams(const CooMatrix& a);
  explicit PassStreams(CooMatrix&& a) = delete;

  const CooMatrix& a() const { return a_; }
  // Stream stats of each of the ceil(K / kt) passes of height kt; the
  // reference stays valid until the next call.
  const std::vector<PassStream>& at(index_t kt, const AccelConfig& cfg);

 private:
  struct Sweep {
    index_t kt = 0;
    index_t cap = 0;
    std::vector<PassStream> passes;
  };
  const CooMatrix& a_;
  std::vector<Sweep> sweeps_;
};

// What model_matmul reads of its operands, independent of the ACF pair:
// A itself with its pass sweeps (see PassStreams; A must outlive the
// view), A's nonzeros per K coordinate, and B's row ids grouped by column
// (ascending within each column). B's entry order does not matter.
struct MatmulOperands {
  MatmulOperands(const CooMatrix& a, const CooMatrix& b);
  MatmulOperands(CooMatrix&& a, const CooMatrix& b) = delete;

  PassStreams a_streams;
  index_t n = 0;                        // B's columns
  std::int64_t b_nnz = 0;
  std::vector<std::int64_t> a_col_nnz;  // K entries
  std::vector<index_t> b_col_ptr;       // N + 1 offsets into b_row_ids
  std::vector<index_t> b_row_ids;
};

// model_matmul on prebuilt operand views; bit-identical to the overload
// above.
PerfResult model_matmul(MatmulOperands& ops, Format acf_a, Format acf_b,
                        const AccelConfig& cfg, const EnergyParams& energy);

// SpMM fast path: B is a fully dense K x N matrix. Closed forms replace
// the per-nonzero B sweep, so a 3600x5500 dense factor (Table III's
// speech1 SpMM scenario) never needs 20M COO entries materialized.
// Matches model_matmul(a, dense_b_as_coo, ...) exactly (tested).
PerfResult model_matmul_dense_b(const CooMatrix& a, index_t n, Format acf_a,
                                Format acf_b, const AccelConfig& cfg,
                                const EnergyParams& energy);
// The same on A's shared pass sweeps; bit-identical to the overload above.
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
