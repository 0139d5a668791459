// SAGE: the format search must (1) be optimal within its space, (2)
// reproduce the qualitative selections of Table III, and (3) dominate
// every constrained baseline by construction — the inequality behind
// Fig. 12/13.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "convert/convert.hpp"
#include "sage/sage.hpp"
#include "workloads/registry.hpp"
#include "workloads/structured.hpp"
#include "workloads/synth.hpp"

namespace mt {
namespace {

AccelConfig test_cfg() {
  // A scaled-down array keeps the test-suite fast while preserving every
  // model mechanism (tiling, buffer pressure, bus packing).
  AccelConfig cfg;
  cfg.num_pes = 256;
  cfg.vector_width = 8;
  cfg.pe_buffer_bytes = 512;
  cfg.bus_bits = 512;
  return cfg;
}

struct MM {
  CooMatrix a, b;
};

// SpGEMM-style pair: B is K x (M/2) at the same density as A.
MM spgemm_pair(index_t m, index_t k, std::int64_t nnz, std::uint64_t seed) {
  const auto b_nnz = static_cast<std::int64_t>(
      static_cast<double>(nnz) / static_cast<double>(m * k) *
      static_cast<double>(k * factor_cols(m)));
  return {synth_coo_matrix(m, k, nnz, seed),
          synth_coo_matrix(k, factor_cols(m), std::max<std::int64_t>(1, b_nnz),
                           seed + 1)};
}

// SpMM-style pair: B dense.
MM spmm_pair(index_t m, index_t k, std::int64_t nnz, std::uint64_t seed) {
  const index_t n = factor_cols(m);
  return {synth_coo_matrix(m, k, nnz, seed),
          synth_coo_matrix(k, n, k * n, seed + 1)};
}

TEST(Sage, PicksTheEdpMinimumOfItsSpace) {
  const auto cfg = test_cfg();
  const EnergyParams e;
  const auto mm = spgemm_pair(256, 256, 6000, 11);
  const auto best = sage_select_matmul(mm.a, mm.b, cfg, e);
  // Exhaustive re-check: no combination in the full space beats it.
  const auto space = FormatSpace::full();
  for (Format ma : space.mcf_a) {
    for (Format mb : space.mcf_b) {
      for (Format aa : space.acf_a) {
        for (Format ab : space.acf_b) {
          const auto c = price_matmul_combination(
              mm.a, mm.b, ma, mb, aa, ab, best.mcf_o, ConverterKind::kMint,
              cfg, e);
          EXPECT_GE(c.edp(e) * (1 + 1e-12), best.edp)
              << name_of(ma) << "/" << name_of(mb) << " " << name_of(aa)
              << "/" << name_of(ab);
        }
      }
    }
  }
}

TEST(Sage, DenseWorkloadPrefersDenseAcf) {
  // journal-like: 78.5% dense. Compressed ACFs waste bus slots on
  // metadata; Table III row 1 picks Dense-Dense ACF.
  const auto cfg = test_cfg();
  const EnergyParams e;
  const auto a = synth_coo_matrix(124, 124, 12000, 21);
  const auto b = synth_coo_matrix(124, 62, 6000, 22);
  const auto best = sage_select_matmul(a, b, cfg, e);
  EXPECT_EQ(best.acf_a, Format::kDense);
  EXPECT_EQ(best.acf_b, Format::kDense);
  // and a compact MCF (ZVC at this density, per Table III).
  EXPECT_EQ(best.mcf_a, Format::kZVC);
}

TEST(Sage, ExtremelySparseWorkloadPrefersCompressedAcf) {
  // m3plates-like: 5.4e-5 density. Any dense format on A wastes nearly
  // every bus slot and MAC; Table III row 10 picks COO MCF + CSR ACF.
  const auto cfg = test_cfg();
  const EnergyParams e;
  const auto mm = spgemm_pair(1100, 1100, 66, 31);
  const auto best = sage_select_matmul(mm.a, mm.b, cfg, e);
  EXPECT_NE(best.acf_a, Format::kDense);
  EXPECT_EQ(best.mcf_a, Format::kCOO);
}

TEST(Sage, MidDensityPrefersRlcOrZvcStorage) {
  // speech-like: 5-10% density — Table III stores these in RLC.
  const auto cfg = test_cfg();
  const EnergyParams e;
  const auto mm = spmm_pair(770, 260, 10'010, 41);  // 5% density
  const auto best = sage_select_matmul(mm.a, mm.b, cfg, e);
  EXPECT_TRUE(best.mcf_a == Format::kRLC || best.mcf_a == Format::kZVC ||
              best.mcf_a == Format::kCSR)
      << name_of(best.mcf_a);
  EXPECT_NE(best.mcf_a, Format::kDense);
}

TEST(Sage, McfAndAcfDivergeWhenConversionIsCheap) {
  // The core thesis: with MINT available, the best MCF (compactness) and
  // best ACF (compute) need not coincide. At journal-like density the
  // storage winner is ZVC but ZVC is not even a legal ACF, so SAGE pairs
  // a compact MCF with a Dense ACF via MINT.
  const auto cfg = test_cfg();
  const EnergyParams e;
  const auto a = synth_coo_matrix(124, 124, 12000, 51);
  const auto b = synth_coo_matrix(124, 62, 6000, 52);
  const auto best = sage_select_matmul(a, b, cfg, e);
  EXPECT_TRUE(best.mcf_a != best.acf_a || best.mcf_b != best.acf_b)
      << best.describe();
}

TEST(Sage, OutputMcfTracksProductDensity) {
  const auto cfg = test_cfg();
  // Dense operands -> dense product.
  const auto da = synth_coo_matrix(64, 64, 64 * 64, 61);
  const auto db = synth_coo_matrix(64, 32, 64 * 32, 62);
  EXPECT_EQ(choose_output_mcf(da, db, cfg.dtype), Format::kDense);
  // Hyper-sparse operands -> hyper-sparse product stored compressed.
  const auto sa = synth_coo_matrix(1000, 1000, 20, 63);
  const auto sb = synth_coo_matrix(1000, 500, 10, 64);
  std::int64_t nnz_o = 0;
  const auto f = choose_output_mcf(sa, sb, cfg.dtype, &nnz_o);
  EXPECT_LT(nnz_o, 100);
  EXPECT_EQ(f, Format::kCOO);
}

TEST(Sage, TensorSelectionFavorsCsfOrCooForSparseTensor) {
  const auto cfg = test_cfg();
  const EnergyParams e;
  const auto x = synth_coo_tensor(440, 110, 170, 3300, 71);  // uber-like
  const auto best = sage_select_tensor(x, 64, Kernel::kMTTKRP, cfg, e);
  EXPECT_NE(best.acf_t, Format::kDense);
  EXPECT_TRUE(best.mcf_t == Format::kCOO || best.mcf_t == Format::kCSF)
      << name_of(best.mcf_t);
}

TEST(Sage, TensorDenseIsAdmittedForDenseTensors) {
  const auto cfg = test_cfg();
  const EnergyParams e;
  const auto x = synth_coo_tensor(30, 40, 9, 30 * 40 * 9 * 3 / 10, 81);  // 30%
  const auto best = sage_select_tensor(x, 16, Kernel::kSpTTM, cfg, e);
  // BrainQ-like density: Dense compute with a compact linearized MCF
  // (Table III row 11 picks ZVC; our model scores ZVC and RLC within a
  // hair of each other at 30%).
  EXPECT_EQ(best.acf_t, Format::kDense);
  EXPECT_TRUE(best.mcf_t == Format::kZVC || best.mcf_t == Format::kRLC)
      << name_of(best.mcf_t);
}

TEST(Sage, EmptySpaceThrows) {
  const auto cfg = test_cfg();
  const EnergyParams e;
  const auto mm = spgemm_pair(64, 64, 100, 91);
  FormatSpace s;
  EXPECT_THROW(sage_select_matmul(mm.a, mm.b, cfg, e, s),
               std::invalid_argument);
}

// --- Golden model and search values ---
//
// PerfResult fields and SageChoices recorded from the comparison-sort
// reference model on seeded operands. The planner path is rewritten for
// speed from time to time; every recorded figure must survive unchanged.

struct PerfGolden {
  std::int64_t load, stream, compute, overlap, drain;
  std::int64_t performed, useful, streamed, n_tiles, k_passes;
  double bus_occupancy, pe_utilization, energy_j;
};

void expect_golden(const PerfResult& r, const PerfGolden& g) {
  EXPECT_EQ(r.phases.load_cycles, g.load);
  EXPECT_EQ(r.phases.stream_cycles, g.stream);
  EXPECT_EQ(r.phases.compute_cycles, g.compute);
  EXPECT_EQ(r.phases.overlap_cycles, g.overlap);
  EXPECT_EQ(r.phases.drain_cycles, g.drain);
  EXPECT_EQ(r.performed_macs, g.performed);
  EXPECT_EQ(r.useful_macs, g.useful);
  EXPECT_EQ(r.streamed_elems, g.streamed);
  EXPECT_EQ(r.n_tiles, g.n_tiles);
  EXPECT_EQ(r.k_passes, g.k_passes);
  EXPECT_DOUBLE_EQ(r.bus_occupancy, g.bus_occupancy);
  EXPECT_DOUBLE_EQ(r.pe_utilization, g.pe_utilization);
  EXPECT_DOUBLE_EQ(r.compute_energy_j, g.energy_j);
}

struct ChoiceGolden {
  Format mcf_a, mcf_b, acf_a, acf_b, mcf_o;
  std::int64_t dram, convert, compute;
  double dram_j, convert_j, compute_j, edp;
};

void expect_golden(const SageChoice& c, const ChoiceGolden& g) {
  EXPECT_EQ(c.mcf_a, g.mcf_a);
  EXPECT_EQ(c.mcf_b, g.mcf_b);
  EXPECT_EQ(c.acf_a, g.acf_a);
  EXPECT_EQ(c.acf_b, g.acf_b);
  EXPECT_EQ(c.mcf_o, g.mcf_o);
  EXPECT_EQ(c.cost.dram_cycles, g.dram);
  EXPECT_EQ(c.cost.convert_cycles, g.convert);
  EXPECT_EQ(c.cost.compute_cycles, g.compute);
  EXPECT_DOUBLE_EQ(c.cost.dram_energy_j, g.dram_j);
  EXPECT_DOUBLE_EQ(c.cost.convert_energy_j, g.convert_j);
  EXPECT_DOUBLE_EQ(c.cost.compute_energy_j, g.compute_j);
  EXPECT_DOUBLE_EQ(c.edp, g.edp);
  EXPECT_EQ(c.perf.total_cycles(), g.compute);
}

constexpr std::array<Format, 3> kStreamAcfs = {Format::kDense, Format::kCSR,
                                               Format::kCOO};
constexpr std::array<Format, 2> kStationaryAcfs = {Format::kDense,
                                                   Format::kCSC};

// On the walkthrough array (4 PEs, 5-slot bus, 8-element buffers) N = 18
// spans five output tiles; a Dense B makes five K passes (kt = 8) and a
// CSC B three (kt = 19, from B's 21% density).
MM walkthrough_pair() {
  return {synth_coo_matrix(24, 40, 200, 101),
          synth_coo_matrix(40, 18, 150, 102)};
}

// On test_cfg() N = 600 spans three tiles; a Dense B makes six K passes.
MM test_cfg_pair() {
  return {synth_coo_matrix(300, 700, 9000, 111),
          synth_coo_matrix(700, 600, 21000, 112)};
}

// The same B with its entries in column-major order: neither the model
// nor the search may depend on B's entry order.
CooMatrix col_major(CooMatrix b) {
  b.sort_col_major();
  return b;
}

TEST(SageGolden, MatmulPerfOnEveryAcfPair) {
  const EnergyParams e;
  const PerfGolden walkthrough[] = {
      {160, 1200, 600, 1200, 450, 17280, 723, 4800, 5, 5, 0.80000000000000004, 0.012482734806629835, 5.2190400000000004e-07},
      {66, 1320, 6048, 6072, 270, 3600, 723, 4800, 5, 3, 0.72727272727272729, 0.0035258661048689138, 3.4494000000000002e-07},
      {160, 635, 4000, 4000, 375, 3600, 723, 1000, 5, 5, 0.31496062992125984, 0.0049820837927232638, 1.8043599999999999e-07},
      {66, 580, 1216, 1223, 203, 723, 723, 1000, 5, 3, 0.34482758620689657, 0.015143264075067024, 1.0808080000000002e-07},
      {160, 1000, 4000, 4000, 375, 3600, 723, 1000, 5, 5, 0.20000000000000001, 0.0049820837927232638, 1.8043599999999999e-07},
      {66, 1000, 1216, 1260, 203, 723, 723, 1000, 5, 3, 0.20000000000000001, 0.014776814911706997, 1.0808080000000002e-07},
  };
  const PerfGolden larger[] = {
      {26250, 44100, 78750, 78750, 67500, 126000000, 270279, 630000, 3, 6, 0.8928571428571429, 0.00076505604619565219, 0.0012980399999999999},
      {2627, 42300, 193200, 193200, 11250, 6300000, 270279, 630000, 3, 1, 0.93085106382978722, 0.00063730963829276063, 0.0001017276},
      {26250, 6102, 108000, 108000, 66452, 5400000, 270279, 27000, 3, 6, 0.27654867256637167, 0.00065755282941251214, 0.0001088076},
      {2627, 4233, 8348, 8348, 11250, 270279, 270279, 27000, 3, 1, 0.39865343727852587, 0.0059380053079302591, 1.32098784e-05},
      {26250, 5406, 108000, 108000, 66452, 5400000, 270279, 27000, 3, 6, 0.31215316315205327, 0.00065755282941251214, 0.0001088076},
      {2627, 5400, 8348, 8348, 11250, 270279, 270279, 27000, 3, 1, 0.3125, 0.0059380053079302591, 1.32098784e-05},
  };
  const struct {
    AccelConfig cfg;
    MM mm;
    const PerfGolden* want;
  } cases[] = {{AccelConfig::walkthrough(), walkthrough_pair(), walkthrough},
               {test_cfg(), test_cfg_pair(), larger}};
  for (const auto& c : cases) {
    const CooMatrix b_col_major = col_major(c.mm.b);
    ASSERT_FALSE(b_col_major.is_row_major_sorted());
    // One view priced on every pair, as a search does: A's pass sweeps
    // are shared across the pairs of each K-pass height.
    const auto a_csr = CsrMatrix::from_coo(c.mm.a);
    const auto b_csr = CsrMatrix::from_coo(c.mm.b);
    MatmulOperands shared(a_csr, b_csr);
    std::size_t i = 0;
    for (Format fa : kStreamAcfs) {
      for (Format fb : kStationaryAcfs) {
        SCOPED_TRACE(std::string(name_of(fa)) + "/" + std::string(name_of(fb)));
        expect_golden(model_matmul(c.mm.a, c.mm.b, fa, fb, c.cfg, e), c.want[i]);
        expect_golden(model_matmul(c.mm.a, b_col_major, fa, fb, c.cfg, e),
                      c.want[i]);
        expect_golden(model_matmul(shared, fa, fb, c.cfg, e), c.want[i]);
        expect_golden(model_matmul(a_csr, b_csr, fa, fb, c.cfg, e), c.want[i]);
        ++i;
      }
    }
  }
}

TEST(SageGolden, DenseBPerfOnEveryAcfPair) {
  // N = 10 spans three walkthrough tiles; a Dense B makes five K passes
  // (kt = 8), a CSC B ten (kt = 4: two buffer elements per row).
  const auto cfg = AccelConfig::walkthrough();
  const EnergyParams e;
  const auto a = walkthrough_pair().a;
  const PerfGolden want[] = {
      {90, 720, 360, 720, 250, 9600, 2000, 2880, 3, 5, 0.80000000000000004, 0.058962264150943397, 3.0078399999999998e-07},
      {180, 720, 11520, 11520, 500, 9600, 2000, 2880, 3, 10, 0.80000000000000004, 0.0051229508196721308, 3.6310400000000002e-07},
      {90, 381, 2400, 2400, 209, 2000, 2000, 600, 3, 5, 0.31496062992125984, 0.023156724712856614, 1.025e-07},
      {180, 441, 2400, 2400, 302, 2000, 2000, 600, 3, 10, 0.27210884353741499, 0.021686328938237336, 1.2631999999999998e-07},
      {90, 600, 2400, 2400, 209, 2000, 2000, 600, 3, 5, 0.20000000000000001, 0.023156724712856614, 1.025e-07},
      {180, 600, 2400, 2400, 302, 2000, 2000, 600, 3, 10, 0.20000000000000001, 0.021686328938237336, 1.2631999999999998e-07},
  };
  const auto a_csr = CsrMatrix::from_coo(a);
  PassStreams shared(a_csr);
  std::size_t i = 0;
  for (Format fa : kStreamAcfs) {
    for (Format fb : kStationaryAcfs) {
      SCOPED_TRACE(std::string(name_of(fa)) + "/" + std::string(name_of(fb)));
      expect_golden(model_matmul_dense_b(a, 10, fa, fb, cfg, e), want[i]);
      expect_golden(model_matmul_dense_b(shared, 10, fa, fb, cfg, e), want[i]);
      expect_golden(model_matmul_dense_b(a_csr, 10, fa, fb, cfg, e), want[i]);
      ++i;
    }
  }
}

TEST(SageGolden, WalkthroughChoices) {
  const auto cfg = AccelConfig::walkthrough();
  const EnergyParams e;
  const auto mm = walkthrough_pair();
  const ChoiceGolden matmul = {Format::kCSR, Format::kCSC, Format::kCSR, Format::kCSC, Format::kZVC, 50, 0, 1492, 5.1143999999999993e-07, 0, 1.0808080000000002e-07, 9.5530107359999984e-13};
  expect_golden(sage_select_matmul(mm.a, mm.b, cfg, e), matmul);
  expect_golden(sage_select_matmul(mm.a, col_major(mm.b), cfg, e), matmul);
  expect_golden(sage_select_spmm_dense_b(mm.a, 10, cfg, e),
                {Format::kRLC, Format::kDense, Format::kDense, Format::kDense, Format::kDense, 55, 95, 1060, 5.5719999999999993e-07, 3.7600000000000003e-09, 3.0078399999999998e-07, 1.04271024e-12});
}

TEST(SageGolden, ChoicesInEveryBaselineSpace) {
  // The Table-II spaces exercise every search restriction: kNone and
  // MCF == ACF spaces, fixed MCFs, the hardware and software converters.
  const auto cfg = test_cfg();
  const EnergyParams e;
  const auto mm = test_cfg_pair();
  const ChoiceGolden matmul[] = {
      {Format::kDense, Format::kDense, Format::kDense, Format::kDense, Format::kZVC, 48471, 0, 172500, 0.00049633727999999998, 0, 0.0012980399999999999, 3.9650534193887999e-07},
      {Format::kCSR, Format::kDense, Format::kCSR, Format::kDense, Format::kZVC, 36092, 0, 200702, 0.00036958156, 0, 0.0001088076, 1.1327968275303999e-07},
      {Format::kZVC, Format::kZVC, Format::kCSR, Format::kCSC, Format::kZVC, 12201, 16682, 22225, 0.00012493727999999998, 6.567138e-06, 1.32098784e-05, 7.3960582604111997e-09},
      {Format::kCSR, Format::kCSC, Format::kCSR, Format::kCSC, Format::kZVC, 11583, 0, 22225, 0.00011860185999999999, 0, 1.32098784e-05, 4.4562912518271995e-09},
      {Format::kZVC, Format::kZVC, Format::kDense, Format::kDense, Format::kZVC, 12201, 36369, 172500, 0.00012493727999999998, 6.9315999999999998e-06, 0.0012980399999999999, 3.1610995610159995e-07},
      {Format::kCSR, Format::kCSC, Format::kCSR, Format::kCSC, Format::kZVC, 11583, 0, 22225, 0.00011860185999999999, 0, 1.32098784e-05, 4.4562912518271995e-09},
      {Format::kCSR, Format::kCSC, Format::kCSR, Format::kCSC, Format::kZVC, 11583, 0, 22225, 0.00011860185999999999, 0, 1.32098784e-05, 4.4562912518271995e-09},
  };
  const ChoiceGolden dense_b[] = {
      {Format::kDense, Format::kDense, Format::kDense, Format::kDense, Format::kDense, 50625, 0, 172500, 0.00051839999999999992, 0, 0.0012980399999999999, 4.0529317499999997e-07},
      {Format::kCSR, Format::kDense, Format::kCSR, Format::kDense, Format::kDense, 38247, 0, 200702, 0.00039164427999999999, 0, 0.0001088076, 1.1958247627412e-07},
      {Format::kZVC, Format::kZVC, Format::kCSR, Format::kDense, Format::kDense, 39293, 5690, 200702, 0.00040235999999999999, 6.8232115e-06, 0.0001088076, 1.2726257252337748e-07},
      {Format::kCSR, Format::kDense, Format::kCSR, Format::kDense, Format::kDense, 38247, 0, 200702, 0.00039164427999999999, 0, 0.0001088076, 1.1958247627412e-07},
      {Format::kZVC, Format::kDense, Format::kDense, Format::kDense, Format::kDense, 38473, 12202, 172500, 0.00039396, 2.3108e-06, 0.0012980399999999999, 3.7812781278999996e-07},
      {Format::kCSR, Format::kDense, Format::kCSR, Format::kDense, Format::kDense, 38247, 0, 200702, 0.00039164427999999999, 0, 0.0001088076, 1.1958247627412e-07},
      {Format::kCSR, Format::kDense, Format::kCSR, Format::kDense, Format::kDense, 38247, 0, 200702, 0.00039164427999999999, 0, 0.0001088076, 1.1958247627412e-07},
  };
  std::size_t i = 0;
  for (AccelType t : kAllAccelTypes) {
    SCOPED_TRACE(std::string(name_of(t)));
    const auto space = baseline_space(t);
    expect_golden(sage_select_matmul(mm.a, mm.b, cfg, e, space), matmul[i]);
    expect_golden(sage_select_spmm_dense_b(mm.a, 600, cfg, e, space),
                  dense_b[i]);
    ++i;
  }
}

// --- CSR cores against the COO adapters ---
//
// The server plans on the CSR rep it runs; figure benches, baselines and
// the replay harness call the COO overloads. Both must see the same
// model: identical PerfResults and SageChoices, down to the double bits.

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

void expect_identical(const PerfResult& x, const PerfResult& y) {
  EXPECT_EQ(x.phases.load_cycles, y.phases.load_cycles);
  EXPECT_EQ(x.phases.stream_cycles, y.phases.stream_cycles);
  EXPECT_EQ(x.phases.compute_cycles, y.phases.compute_cycles);
  EXPECT_EQ(x.phases.overlap_cycles, y.phases.overlap_cycles);
  EXPECT_EQ(x.phases.drain_cycles, y.phases.drain_cycles);
  EXPECT_EQ(x.performed_macs, y.performed_macs);
  EXPECT_EQ(x.useful_macs, y.useful_macs);
  EXPECT_EQ(x.streamed_elems, y.streamed_elems);
  EXPECT_EQ(x.n_tiles, y.n_tiles);
  EXPECT_EQ(x.k_passes, y.k_passes);
  EXPECT_TRUE(same_bits(x.bus_occupancy, y.bus_occupancy));
  EXPECT_TRUE(same_bits(x.pe_utilization, y.pe_utilization));
  EXPECT_TRUE(same_bits(x.compute_energy_j, y.compute_energy_j));
}

void expect_identical(const SageChoice& x, const SageChoice& y) {
  EXPECT_EQ(x.mcf_a, y.mcf_a);
  EXPECT_EQ(x.mcf_b, y.mcf_b);
  EXPECT_EQ(x.acf_a, y.acf_a);
  EXPECT_EQ(x.acf_b, y.acf_b);
  EXPECT_EQ(x.mcf_o, y.mcf_o);
  EXPECT_EQ(x.cost.dram_cycles, y.cost.dram_cycles);
  EXPECT_EQ(x.cost.convert_cycles, y.cost.convert_cycles);
  EXPECT_EQ(x.cost.compute_cycles, y.cost.compute_cycles);
  EXPECT_TRUE(same_bits(x.cost.dram_energy_j, y.cost.dram_energy_j));
  EXPECT_TRUE(same_bits(x.cost.convert_energy_j, y.cost.convert_energy_j));
  EXPECT_TRUE(same_bits(x.cost.compute_energy_j, y.cost.compute_energy_j));
  EXPECT_TRUE(same_bits(x.edp, y.edp));
  expect_identical(x.perf, y.perf);
}

// The src/workloads shapes: a uniform density sweep, banded, block-sparse
// and row-balanced, all square so each also multiplies itself.
std::vector<std::pair<std::string, DenseMatrix>> workload_operands() {
  constexpr index_t kN = 96;
  std::vector<std::pair<std::string, DenseMatrix>> ops;
  std::uint64_t seed = 500;
  for (double d : {0.005, 0.02, 0.08, 0.3}) {
    ops.emplace_back("uniform " + std::to_string(d),
                     synth_dense_matrix(kN, kN, d, ++seed));
  }
  ops.emplace_back("banded", synth_banded_matrix(kN, 5, ++seed));
  ops.emplace_back("block-sparse",
                   synth_block_sparse_matrix(kN, kN, 8, 8, 0.2, ++seed));
  ops.emplace_back("row-balanced", synth_row_balanced_matrix(kN, kN, 6, ++seed));
  return ops;
}

TEST(SageCsr, CoresMatchCooAdaptersOnEveryMcf) {
  // A small array makes the 96^2 operands span several tiles and K passes;
  // the paper's array prices them in one.
  AccelConfig small;
  small.num_pes = 16;
  small.pe_buffer_bytes = 64;
  const EnergyParams e;
  const Format mcfs[] = {Format::kDense, Format::kCOO, Format::kCSR,
                         Format::kCSC,   Format::kRLC, Format::kZVC,
                         Format::kBSR,   Format::kDIA, Format::kELL};
  const auto ops = workload_operands();
  const auto& uniform = ops[2].second;
  for (const auto& cfg : {AccelConfig::paper_default(), small}) {
    for (const auto& [name, dense] : ops) {
      for (Format mcf : mcfs) {
        SCOPED_TRACE(name + " registered as " + std::string(name_of(mcf)) +
                     " on " + std::to_string(cfg.num_pes) + " PEs");
        // The rep the server plans on, and the COO overloads' input.
        const AnyMatrix reg = encode(dense, mcf);
        const auto csr = std::get<CsrMatrix>(convert(reg, Format::kCSR));
        const auto coo = std::get<CooMatrix>(convert(reg, Format::kCOO));
        for (index_t n : {1, 8, 16}) {
          SCOPED_TRACE("dense B width " + std::to_string(n));
          expect_identical(sage_select_spmm_dense_b(csr, n, cfg, e),
                           sage_select_spmm_dense_b(coo, n, cfg, e));
        }
        expect_identical(sage_select_matmul(csr, csr, cfg, e),
                         sage_select_matmul(coo, coo, cfg, e));
        const auto u_csr = CsrMatrix::from_dense(uniform);
        const auto u_coo = CooMatrix::from_dense(uniform);
        expect_identical(sage_select_matmul(csr, u_csr, cfg, e),
                         sage_select_matmul(coo, u_coo, cfg, e));
      }
    }
  }
}

TEST(SageCsr, SharedViewMemoMatchesFreshPricingInAnyOrder) {
  // Pricing the six ACF pairs on one MatmulOperands memoizes A's pass
  // sweeps and B's CSC loads; the order of the pairs must not matter.
  struct Case {
    std::string name;
    AccelConfig cfg;
    MM mm;
  };
  // At density_b = 0.5 on the paper's array, the CSC pass height
  // (64 pairs / 0.5) equals the Dense one (min(K, 128)): a memo keyed on
  // the height alone would hand one ACF's loads to the other.
  const Case cases[] = {
      {"collision", AccelConfig::paper_default(),
       {synth_coo_matrix(64, 256, 3000, 71),
        synth_coo_matrix(256, 64, 256 * 64 / 2, 72)}},
      {"walkthrough", AccelConfig::walkthrough(), walkthrough_pair()},
      {"multi-tile", test_cfg(), test_cfg_pair()},
  };
  std::vector<std::pair<Format, Format>> forward;
  for (Format fa : kStreamAcfs) {
    for (Format fb : kStationaryAcfs) forward.emplace_back(fa, fb);
  }
  const std::vector<std::pair<Format, Format>> reverse(forward.rbegin(),
                                                       forward.rend());
  const std::vector<std::pair<Format, Format>> shuffled = {
      forward[3], forward[0], forward[5], forward[2], forward[4], forward[1]};
  const EnergyParams e;
  for (const auto& c : cases) {
    const auto a = CsrMatrix::from_coo(c.mm.a);
    const auto b = CsrMatrix::from_coo(c.mm.b);
    for (const auto& order : {forward, reverse, shuffled}) {
      MatmulOperands shared(a, b);
      for (const auto& [fa, fb] : order) {
        SCOPED_TRACE(c.name + " " + std::string(name_of(fa)) + "/" +
                     std::string(name_of(fb)));
        expect_identical(model_matmul(shared, fa, fb, c.cfg, e),
                         model_matmul(a, b, fa, fb, c.cfg, e));
      }
    }
    // One view priced under a second PE count: B's tiles change, so its
    // CSC loads must be swept again.
    MatmulOperands shared(a, b);
    AccelConfig narrow = c.cfg;
    narrow.num_pes = std::max<index_t>(1, c.cfg.num_pes / 3);
    for (const AccelConfig& cfg : {c.cfg, narrow, c.cfg}) {
      for (const auto& [fa, fb] : forward) {
        SCOPED_TRACE(c.name + " on " + std::to_string(cfg.num_pes) + " PEs");
        expect_identical(model_matmul(shared, fa, fb, cfg, e),
                         model_matmul(a, b, fa, fb, cfg, e));
      }
    }
  }
}

// --- Baselines ---

TEST(Baselines, SpacesMatchTableTwo) {
  const auto tpu = baseline_space(AccelType::kFixFixNone);
  EXPECT_EQ(tpu.mcf_a, std::vector<Format>{Format::kDense});
  EXPECT_EQ(tpu.converter, ConverterKind::kNone);

  const auto eie = baseline_space(AccelType::kFixFixNone2);
  EXPECT_TRUE(eie.mcf_must_equal_acf);

  const auto sigma = baseline_space(AccelType::kFixFlexHw);
  EXPECT_EQ(sigma.mcf_a, std::vector<Format>{Format::kZVC});
  EXPECT_GT(sigma.acf_a.size(), 1u);

  const auto nvdla = baseline_space(AccelType::kFlexFixHw);
  EXPECT_EQ(nvdla.acf_a, std::vector<Format>{Format::kDense});
  EXPECT_EQ(nvdla.mcf_a.size(), 2u);

  const auto ours = baseline_space(AccelType::kFlexFlexHw);
  EXPECT_EQ(ours.mcf_a.size(), kMatrixMcfChoices.size());
  EXPECT_EQ(ours.converter, ConverterKind::kMint);
}

class BaselineDominance : public ::testing::TestWithParam<AccelType> {};

TEST_P(BaselineDominance, ThisWorkNeverLosesOnEdp) {
  // Flex_Flex_HW searches a superset of every baseline's space with the
  // cheapest converter, so its EDP is a lower bound — the structural fact
  // behind the Fig. 13 geomean wins.
  const auto cfg = test_cfg();
  const EnergyParams e;
  for (std::uint64_t seed : {1u, 2u}) {
    for (auto [m, k, nnz] :
         {std::tuple<index_t, index_t, std::int64_t>{124, 124, 12000},
          std::tuple<index_t, index_t, std::int64_t>{770, 260, 10010},
          std::tuple<index_t, index_t, std::int64_t>{1100, 1100, 66}}) {
      const auto mm = spgemm_pair(m, k, nnz, seed * 100);
      const auto ours =
          evaluate_baseline(AccelType::kFlexFlexHw, mm.a, mm.b, cfg, e);
      const auto other = evaluate_baseline(GetParam(), mm.a, mm.b, cfg, e);
      EXPECT_LE(ours.edp, other.edp * (1 + 1e-9))
          << name_of(GetParam()) << " m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, BaselineDominance,
    ::testing::Values(AccelType::kFixFixNone, AccelType::kFixFixNone2,
                      AccelType::kFixFlexHw, AccelType::kFlexFlexNone,
                      AccelType::kFlexFixHw, AccelType::kFlexFlexSw),
    [](const auto& info) {
      std::string s(name_of(info.param));
      std::replace(s.begin(), s.end(), ' ', '_');
      std::replace(s.begin(), s.end(), '(', '_');
      std::replace(s.begin(), s.end(), ')', '_');
      return s;
    });

TEST(Baselines, TpuSuffersOnSparseWorkloads) {
  // Fig. 12c: on m3plates anything dense is orders of magnitude worse.
  const auto cfg = test_cfg();
  const EnergyParams e;
  const auto mm = spgemm_pair(1100, 1100, 66, 7);
  const auto tpu = evaluate_baseline(AccelType::kFixFixNone, mm.a, mm.b, cfg, e);
  const auto ours = evaluate_baseline(AccelType::kFlexFlexHw, mm.a, mm.b, cfg, e);
  EXPECT_GT(tpu.edp / ours.edp, 10.0);
}

TEST(Baselines, SoftwareConversionCostsMoreThanMint) {
  // Flex_Flex_SW searches the same space but pays host offload per
  // conversion; when the best choice needs a conversion it must lose.
  const auto cfg = test_cfg();
  const EnergyParams e;
  const auto mm = spmm_pair(770, 260, 10'010, 3);
  const auto ours = evaluate_baseline(AccelType::kFlexFlexHw, mm.a, mm.b, cfg, e);
  const auto sw = evaluate_baseline(AccelType::kFlexFlexSw, mm.a, mm.b, cfg, e);
  EXPECT_LE(ours.edp, sw.edp);
}

TEST(Baselines, EveryArchetypeHasDistinctNameAndExemplar) {
  std::set<std::string_view> names, exemplars;
  for (AccelType t : kAllAccelTypes) {
    names.insert(name_of(t));
    exemplars.insert(exemplar_of(t));
  }
  EXPECT_EQ(names.size(), kAllAccelTypes.size());
  EXPECT_EQ(exemplars.size(), kAllAccelTypes.size());
}

}  // namespace
}  // namespace mt
