#include "sage/sage.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "formats/storage.hpp"
#include "mint/pipelines.hpp"
#include "mint/sw_offload.hpp"

namespace mt {

namespace {

// Conversion cost for one operand under the selected converter capability.
// Returns cycles/energy charged to the conversion stage.
ConversionCost operand_conversion(Format mcf, Format acf, index_t rows,
                                  index_t cols, std::int64_t nnz, DataType dt,
                                  ConverterKind conv,
                                  const EnergyParams& energy) {
  if (mcf == acf) return {};
  switch (conv) {
    case ConverterKind::kNone:
      MT_ENSURE(false, "kNone spaces must not reach conversion pricing");
    case ConverterKind::kMint:
    case ConverterKind::kFixedHw: {
      // A dedicated decompressor has the same streaming-overlapped profile
      // as the equivalent MINT pipeline; the difference is flexibility
      // (it exists only for its one hardwired pair), not unit cost.
      // The conversion overlaps the operand's DRAM stream-in (§V-B), which
      // the cost model already charges as dram_cycles — only the excess
      // (work outpacing DRAM, plus pipeline fill) serializes here.
      auto c = mint_matrix_conversion_cost(mcf, acf, rows, cols, nnz, dt, energy);
      const auto stream_in = energy.dram_cycles(
          expected_matrix_storage(mcf, rows, cols, nnz, dt).total_bits());
      c.cycles = std::max<std::int64_t>(c.cycles - stream_in, 0);
      return c;
    }
    case ConverterKind::kSoftwareCpu:
    case ConverterKind::kSoftwareGpu: {
      const auto host = conv == ConverterKind::kSoftwareCpu
                            ? HostPlatform::kCpu
                            : HostPlatform::kGpu;
      const auto c = sw_conversion_cost(mcf, acf, rows, cols, nnz, dt, host, energy);
      return {static_cast<std::int64_t>(c.total_s() * energy.clock_hz),
              c.energy_j};
    }
  }
  return {};
}

// True if the space admits storing an operand in `mcf` and computing on
// it in `acf`.
bool admissible(const FormatSpace& space, Format mcf, Format acf) {
  return mcf == acf ||
         (!space.mcf_must_equal_acf && space.converter != ConverterKind::kNone);
}

// Rows, columns and nonzeros of one matmul operand.
struct OperandShape {
  index_t rows = 0;
  index_t cols = 0;
  std::int64_t nnz = 0;
};

// Conversion price of every admissible (MCF, ACF) pair of one operand,
// indexed [mcf index * acfs.size() + acf index] over the space's lists:
// a search prices each pair once instead of once per candidate.
std::vector<ConversionCost> conversion_table(const std::vector<Format>& mcfs,
                                             const std::vector<Format>& acfs,
                                             const OperandShape& x,
                                             const FormatSpace& space,
                                             DataType dt,
                                             const EnergyParams& energy) {
  std::vector<ConversionCost> table(mcfs.size() * acfs.size());
  for (std::size_t i = 0; i < mcfs.size(); ++i) {
    for (std::size_t j = 0; j < acfs.size(); ++j) {
      if (!admissible(space, mcfs[i], acfs[j])) continue;
      table[i * acfs.size() + j] =
          operand_conversion(mcfs[i], acfs[j], x.rows, x.cols, x.nnz, dt,
                             space.converter, energy);
    }
  }
  return table;
}

// The search behind both matmul entry points: every admissible MCF x ACF
// combination of A and B, priced as DRAM transfer + conversion + compute,
// keeping the lowest EDP. `perf_of(acf_a, acf_b)` runs the performance
// model once per ACF pair; O costs `bits_o` of DRAM traffic in `mcf_o`.
template <class PerfOf>
SageChoice search_matmul(const OperandShape& a, const OperandShape& b,
                         Format mcf_o, std::int64_t bits_o,
                         const AccelConfig& cfg, const EnergyParams& energy,
                         const FormatSpace& space, PerfOf perf_of) {
  const DataType dt = cfg.dtype;
  const auto conv_a =
      conversion_table(space.mcf_a, space.acf_a, a, space, dt, energy);
  const auto conv_b =
      conversion_table(space.mcf_b, space.acf_b, b, space, dt, energy);

  SageChoice best;
  best.edp = std::numeric_limits<double>::infinity();
  for (std::size_t ia = 0; ia < space.acf_a.size(); ++ia) {
    const Format acf_a = space.acf_a[ia];
    for (std::size_t ib = 0; ib < space.acf_b.size(); ++ib) {
      const Format acf_b = space.acf_b[ib];
      const PerfResult perf = perf_of(acf_a, acf_b);
      for (std::size_t ma = 0; ma < space.mcf_a.size(); ++ma) {
        const Format mcf_a = space.mcf_a[ma];
        if (!admissible(space, mcf_a, acf_a)) continue;
        const auto bits_a =
            expected_matrix_storage(mcf_a, a.rows, a.cols, a.nnz, dt)
                .total_bits();
        const auto& ca = conv_a[ma * space.acf_a.size() + ia];
        for (std::size_t mb = 0; mb < space.mcf_b.size(); ++mb) {
          const Format mcf_b = space.mcf_b[mb];
          if (!admissible(space, mcf_b, acf_b)) continue;
          const auto bits_b =
              expected_matrix_storage(mcf_b, b.rows, b.cols, b.nnz, dt)
                  .total_bits();
          const auto& cb = conv_b[mb * space.acf_b.size() + ib];
          CostBreakdown c;
          c.dram_cycles = energy.dram_cycles(bits_a + bits_b + bits_o);
          c.dram_energy_j = energy.dram_energy_j(bits_a + bits_b + bits_o);
          c.convert_cycles = ca.cycles + cb.cycles;
          c.convert_energy_j = ca.energy_j + cb.energy_j;
          c.compute_cycles = perf.total_cycles();
          c.compute_energy_j = perf.compute_energy_j;
          const double e = c.edp(energy);
          if (e < best.edp) {
            best = {mcf_a, mcf_b, acf_a, acf_b, mcf_o, c, e, perf};
          }
        }
      }
    }
  }
  MT_ENSURE(std::isfinite(best.edp), "no admissible format combination");
  return best;
}

}  // namespace

FormatSpace FormatSpace::full() {
  FormatSpace s;
  s.mcf_a.assign(kMatrixMcfChoices.begin(), kMatrixMcfChoices.end());
  s.mcf_b.assign(kMatrixMcfChoices.begin(), kMatrixMcfChoices.end());
  s.acf_a = {Format::kDense, Format::kCSR, Format::kCOO};
  s.acf_b = {Format::kDense, Format::kCSC};
  return s;
}

TensorFormatSpace TensorFormatSpace::full() {
  TensorFormatSpace s;
  s.mcf_t.assign(kTensorMcfChoices.begin(), kTensorMcfChoices.end());
  s.acf_t = {Format::kDense, Format::kCOO, Format::kCSF};
  return s;
}

namespace {

// choose_output_mcf on the operands' shapes: all it reads.
Format output_mcf(const OperandShape& a, const OperandShape& b, DataType dt,
                  std::int64_t* out_nnz_estimate) {
  // Under uniform sparsity, O(i,j) is nonzero unless all K pairings miss:
  // d_o = 1 - (1 - dA*dB)^K.
  const double da = static_cast<double>(a.nnz) /
                    (static_cast<double>(a.rows) * static_cast<double>(a.cols));
  const double db = static_cast<double>(b.nnz) /
                    (static_cast<double>(b.rows) * static_cast<double>(b.cols));
  const double d_pair = std::clamp(da * db, 0.0, 1.0);
  const double d_o =
      d_pair >= 1.0
          ? 1.0
          : -std::expm1(static_cast<double>(a.cols) * std::log1p(-d_pair));
  const auto cells = static_cast<double>(a.rows) * static_cast<double>(b.cols);
  const auto nnz_o = static_cast<std::int64_t>(std::ceil(d_o * cells));
  if (out_nnz_estimate != nullptr) *out_nnz_estimate = nnz_o;

  Format best = Format::kDense;
  std::int64_t best_bits = std::numeric_limits<std::int64_t>::max();
  for (Format f : kMatrixMcfChoices) {
    const auto bits =
        expected_matrix_storage(f, a.rows, b.cols, nnz_o, dt).total_bits();
    if (bits < best_bits) {
      best_bits = bits;
      best = f;
    }
  }
  return best;
}

template <class M>
OperandShape shape_of(const M& m) {
  return {m.rows(), m.cols(), m.nnz()};
}

}  // namespace

Format choose_output_mcf(const CooMatrix& a, const CooMatrix& b, DataType dt,
                         std::int64_t* out_nnz_estimate) {
  return output_mcf(shape_of(a), shape_of(b), dt, out_nnz_estimate);
}

CostBreakdown price_matmul_combination(const CooMatrix& a, const CooMatrix& b,
                                       Format mcf_a, Format mcf_b,
                                       Format acf_a, Format acf_b,
                                       Format mcf_o, ConverterKind converter,
                                       const AccelConfig& cfg,
                                       const EnergyParams& energy) {
  const DataType dt = cfg.dtype;
  CostBreakdown c;

  // --- DRAM: stream both operands in their MCF, write O in its MCF ---
  const auto bits_a =
      expected_matrix_storage(mcf_a, a.rows(), a.cols(), a.nnz(), dt).total_bits();
  const auto bits_b =
      expected_matrix_storage(mcf_b, b.rows(), b.cols(), b.nnz(), dt).total_bits();
  std::int64_t nnz_o = 0;
  choose_output_mcf(a, b, dt, &nnz_o);
  const auto bits_o =
      expected_matrix_storage(mcf_o, a.rows(), b.cols(), nnz_o, dt).total_bits();
  c.dram_cycles = energy.dram_cycles(bits_a + bits_b + bits_o);
  c.dram_energy_j = energy.dram_energy_j(bits_a + bits_b + bits_o);

  // --- Conversion: each operand whose MCF differs from its ACF ---
  const auto conv_a = operand_conversion(mcf_a, acf_a, a.rows(), a.cols(),
                                         a.nnz(), dt, converter, energy);
  const auto conv_b = operand_conversion(mcf_b, acf_b, b.rows(), b.cols(),
                                         b.nnz(), dt, converter, energy);
  c.convert_cycles = conv_a.cycles + conv_b.cycles;
  c.convert_energy_j = conv_a.energy_j + conv_b.energy_j;

  // --- Compute: the accelerator running the chosen ACFs ---
  const auto perf = model_matmul(a, b, acf_a, acf_b, cfg, energy);
  c.compute_cycles = perf.total_cycles();
  c.compute_energy_j = perf.compute_energy_j;
  return c;
}

SageChoice sage_select_matmul(const CsrMatrix& a, const CsrMatrix& b,
                              const AccelConfig& cfg,
                              const EnergyParams& energy,
                              const FormatSpace& space) {
  MT_REQUIRE(!space.mcf_a.empty() && !space.mcf_b.empty() &&
                 !space.acf_a.empty() && !space.acf_b.empty(),
             "format space must be non-empty");
  std::int64_t nnz_o = 0;
  const Format mcf_o =
      output_mcf(shape_of(a), shape_of(b), cfg.dtype, &nnz_o);
  const auto bits_o =
      expected_matrix_storage(mcf_o, a.rows(), b.cols(), nnz_o, cfg.dtype)
          .total_bits();
  MatmulOperands ops(a, b);
  return search_matmul(
      shape_of(a), shape_of(b), mcf_o, bits_o, cfg, energy, space,
      [&](Format acf_a, Format acf_b) {
        return model_matmul(ops, acf_a, acf_b, cfg, energy);
      });
}

SageChoice sage_select_matmul(const CooMatrix& a, const CooMatrix& b,
                              const AccelConfig& cfg,
                              const EnergyParams& energy,
                              const FormatSpace& space) {
  return sage_select_matmul(CsrMatrix::from_coo(a), CsrMatrix::from_coo(b),
                            cfg, energy, space);
}

SageChoice sage_select_spmm_dense_b(const CsrMatrix& a, index_t n,
                                    const AccelConfig& cfg,
                                    const EnergyParams& energy,
                                    const FormatSpace& space) {
  MT_REQUIRE(!space.mcf_a.empty() && !space.mcf_b.empty() &&
                 !space.acf_a.empty() && !space.acf_b.empty(),
             "format space must be non-empty");
  const index_t k = a.cols();
  // Output of sparse x dense is dense row-wise wherever A's row has any
  // nonzero; store Dense (it is within a few metadata bits of optimal and
  // matches every MCFO the paper reports for SpMM).
  const std::int64_t bits_o = a.rows() * n * bits_of(cfg.dtype);
  PassStreams streams(a);
  return search_matmul(
      shape_of(a), {k, n, k * n /* fully dense factor */}, Format::kDense,
      bits_o, cfg, energy, space, [&](Format acf_a, Format acf_b) {
        return model_matmul_dense_b(streams, n, acf_a, acf_b, cfg, energy);
      });
}

SageChoice sage_select_spmm_dense_b(const CooMatrix& a, index_t n,
                                    const AccelConfig& cfg,
                                    const EnergyParams& energy,
                                    const FormatSpace& space) {
  return sage_select_spmm_dense_b(CsrMatrix::from_coo(a), n, cfg, energy,
                                  space);
}

SageTensorChoice sage_select_tensor(const CooTensor3& x, index_t rank,
                                    Kernel kernel, const AccelConfig& cfg,
                                    const EnergyParams& energy,
                                    const TensorFormatSpace& space) {
  MT_REQUIRE(kernel == Kernel::kSpTTM || kernel == Kernel::kMTTKRP,
             "tensor kernels are SpTTM or MTTKRP");
  MT_REQUIRE(!space.mcf_t.empty() && !space.acf_t.empty(),
             "format space must be non-empty");
  const DataType dt = cfg.dtype;

  // Dense factor matrices: B (Y x R) and C (Z x R) for MTTKRP, U (Z x R)
  // for SpTTM; stored and consumed Dense (Table III tensor rows).
  const std::int64_t factor_bits =
      (kernel == Kernel::kMTTKRP ? (x.dim_y() + x.dim_z()) : x.dim_z()) * rank *
      bits_of(dt);
  // Output: dense factor-sized matrix for MTTKRP, fiber x rank tensor for
  // SpTTM (drained dense).
  const std::int64_t out_bits =
      (kernel == Kernel::kMTTKRP ? x.dim_x() * rank
                                 : x.dim_x() * x.dim_y() * rank) *
      bits_of(dt);

  SageTensorChoice best;
  best.edp = std::numeric_limits<double>::infinity();
  for (Format acf : space.acf_t) {
    const auto perf = kernel == Kernel::kSpTTM
                          ? model_spttm(x, rank, acf, cfg, energy)
                          : model_mttkrp(x, rank, acf, cfg, energy);
    for (Format mcf : space.mcf_t) {
      if (space.mcf_must_equal_acf && mcf != acf) continue;
      if (space.converter == ConverterKind::kNone && mcf != acf) continue;
      CostBreakdown c;
      const auto bits_t =
          expected_tensor_storage(mcf, x.dim_x(), x.dim_y(), x.dim_z(),
                                  x.nnz(), dt).total_bits();
      c.dram_cycles = energy.dram_cycles(bits_t + factor_bits + out_bits);
      c.dram_energy_j = energy.dram_energy_j(bits_t + factor_bits + out_bits);
      if (mcf != acf) {
        auto conv = mint_tensor_conversion_cost(
            mcf, acf, x.dim_x(), x.dim_y(), x.dim_z(), x.nnz(), dt, energy);
        // Overlapped with the tensor's DRAM stream-in (see the matrix path).
        conv.cycles = std::max<std::int64_t>(
            conv.cycles - energy.dram_cycles(bits_t), 0);
        c.convert_cycles = conv.cycles;
        c.convert_energy_j = conv.energy_j;
      }
      c.compute_cycles = perf.total_cycles();
      c.compute_energy_j = perf.compute_energy_j;
      const double e = c.edp(energy);
      if (e < best.edp) best = {mcf, acf, c, e, perf};
    }
  }
  MT_ENSURE(std::isfinite(best.edp), "no admissible format combination");
  return best;
}

std::string SageChoice::describe() const {
  std::ostringstream os;
  os << "MCF " << name_of(mcf_a) << '(' << 'A' << ")-" << name_of(mcf_b)
     << "(B), ACF " << name_of(acf_a) << "(A)-" << name_of(acf_b)
     << "(B), O in " << name_of(mcf_o);
  return os.str();
}

}  // namespace mt
