// SAGE — Sparsity formAt Generation Engine (paper §VI).
//
// Given a workload (concrete sparse operands), the accelerator
// configuration, and the conversion capability, SAGE enumerates every
// admissible MCF x ACF combination, prices each with its cost model
// (DRAM transfer + format conversion) and performance model (the
// accelerator simulator's analytic mode), and returns the combination
// with the lowest energy-delay product.
//
// The admissible format space is itself a parameter, because the Table-II
// baseline accelerators are exactly restrictions of this search: a TPU is
// SAGE constrained to Dense-Dense with no converter, ExTensor is
// MCF==ACF, NVDLA is a fixed Dense ACF with a HW decompressor, and so on
// (see src/baselines).
#pragma once

#include <string>
#include <vector>

#include "accel/config.hpp"
#include "accel/perf_model.hpp"
#include "energy/energy_model.hpp"
#include "formats/format.hpp"
#include "formats/tensor_coo.hpp"

namespace mt {

enum class ConverterKind : std::uint8_t {
  kNone,        // MCF must equal ACF
  kMint,        // this work: on-accelerator MINT module
  kFixedHw,     // dedicated single-purpose decompressor (NVDLA-style)
  kSoftwareCpu, // host MKL offload
  kSoftwareGpu, // device cuSPARSE offload
};

// The search space SAGE enumerates.
struct FormatSpace {
  std::vector<Format> mcf_a;
  std::vector<Format> mcf_b;
  std::vector<Format> acf_a;  // streaming formats (Dense/CSR/COO)
  std::vector<Format> acf_b;  // stationary formats (Dense/CSC)
  bool mcf_must_equal_acf = false;
  ConverterKind converter = ConverterKind::kMint;

  // The unrestricted space of this work (Flex_Flex_HW).
  static FormatSpace full();
};

struct SageChoice {
  Format mcf_a = Format::kDense;
  Format mcf_b = Format::kDense;
  Format acf_a = Format::kDense;
  Format acf_b = Format::kDense;
  Format mcf_o = Format::kDense;  // output storage format
  CostBreakdown cost;
  double edp = 0.0;
  PerfResult perf;  // compute-phase details of the winning combination

  std::string describe() const;
};

// Selects formats for O = A * B (covers GEMM/SpMM/SpGEMM — the operands'
// nnz decides which regime the workload is in). The search reads the
// operands' CSR, the representation the host runs, so a serving plan
// prices the rep it executes; the COO overloads build that CSR once and
// return bit-identical choices.
SageChoice sage_select_matmul(const CsrMatrix& a, const CsrMatrix& b,
                              const AccelConfig& cfg,
                              const EnergyParams& energy,
                              const FormatSpace& space = FormatSpace::full());
SageChoice sage_select_matmul(const CooMatrix& a, const CooMatrix& b,
                              const AccelConfig& cfg,
                              const EnergyParams& energy,
                              const FormatSpace& space = FormatSpace::full());

// SpMM variant: B is a fully dense K x N factor matrix (Table III's
// right-hand scenario). Searches A's formats; B's candidates come from
// `space` but are priced against a dense operand via the closed-form
// performance model, so no giant dense COO is ever materialized.
SageChoice sage_select_spmm_dense_b(const CsrMatrix& a, index_t n,
                                    const AccelConfig& cfg,
                                    const EnergyParams& energy,
                                    const FormatSpace& space = FormatSpace::full());
SageChoice sage_select_spmm_dense_b(const CooMatrix& a, index_t n,
                                    const AccelConfig& cfg,
                                    const EnergyParams& energy,
                                    const FormatSpace& space = FormatSpace::full());

// Selects formats for a tensor kernel (SpTTM or MTTKRP) with dense factor
// matrices of `rank` columns. The tensor's MCF/ACF are searched; factors
// are Dense-Dense (every ACFf/MCFf entry of Table III's tensor rows).
struct TensorFormatSpace {
  std::vector<Format> mcf_t;
  std::vector<Format> acf_t;  // Dense/COO/CSF
  bool mcf_must_equal_acf = false;
  ConverterKind converter = ConverterKind::kMint;

  static TensorFormatSpace full();
};

struct SageTensorChoice {
  Format mcf_t = Format::kDense;
  Format acf_t = Format::kDense;
  CostBreakdown cost;
  double edp = 0.0;
  PerfResult perf;
};

SageTensorChoice sage_select_tensor(
    const CooTensor3& x, index_t rank, Kernel kernel, const AccelConfig& cfg,
    const EnergyParams& energy,
    const TensorFormatSpace& space = TensorFormatSpace::full());

// Cost model helper (exposed for tests and benches): full pipeline cost of
// one specific combination.
CostBreakdown price_matmul_combination(const CooMatrix& a, const CooMatrix& b,
                                       Format mcf_a, Format mcf_b,
                                       Format acf_a, Format acf_b,
                                       Format mcf_o, ConverterKind converter,
                                       const AccelConfig& cfg,
                                       const EnergyParams& energy);

// Best (most compact) storage format for the product O, estimated from
// the operands' uniform-density product structure.
Format choose_output_mcf(const CooMatrix& a, const CooMatrix& b, DataType dt,
                         std::int64_t* out_nnz_estimate = nullptr);

}  // namespace mt
