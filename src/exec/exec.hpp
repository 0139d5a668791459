// Format-generic kernel execution engine.
//
// The paper decouples the memory format (MCF) from the algorithm format
// (ACF); SAGE prices every pair, and this engine is what makes the chosen
// pair *runnable*: one entry point per kernel, taking AnyMatrix/AnyTensor
// operands, with a (Kernel x Format) registry underneath. A request whose
// operand format has a registered native kernel routes straight to it;
// anything else falls back by converting the operand through the COO-hub
// convert() layer into the kernel's fallback ACF. Every call reports which
// path was taken, so tests and benches can assert native coverage instead
// of silently eating conversion costs.
//
// Concurrency contract: every entry point takes its operands by const
// reference end-to-end and never mutates or copies them on the native
// path (fallback materializes only the converted temporary it consumes).
// The dispatch registry is immutable after first use, so the serving
// runtime (src/runtime) can feed one shared, read-only operand — e.g. a
// conversion-cache representation — to many threads calling these entry
// points concurrently.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "convert/convert.hpp"
#include "formats/dense.hpp"
#include "formats/tensor_dense.hpp"

namespace mt::exec {

// Whether a call ran in the operand's own format or via conversion.
enum class Path : std::uint8_t { kNative, kFallback };

constexpr std::string_view name_of(Path p) {
  return p == Path::kNative ? "native" : "fallback";
}

// Which execution substrate ran (or would run) a job. kCpu is the
// OpenMP/SIMD kernel library underneath the free functions below; kSim is
// the cycle-accurate accelerator simulator (src/accel, "slow accurate");
// kMint is the MINT modeled-offload pipeline (bit-exact CPU results priced
// and optionally delayed by the accelerator cost model). See backend.hpp.
enum class BackendKind : std::uint8_t { kCpu, kSim, kMint };

constexpr std::string_view name_of(BackendKind b) {
  switch (b) {
    case BackendKind::kCpu: return "cpu";
    case BackendKind::kSim: return "sim";
    case BackendKind::kMint: return "mint";
  }
  return "?";
}

// Execution tier within a backend: the CPU backend dispatches scalar or
// SIMD kernel bodies; device backends run as a single device tier.
enum class ExecTier : std::uint8_t { kScalar, kSimd, kDevice };

// How one engine call was executed: the operand formats as handed in and
// the formats the kernel actually consumed (equal on the native path),
// plus the backend x tier that was live at dispatch time.
struct Dispatch {
  Kernel kernel = Kernel::kSpMV;
  Path path = Path::kNative;
  Format given_a = Format::kDense;
  Format ran_a = Format::kDense;
  bool has_b = false;               // second compressed operand present
  Format given_b = Format::kDense;
  Format ran_b = Format::kDense;
  BackendKind backend = BackendKind::kCpu;
  ExecTier tier = ExecTier::kScalar;  // kSimd iff mt::simd_enabled() when
                                      // the CPU backend dispatched

  std::string describe() const;  // e.g. "SpMV over DIA: fallback via CSR"
};

// The tier label the observability layer attaches to exec histograms.
// CPU keeps the pre-backend label values ("scalar"/"avx2") so existing
// mt_exec_ns{...,tier=...} series names stay stable for scrapes; device
// backends add new values in the same label key instead of overloading
// the CPU ones (a scalar CPU run and a device run are different series).
constexpr std::string_view tier_label(BackendKind b, ExecTier t) {
  switch (b) {
    case BackendKind::kCpu: return t == ExecTier::kSimd ? "avx2" : "scalar";
    case BackendKind::kSim: return "sim";
    case BackendKind::kMint: return "mint";
  }
  return "?";
}

// Dense index of the (backend, tier) combination for per-tier telemetry
// slot arrays; kNumTierSlots is the array extent.
inline constexpr std::size_t kNumTierSlots = 4;
constexpr std::size_t tier_slot(BackendKind b, ExecTier t) {
  switch (b) {
    case BackendKind::kCpu: return t == ExecTier::kSimd ? 1 : 0;
    case BackendKind::kSim: return 2;
    case BackendKind::kMint: return 3;
  }
  return 0;
}

// --- Entry points (one per kernel; the sparse operand is format-generic) ---

std::vector<value_t> spmv(const AnyMatrix& a, const std::vector<value_t>& x,
                          Dispatch* d = nullptr);

// A (any format) times a dense factor B.
DenseMatrix spmm(const AnyMatrix& a, const DenseMatrix& b,
                 Dispatch* d = nullptr);

// Both operands compressed — the ACF pairs of paper §III-B. (Dense, Dense)
// routes to the GEMM kernel, so this also covers Kernel::kGemm.
DenseMatrix spmm(const AnyMatrix& a, const AnyMatrix& b,
                 Dispatch* d = nullptr);

// Sparse x sparse with compressed output.
CsrMatrix spgemm(const AnyMatrix& a, const AnyMatrix& b,
                 Dispatch* d = nullptr);

// Mode-3 SpTTM: Y(i,j,l) = sum_k X(i,j,k) * U(k,l).
DenseTensor3 ttm(const AnyTensor& x, const DenseMatrix& u,
                 Dispatch* d = nullptr);

// Mode-1 MTTKRP with dense factors B and C.
DenseMatrix mttkrp(const AnyTensor& x, const DenseMatrix& b,
                   const DenseMatrix& c, Dispatch* d = nullptr);

// --- Column-block helpers (the serving batcher's gather/scatter path) ---
//
// The runtime batcher coalesces n SpMV requests into one SpMM by stacking
// their input vectors as columns, and fuses same-plan SpMM requests by
// concatenating their dense factors; after the fused kernel it scatters
// each caller's column block back out. These are the only places the
// engine copies dense data on behalf of the batcher, kept here so the
// layout convention (row-major, column j of request j) lives next to the
// kernels that consume it. Every produced matrix is ordinary 64-byte
// aligned storage (common/aligned.hpp).

// Stacks n equal-length vectors as the n columns of a dense matrix.
DenseMatrix stack_columns(
    const std::vector<const std::vector<value_t>*>& cols);

// Concatenates matrices with equal row counts side by side ([B0 | B1 | …]).
DenseMatrix concat_columns(const std::vector<const DenseMatrix*>& blocks);

// Copies columns [col0, col0 + ncols) of `m` into a new dense matrix.
DenseMatrix column_block(const DenseMatrix& m, index_t col0, index_t ncols);

// Copies column `c` of `m` out as a vector (an SpMV result un-stacked).
std::vector<value_t> column_of(const DenseMatrix& m, index_t c);

// --- Registry queries (drive the README support matrix and the tests) ---

// True if `k` has a native kernel consuming the sparse operand in `f`
// (other operands dense). SpGEMM reads this per operand.
bool has_native(Kernel k, Format f);

// True if the two-compressed-operand SpMM has a native kernel for the
// exact (A, B) format pair.
bool has_native_pair(Format fa, Format fb);

// The ACF the engine converts to when no native kernel is registered.
Format fallback_format(Kernel k);

// The formats a call actually runs in — the one owner of the engine's
// fallback order. runnable(k, f) is `f` when `k` has a native kernel for
// it, else fallback_format(k). runnable_pair(fa, fb) is the pair the
// two-compressed-operand SpMM runs for inputs (fa, fb): the pair itself
// when native, else the cheapest repair — keep A and densify B, then make
// A CSR keeping B, then CSR x Dense. The serving runtime plans onto these
// so its conversion cache materializes exactly what executes.
Format runnable(Kernel k, Format f);
std::pair<Format, Format> runnable_pair(Format fa, Format fb);

// Every format the engine accepts for `k`'s sparse operand (native or
// fallback): the AnyMatrix alternatives for matrix kernels, the AnyTensor
// alternatives for tensor kernels.
std::vector<Format> supported_formats(Kernel k);

}  // namespace mt::exec
