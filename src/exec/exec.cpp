#include "exec/exec.hpp"

#include <array>
#include <optional>
#include <sstream>
#include <tuple>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "kernels/gemm.hpp"
#include "kernels/mttkrp.hpp"
#include "kernels/spgemm.hpp"
#include "kernels/spmm.hpp"
#include "kernels/spmv.hpp"
#include "kernels/ttm.hpp"

namespace mt::exec {

namespace {

constexpr std::size_t kNumFormats = 11;
static_assert(static_cast<std::size_t>(Format::kHiCOO) + 1 == kNumFormats,
              "registry tables must cover every Format enumerator");

constexpr std::size_t idx(Format f) { return static_cast<std::size_t>(f); }
constexpr std::size_t pair_idx(Format a, Format b) {
  return idx(a) * kNumFormats + idx(b);
}

using SpmvFn = std::vector<value_t> (*)(const AnyMatrix&,
                                        const std::vector<value_t>&);
using SpmmFn = DenseMatrix (*)(const AnyMatrix&, const DenseMatrix&);
using PairFn = DenseMatrix (*)(const AnyMatrix&, const AnyMatrix&);
using TtmFn = DenseTensor3 (*)(const AnyTensor&, const DenseMatrix&);
using MttkrpFn = DenseMatrix (*)(const AnyTensor&, const DenseMatrix&,
                                 const DenseMatrix&);

// The (Kernel x Format) registry. Each slot wraps a native kernel behind
// the type-erased AnyMatrix/AnyTensor signature; empty slots route to the
// kernel's fallback ACF via convert().
struct Registry {
  std::array<SpmvFn, kNumFormats> spmv{};
  std::array<SpmmFn, kNumFormats> spmm{};  // A-format, B dense
  std::array<PairFn, kNumFormats * kNumFormats> spmm_pair{};
  std::array<TtmFn, kNumFormats> ttm{};
  std::array<MttkrpFn, kNumFormats> mttkrp{};
};

const Registry& registry() {
  static const Registry reg = [] {
    Registry r;

    // SpMV: six native ACFs.
    r.spmv[idx(Format::kCSR)] = [](const AnyMatrix& a,
                                   const std::vector<value_t>& x) {
      return spmv_csr(std::get<CsrMatrix>(a), x);
    };
    r.spmv[idx(Format::kCSC)] = [](const AnyMatrix& a,
                                   const std::vector<value_t>& x) {
      return spmv_csc(std::get<CscMatrix>(a), x);
    };
    r.spmv[idx(Format::kCOO)] = [](const AnyMatrix& a,
                                   const std::vector<value_t>& x) {
      return spmv_coo(std::get<CooMatrix>(a), x);
    };
    r.spmv[idx(Format::kDense)] = [](const AnyMatrix& a,
                                     const std::vector<value_t>& x) {
      return spmv_dense(std::get<DenseMatrix>(a), x);
    };
    r.spmv[idx(Format::kELL)] = [](const AnyMatrix& a,
                                   const std::vector<value_t>& x) {
      return spmv_ell(std::get<EllMatrix>(a), x);
    };
    r.spmv[idx(Format::kBSR)] = [](const AnyMatrix& a,
                                   const std::vector<value_t>& x) {
      return spmv_bsr(std::get<BsrMatrix>(a), x);
    };

    // SpMM with a dense factor: four native A formats.
    r.spmm[idx(Format::kCSR)] = [](const AnyMatrix& a, const DenseMatrix& b) {
      return spmm_csr_dense(std::get<CsrMatrix>(a), b);
    };
    r.spmm[idx(Format::kCSC)] = [](const AnyMatrix& a, const DenseMatrix& b) {
      return spmm_csc_dense(std::get<CscMatrix>(a), b);
    };
    r.spmm[idx(Format::kCOO)] = [](const AnyMatrix& a, const DenseMatrix& b) {
      return spmm_coo_dense(std::get<CooMatrix>(a), b);
    };
    r.spmm[idx(Format::kDense)] = [](const AnyMatrix& a, const DenseMatrix& b) {
      return gemm(std::get<DenseMatrix>(a), b);
    };

    // Two-compressed-operand SpMM: the §III-B ACF pairs.
    r.spmm_pair[pair_idx(Format::kDense, Format::kDense)] =
        [](const AnyMatrix& a, const AnyMatrix& b) {
          return gemm(std::get<DenseMatrix>(a), std::get<DenseMatrix>(b));
        };
    r.spmm_pair[pair_idx(Format::kCOO, Format::kDense)] =
        [](const AnyMatrix& a, const AnyMatrix& b) {
          return spmm_coo_dense(std::get<CooMatrix>(a),
                                std::get<DenseMatrix>(b));
        };
    r.spmm_pair[pair_idx(Format::kCSR, Format::kDense)] =
        [](const AnyMatrix& a, const AnyMatrix& b) {
          return spmm_csr_dense(std::get<CsrMatrix>(a),
                                std::get<DenseMatrix>(b));
        };
    r.spmm_pair[pair_idx(Format::kCSC, Format::kDense)] =
        [](const AnyMatrix& a, const AnyMatrix& b) {
          return spmm_csc_dense(std::get<CscMatrix>(a),
                                std::get<DenseMatrix>(b));
        };
    r.spmm_pair[pair_idx(Format::kDense, Format::kCSC)] =
        [](const AnyMatrix& a, const AnyMatrix& b) {
          return spmm_dense_csc(std::get<DenseMatrix>(a),
                                std::get<CscMatrix>(b));
        };
    r.spmm_pair[pair_idx(Format::kCSR, Format::kCSC)] =
        [](const AnyMatrix& a, const AnyMatrix& b) {
          return spmm_csr_csc(std::get<CsrMatrix>(a), std::get<CscMatrix>(b));
        };

    // SpTTM: three native tensor ACFs.
    r.ttm[idx(Format::kCOO)] = [](const AnyTensor& x, const DenseMatrix& u) {
      return spttm_coo(std::get<CooTensor3>(x), u);
    };
    r.ttm[idx(Format::kCSF)] = [](const AnyTensor& x, const DenseMatrix& u) {
      return spttm_csf(std::get<CsfTensor3>(x), u);
    };
    r.ttm[idx(Format::kDense)] = [](const AnyTensor& x, const DenseMatrix& u) {
      return ttm_dense(std::get<DenseTensor3>(x), u);
    };

    // MTTKRP: four native tensor ACFs (HiCOO beyond the seed set).
    r.mttkrp[idx(Format::kCOO)] = [](const AnyTensor& x, const DenseMatrix& b,
                                     const DenseMatrix& c) {
      return mttkrp_coo(std::get<CooTensor3>(x), b, c);
    };
    r.mttkrp[idx(Format::kCSF)] = [](const AnyTensor& x, const DenseMatrix& b,
                                     const DenseMatrix& c) {
      return mttkrp_csf(std::get<CsfTensor3>(x), b, c);
    };
    r.mttkrp[idx(Format::kHiCOO)] = [](const AnyTensor& x,
                                       const DenseMatrix& b,
                                       const DenseMatrix& c) {
      return mttkrp_hicoo(std::get<HicooTensor3>(x), b, c);
    };
    r.mttkrp[idx(Format::kDense)] = [](const AnyTensor& x,
                                       const DenseMatrix& b,
                                       const DenseMatrix& c) {
      return mttkrp_dense(std::get<DenseTensor3>(x), b, c);
    };
    return r;
  }();
  return reg;
}

Dispatch make_dispatch(Kernel k, Format fa) {
  Dispatch d;
  d.kernel = k;
  d.given_a = d.ran_a = fa;
  d.backend = BackendKind::kCpu;
  d.tier = simd_enabled() ? ExecTier::kSimd : ExecTier::kScalar;
  return d;
}

Dispatch make_pair_dispatch(Kernel k, Format fa, Format fb) {
  Dispatch d = make_dispatch(k, fa);
  d.has_b = true;
  d.given_b = d.ran_b = fb;
  return d;
}

// Reports a single-sparse-operand call on format `f` into `d` and returns
// the format it runs in (runnable(k, f)).
Format route(Kernel k, Format f, Dispatch* d) {
  auto info = make_dispatch(k, f);
  info.ran_a = runnable(k, f);
  if (info.ran_a != f) info.path = Path::kFallback;
  if (d != nullptr) *d = info;
  return info.ran_a;
}

}  // namespace

std::string Dispatch::describe() const {
  std::ostringstream os;
  os << name_of(kernel) << " over " << name_of(given_a);
  if (has_b) os << '/' << name_of(given_b);
  os << ": " << name_of(path);
  if (path == Path::kFallback) {
    os << " via " << name_of(ran_a);
    if (has_b) os << '/' << name_of(ran_b);
  }
  return os.str();
}

std::vector<value_t> spmv(const AnyMatrix& a, const std::vector<value_t>& x,
                          Dispatch* d) {
  const Format f = format_of(a);
  const Format ran = route(Kernel::kSpMV, f, d);
  const SpmvFn fn = registry().spmv[idx(ran)];
  return ran == f ? fn(a, x) : fn(convert(a, ran), x);
}

DenseMatrix spmm(const AnyMatrix& a, const DenseMatrix& b, Dispatch* d) {
  const Format f = format_of(a);
  const Format ran = route(Kernel::kSpMM, f, d);
  const SpmmFn fn = registry().spmm[idx(ran)];
  return ran == f ? fn(a, b) : fn(convert(a, ran), b);
}

DenseMatrix spmm(const AnyMatrix& a, const AnyMatrix& b, Dispatch* d) {
  const Format fa = format_of(a), fb = format_of(b);
  // Dense x Dense is the GEMM kernel; report it as such.
  const Kernel k = fa == Format::kDense && fb == Format::kDense
                       ? Kernel::kGemm
                       : Kernel::kSpMM;
  auto info = make_pair_dispatch(k, fa, fb);
  std::tie(info.ran_a, info.ran_b) = runnable_pair(fa, fb);
  if (info.ran_a != fa || info.ran_b != fb) info.path = Path::kFallback;
  if (d != nullptr) *d = info;
  const PairFn fn = registry().spmm_pair[pair_idx(info.ran_a, info.ran_b)];
  // A repair only ever re-formats A to CSR and densifies B.
  std::optional<AnyMatrix> ca, cb;
  if (info.ran_a != fa) ca = convert(a, info.ran_a);
  if (info.ran_b != fb) cb = AnyMatrix(decode(b));
  return fn(ca ? *ca : a, cb ? *cb : b);
}

CsrMatrix spgemm(const AnyMatrix& a, const AnyMatrix& b, Dispatch* d) {
  const Format fa = format_of(a), fb = format_of(b);
  auto info = make_pair_dispatch(Kernel::kSpGEMM, fa, fb);
  const CsrMatrix* pa = std::get_if<CsrMatrix>(&a);
  const CsrMatrix* pb = std::get_if<CsrMatrix>(&b);
  CsrMatrix ca, cb;
  if (pa == nullptr) {
    ca = std::get<CsrMatrix>(convert(a, Format::kCSR));
    pa = &ca;
    info.path = Path::kFallback;
    info.ran_a = Format::kCSR;
  }
  if (pb == nullptr) {
    cb = std::get<CsrMatrix>(convert(b, Format::kCSR));
    pb = &cb;
    info.path = Path::kFallback;
    info.ran_b = Format::kCSR;
  }
  if (d != nullptr) *d = info;
  return spgemm_csr(*pa, *pb);
}

DenseTensor3 ttm(const AnyTensor& x, const DenseMatrix& u, Dispatch* d) {
  const Format f = format_of(x);
  const Format ran = route(Kernel::kSpTTM, f, d);
  const TtmFn fn = registry().ttm[idx(ran)];
  return ran == f ? fn(x, u) : fn(convert(x, ran), u);
}

DenseMatrix mttkrp(const AnyTensor& x, const DenseMatrix& b,
                   const DenseMatrix& c, Dispatch* d) {
  const Format f = format_of(x);
  const Format ran = route(Kernel::kMTTKRP, f, d);
  const MttkrpFn fn = registry().mttkrp[idx(ran)];
  return ran == f ? fn(x, b, c) : fn(convert(x, ran), b, c);
}

DenseMatrix stack_columns(
    const std::vector<const std::vector<value_t>*>& cols) {
  MT_REQUIRE(!cols.empty(), "stack_columns needs at least one vector");
  const index_t rows = static_cast<index_t>(cols.front()->size());
  const index_t n = static_cast<index_t>(cols.size());
  DenseMatrix out(rows, n);
  value_t* po = out.values().data();
  for (index_t j = 0; j < n; ++j) {
    const auto& col = *cols[static_cast<std::size_t>(j)];
    MT_REQUIRE(static_cast<index_t>(col.size()) == rows,
               "stacked vectors must share one length");
    for (index_t r = 0; r < rows; ++r) {
      po[r * n + j] = col[static_cast<std::size_t>(r)];
    }
  }
  return out;
}

DenseMatrix concat_columns(const std::vector<const DenseMatrix*>& blocks) {
  MT_REQUIRE(!blocks.empty(), "concat_columns needs at least one block");
  const index_t rows = blocks.front()->rows();
  index_t total = 0;
  for (const auto* b : blocks) {
    MT_REQUIRE(b->rows() == rows, "concatenated blocks must share row count");
    total += b->cols();
  }
  DenseMatrix out(rows, total);
  value_t* po = out.values().data();
  index_t at = 0;
  for (const auto* b : blocks) {
    const index_t w = b->cols();
    const value_t* pb = b->values().data();
    for (index_t r = 0; r < rows; ++r) {
      for (index_t c = 0; c < w; ++c) {
        po[r * total + at + c] = pb[r * w + c];
      }
    }
    at += w;
  }
  return out;
}

DenseMatrix column_block(const DenseMatrix& m, index_t col0, index_t ncols) {
  MT_REQUIRE(col0 >= 0 && ncols >= 0 && col0 + ncols <= m.cols(),
             "column block must lie inside the matrix");
  DenseMatrix out(m.rows(), ncols);
  const value_t* pm = m.values().data();
  value_t* po = out.values().data();
  const index_t stride = m.cols();
  for (index_t r = 0; r < m.rows(); ++r) {
    for (index_t c = 0; c < ncols; ++c) {
      po[r * ncols + c] = pm[r * stride + col0 + c];
    }
  }
  return out;
}

std::vector<value_t> column_of(const DenseMatrix& m, index_t c) {
  MT_REQUIRE(c >= 0 && c < m.cols(), "column index in range");
  std::vector<value_t> out(static_cast<std::size_t>(m.rows()));
  const value_t* pm = m.values().data();
  const index_t stride = m.cols();
  for (index_t r = 0; r < m.rows(); ++r) {
    out[static_cast<std::size_t>(r)] = pm[r * stride + c];
  }
  return out;
}

bool has_native(Kernel k, Format f) {
  const auto& reg = registry();
  switch (k) {
    case Kernel::kGemm: return f == Format::kDense;
    case Kernel::kSpMV: return reg.spmv[idx(f)] != nullptr;
    case Kernel::kSpMM: return reg.spmm[idx(f)] != nullptr;
    case Kernel::kSpGEMM: return f == Format::kCSR;
    case Kernel::kSpTTM: return reg.ttm[idx(f)] != nullptr;
    case Kernel::kMTTKRP: return reg.mttkrp[idx(f)] != nullptr;
  }
  return false;
}

bool has_native_pair(Format fa, Format fb) {
  return registry().spmm_pair[pair_idx(fa, fb)] != nullptr;
}

Format fallback_format(Kernel k) {
  switch (k) {
    case Kernel::kGemm: return Format::kDense;
    case Kernel::kSpMV:
    case Kernel::kSpMM:
    case Kernel::kSpGEMM: return Format::kCSR;
    case Kernel::kSpTTM:
    case Kernel::kMTTKRP: return Format::kCSF;
  }
  return Format::kDense;
}

Format runnable(Kernel k, Format f) {
  return has_native(k, f) ? f : fallback_format(k);
}

std::pair<Format, Format> runnable_pair(Format fa, Format fb) {
  if (has_native_pair(fa, fb)) return {fa, fb};
  if (has_native_pair(fa, Format::kDense)) return {fa, Format::kDense};
  if (has_native_pair(Format::kCSR, fb)) return {Format::kCSR, fb};
  return {Format::kCSR, Format::kDense};
}

std::vector<Format> supported_formats(Kernel k) {
  if (k == Kernel::kGemm) return {Format::kDense};
  if (is_tensor_kernel(k)) {
    return {Format::kDense, Format::kCOO, Format::kCSF,
            Format::kHiCOO, Format::kZVC, Format::kRLC};
  }
  return {Format::kDense, Format::kCOO, Format::kCSR,
          Format::kCSC,   Format::kRLC, Format::kZVC,
          Format::kBSR,   Format::kDIA, Format::kELL};
}

}  // namespace mt::exec
