#include <bit>

#include "common/error.hpp"
#include "convert/convert.hpp"

namespace mt {

namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

// Formats that decode to COO in O(nnz) without a dense intermediate (RLC
// counts: Fig. 8d gives it direct COO pipelines; ZVC and ELL scan their
// mask words and slots). DIA, which no serving workload stores, still
// decodes through the dense linearization.
bool coo_decodable(Format f) {
  return f == Format::kCOO || f == Format::kCSR || f == Format::kCSC ||
         f == Format::kRLC || f == Format::kBSR || f == Format::kZVC ||
         f == Format::kELL;
}

// Formats the hub encodes from COO. ZVC, DIA and ELL are defined over the
// dense linearization and encode from a dense matrix instead.
bool coo_encodable(Format f) {
  return f == Format::kCOO || f == Format::kCSR || f == Format::kCSC ||
         f == Format::kRLC || f == Format::kBSR;
}

CooMatrix zvc_to_coo(const ZvcMatrix& a) {
  // Set bits come out of each mask word lowest first (count trailing
  // zeros, clear lowest bit), so linear positions — and the entries — are
  // row-major ascending. The row advances with the position instead of
  // dividing per nonzero. Zero values are dropped, as the dense decode
  // drops them.
  std::vector<index_t> rows, cols;
  std::vector<value_t> vals;
  rows.reserve(a.values().size());
  cols.reserve(a.values().size());
  vals.reserve(a.values().size());
  const auto& words = a.mask_words();
  std::size_t next = 0;
  index_t row = 0, row_start = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      const auto p = static_cast<index_t>(w * 64) + std::countr_zero(bits);
      MT_ENSURE(next < a.values().size(),
                "ZVC mask has more set bits than values");
      const value_t x = a.values()[next++];
      if (x == 0.0f) continue;
      while (p >= row_start + a.cols()) {
        ++row;
        row_start += a.cols();
      }
      rows.push_back(row);
      cols.push_back(p - row_start);
      vals.push_back(x);
    }
  }
  MT_ENSURE(next == a.values().size(), "ZVC values not fully consumed");
  return CooMatrix::from_entries(a.rows(), a.cols(), std::move(rows),
                                 std::move(cols), std::move(vals));
}

CooMatrix ell_to_coo(const EllMatrix& a) {
  // Row-major slot scan; padding slots (col id -1) and zero values are
  // skipped, as the dense decode skips them.
  std::vector<index_t> rows, cols;
  std::vector<value_t> vals;
  const auto nnz = static_cast<std::size_t>(a.nnz());
  rows.reserve(nnz);
  cols.reserve(nnz);
  vals.reserve(nnz);
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t i = r * a.width(); i < (r + 1) * a.width(); ++i) {
      const index_t c = a.col_ids()[static_cast<std::size_t>(i)];
      if (c < 0) continue;
      MT_ENSURE(c < a.cols(), "ELL col id in range");
      const value_t x = a.values()[static_cast<std::size_t>(i)];
      if (x == 0.0f) continue;
      rows.push_back(r);
      cols.push_back(c);
      vals.push_back(x);
    }
  }
  return CooMatrix::from_entries(a.rows(), a.cols(), std::move(rows),
                                 std::move(cols), std::move(vals));
}

CooMatrix hub_to_coo(const AnyMatrix& m) {
  if (const auto* coo = std::get_if<CooMatrix>(&m)) return *coo;
  if (const auto* csr = std::get_if<CsrMatrix>(&m)) return csr->to_coo();
  if (const auto* csc = std::get_if<CscMatrix>(&m)) return csc->to_coo();
  if (const auto* rlc = std::get_if<RlcMatrix>(&m)) return rlc_to_coo(*rlc);
  if (const auto* zvc = std::get_if<ZvcMatrix>(&m)) return zvc_to_coo(*zvc);
  if (const auto* ell = std::get_if<EllMatrix>(&m)) return ell_to_coo(*ell);
  if (const auto* bsr = std::get_if<BsrMatrix>(&m)) {
    return bsr_to_csr(*bsr).to_coo();
  }
  MT_ENSURE(false, "format has no direct COO path");
}

AnyMatrix hub_from_coo(const CooMatrix& c, Format target) {
  switch (target) {
    case Format::kCSR: return CsrMatrix::from_coo(c);
    case Format::kCSC: return CscMatrix::from_coo(c);
    case Format::kRLC: return coo_to_rlc(c);
    case Format::kBSR: return csr_to_bsr(CsrMatrix::from_coo(c));
    default: MT_ENSURE(false, "format has no direct COO path");
  }
}

}  // namespace

Format format_of(const AnyMatrix& m) {
  return std::visit(
      Overloaded{[](const DenseMatrix&) { return Format::kDense; },
                 [](const CooMatrix&) { return Format::kCOO; },
                 [](const CsrMatrix&) { return Format::kCSR; },
                 [](const CscMatrix&) { return Format::kCSC; },
                 [](const RlcMatrix&) { return Format::kRLC; },
                 [](const ZvcMatrix&) { return Format::kZVC; },
                 [](const BsrMatrix&) { return Format::kBSR; },
                 [](const DiaMatrix&) { return Format::kDIA; },
                 [](const EllMatrix&) { return Format::kELL; }},
      m);
}

index_t rows_of(const AnyMatrix& m) {
  return std::visit([](const auto& x) { return x.rows(); }, m);
}

index_t cols_of(const AnyMatrix& m) {
  return std::visit([](const auto& x) { return x.cols(); }, m);
}

std::int64_t nnz_of(const AnyMatrix& m) {
  return std::visit([](const auto& x) { return x.nnz(); }, m);
}

StorageSize storage_of(const AnyMatrix& m, DataType dt) {
  return std::visit([dt](const auto& x) { return x.storage(dt); }, m);
}

AnyMatrix encode(const DenseMatrix& d, Format target) {
  switch (target) {
    case Format::kDense: return d;
    case Format::kCOO: return CooMatrix::from_dense(d);
    case Format::kCSR: return CsrMatrix::from_dense(d);
    case Format::kCSC: return CscMatrix::from_dense(d);
    case Format::kRLC: return RlcMatrix::from_dense(d);
    case Format::kZVC: return ZvcMatrix::from_dense(d);
    case Format::kBSR: return BsrMatrix::from_dense(d);
    case Format::kDIA: return DiaMatrix::from_dense(d);
    case Format::kELL: return EllMatrix::from_dense(d);
    case Format::kCSF:
    case Format::kHiCOO:
      MT_REQUIRE(false, "CSF/HiCOO are tensor formats");
  }
  MT_ENSURE(false, "unhandled format");
}

DenseMatrix decode(const AnyMatrix& m) {
  return std::visit(
      Overloaded{[](const DenseMatrix& x) { return x; },
                 [](const auto& x) { return x.to_dense(); }},
      m);
}

AnyMatrix convert(const AnyMatrix& m, Format target) {
  if (format_of(m) == target) return m;
  // Direct fast paths first (the conversions MINT implements natively).
  if (const auto* csr = std::get_if<CsrMatrix>(&m)) {
    if (target == Format::kCSC) return csr_to_csc(*csr);
    if (target == Format::kBSR) return csr_to_bsr(*csr);
    if (target == Format::kCOO) return csr->to_coo();
  }
  if (const auto* csc = std::get_if<CscMatrix>(&m)) {
    if (target == Format::kCSR) return csc_to_csr(*csc);
    if (target == Format::kCOO) return csc->to_coo();
  }
  if (const auto* rlc = std::get_if<RlcMatrix>(&m)) {
    if (target == Format::kCOO) return rlc_to_coo(*rlc);
  }
  if (const auto* coo = std::get_if<CooMatrix>(&m)) {
    if (target == Format::kCSR) return CsrMatrix::from_coo(*coo);
    if (target == Format::kCSC) return CscMatrix::from_coo(*coo);
  }
  if (const auto* bsr = std::get_if<BsrMatrix>(&m)) {
    if (target == Format::kCSR) return bsr_to_csr(*bsr);
  }
  // COO hub (paper §V-B: "COO enables fast translation to other formats"):
  // every MCF but DIA reaches COO in O(nnz), and COO/CSR/CSC/RLC/BSR are
  // built from it; only a DIA source or a ZVC/DIA/ELL target (defined over
  // the dense linearization) goes through a dense intermediate.
  if (coo_decodable(format_of(m)) && coo_encodable(target)) {
    // A COO source feeds the hub converters directly — no copy of the
    // operand is ever made (the serving runtime's conversion cache relies
    // on const-ref conversion from shared, read-only representations).
    if (const auto* coo = std::get_if<CooMatrix>(&m)) {
      return hub_from_coo(*coo, target);
    }
    CooMatrix hub = hub_to_coo(m);
    if (target == Format::kCOO) return AnyMatrix(std::move(hub));
    // The hub is a temporary: CSR takes over its column ids.
    if (target == Format::kCSR) return CsrMatrix::from_coo(std::move(hub));
    return hub_from_coo(hub, target);
  }
  return encode(decode(m), target);
}

// --- Tensor layer ---

Format format_of(const AnyTensor& t) {
  return std::visit(
      Overloaded{[](const DenseTensor3&) { return Format::kDense; },
                 [](const CooTensor3&) { return Format::kCOO; },
                 [](const CsfTensor3&) { return Format::kCSF; },
                 [](const HicooTensor3&) { return Format::kHiCOO; },
                 [](const ZvcTensor3&) { return Format::kZVC; },
                 [](const RlcTensor3&) { return Format::kRLC; }},
      t);
}

std::int64_t nnz_of(const AnyTensor& t) {
  return std::visit([](const auto& x) { return x.nnz(); }, t);
}

StorageSize storage_of(const AnyTensor& t, DataType dt) {
  return std::visit([dt](const auto& x) { return x.storage(dt); }, t);
}

AnyTensor encode(const DenseTensor3& d, Format target) {
  switch (target) {
    case Format::kDense: return d;
    case Format::kCOO: return CooTensor3::from_dense(d);
    case Format::kCSF: return CsfTensor3::from_dense(d);
    case Format::kHiCOO: return HicooTensor3::from_coo(CooTensor3::from_dense(d));
    case Format::kZVC: return ZvcTensor3::from_dense(d);
    case Format::kRLC: return RlcTensor3::from_dense(d);
    default:
      MT_REQUIRE(false, "matrix-only format for a tensor");
  }
  MT_ENSURE(false, "unhandled format");
}

DenseTensor3 decode(const AnyTensor& t) {
  return std::visit(
      Overloaded{[](const DenseTensor3& x) { return x; },
                 [](const HicooTensor3& x) { return x.to_coo().to_dense(); },
                 [](const auto& x) { return x.to_dense(); }},
      t);
}

AnyTensor convert(const AnyTensor& t, Format target) {
  if (format_of(t) == target) return t;
  if (const auto* coo = std::get_if<CooTensor3>(&t)) {
    if (target == Format::kCSF) return CsfTensor3::from_coo(*coo);
    if (target == Format::kHiCOO) return HicooTensor3::from_coo(*coo);
  }
  if (const auto* csf = std::get_if<CsfTensor3>(&t)) {
    if (target == Format::kCOO) return csf->to_coo();
    if (target == Format::kHiCOO) return HicooTensor3::from_coo(csf->to_coo());
  }
  if (const auto* h = std::get_if<HicooTensor3>(&t)) {
    if (target == Format::kCOO) return h->to_coo();
    if (target == Format::kCSF) return CsfTensor3::from_coo(h->to_coo());
  }
  return encode(decode(t), target);
}

}  // namespace mt
