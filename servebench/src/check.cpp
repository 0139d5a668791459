#include "check.hpp"

#include <cstring>
#include <variant>

#include "exec/backend.hpp"

namespace servebench {

Sampler::Sampler(int every, std::uint64_t seed, int cap_per_kernel)
    : every_(std::max(1, every)), cap_(cap_per_kernel) {
  mt::Prng rng(seed);
  for (auto& o : offset_) {
    o = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(every_)));
  }
}

namespace {

std::size_t bytes_of(const mt::runtime::Result& r) {
  if (const auto* v = std::get_if<std::vector<value_t>>(&r)) {
    return v->size() * sizeof(value_t);
  }
  if (const auto* m = std::get_if<mt::DenseMatrix>(&r)) {
    return static_cast<std::size_t>(m->size()) * sizeof(value_t);
  }
  if (const auto* c = std::get_if<mt::CsrMatrix>(&r)) {
    return c->values().size() * (sizeof(value_t) + sizeof(index_t)) +
           c->row_ptr().size() * sizeof(index_t);
  }
  return static_cast<std::size_t>(std::get<mt::DenseTensor3>(r).size()) *
         sizeof(value_t);
}

}  // namespace

void Sampler::offer(const Sent& s, Response&& r) {
  const auto k = static_cast<std::size_t>(s.rec.kernel);
  const auto n = seen_[k]++;
  if ((n + offset_[k]) % every_ != 0 || kept_[k] >= cap_) return;
  const std::size_t bytes = bytes_of(r.result);
  if (bytes_ + bytes > kMaxBytes) return;
  bytes_ += bytes;
  ++kept_[k];
  CheckItem c;
  c.kernel = s.rec.kernel;
  c.dispatch = r.stats.dispatch;
  c.op_a = s.op_a;
  c.op_b = s.op_b;
  c.op_x = s.op_x;
  c.payload = s.payload;
  c.result = std::move(r.result);
  items_.push_back(std::move(c));
}

namespace {

using mt::exec::JobOutput;

// The call the server made for this response, made again.
JobOutput recompute(const CheckItem& c) {
  const auto& d = c.dispatch;
  if (mt::is_tensor_kernel(c.kernel)) {
    const mt::AnyTensor rep = mt::convert(c.op_x->t, d.given_a);
    if (c.kernel == Kernel::kMTTKRP) {
      return mt::exec::mttkrp(rep, *c.payload.dense_b, *c.payload.dense_c);
    }
    return mt::exec::ttm(rep, *c.payload.dense_b);
  }
  const mt::AnyMatrix rep_a = mt::convert(c.op_a->m, d.given_a);
  switch (c.kernel) {
    case Kernel::kSpMV:
      if (d.kernel == Kernel::kSpMM) {
        // Coalescible plans serve SpMV through the width-1 SpMM twin
        // (the batched-equals-unbatched contract).
        const mt::DenseMatrix b =
            mt::exec::stack_columns({c.payload.vec.get()});
        return mt::exec::column_of(mt::exec::spmm(rep_a, b), 0);
      }
      return mt::exec::spmv(rep_a, *c.payload.vec);
    case Kernel::kSpMM:
      return mt::exec::spmm(rep_a, *c.payload.dense_b);
    case Kernel::kSpGEMM: {
      const mt::AnyMatrix rep_b = mt::convert(c.op_b->m, d.given_b);
      return mt::exec::spgemm(rep_a, rep_b);
    }
    default:
      break;
  }
  throw std::logic_error("unchecked kernel");
}

template <class V>
bool same_values(const V& a, const V& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

bool same_bits(const JobOutput& x, const JobOutput& y) {
  if (x.index() != y.index()) return false;
  if (const auto* a = std::get_if<std::vector<value_t>>(&x)) {
    return same_values(*a, std::get<std::vector<value_t>>(y));
  }
  if (const auto* a = std::get_if<mt::DenseMatrix>(&x)) {
    const auto& b = std::get<mt::DenseMatrix>(y);
    return a->rows() == b.rows() && a->cols() == b.cols() &&
           same_values(a->values(), b.values());
  }
  if (const auto* a = std::get_if<mt::CsrMatrix>(&x)) {
    const auto& b = std::get<mt::CsrMatrix>(y);
    return a->rows() == b.rows() && a->cols() == b.cols() &&
           a->row_ptr() == b.row_ptr() && a->col_ids() == b.col_ids() &&
           same_values(a->values(), b.values());
  }
  const auto& a = std::get<mt::DenseTensor3>(x);
  const auto& b = std::get<mt::DenseTensor3>(y);
  return a.dim_x() == b.dim_x() && a.dim_y() == b.dim_y() &&
         a.dim_z() == b.dim_z() && same_values(a.values(), b.values());
}

mt::DenseMatrix to_dense(index_t rows, index_t cols,
                         const std::vector<double>& v) {
  mt::DenseMatrix m(rows, cols);
  auto& out = m.values();
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = static_cast<value_t>(v[i]);
  }
  return m;
}

// Dense double-precision reference from the client's COO copies.
JobOutput reference(const CheckItem& c) {
  if (mt::is_tensor_kernel(c.kernel)) {
    const auto& x = c.op_x->tcoo;
    const auto& xi = x.x_ids();
    const auto& yi = x.y_ids();
    const auto& zi = x.z_ids();
    const auto& xv = x.values();
    const auto& b = *c.payload.dense_b;
    const index_t r = b.cols();
    if (c.kernel == Kernel::kMTTKRP) {
      const auto& cm = *c.payload.dense_c;
      std::vector<double> m(static_cast<std::size_t>(x.dim_x() * r), 0.0);
      for (std::size_t e = 0; e < xv.size(); ++e) {
        for (index_t q = 0; q < r; ++q) {
          m[static_cast<std::size_t>(xi[e] * r + q)] +=
              static_cast<double>(xv[e]) * b.at(yi[e], q) * cm.at(zi[e], q);
        }
      }
      return to_dense(x.dim_x(), r, m);
    }
    mt::DenseTensor3 y(x.dim_x(), x.dim_y(), r);
    std::vector<double> acc(static_cast<std::size_t>(y.size()), 0.0);
    for (std::size_t e = 0; e < xv.size(); ++e) {
      for (index_t q = 0; q < r; ++q) {
        acc[static_cast<std::size_t>((xi[e] * x.dim_y() + yi[e]) * r + q)] +=
            static_cast<double>(xv[e]) * b.at(zi[e], q);
      }
    }
    for (std::size_t i = 0; i < acc.size(); ++i) {
      y.values()[i] = static_cast<value_t>(acc[i]);
    }
    return y;
  }
  const auto& a = c.op_a->coo;
  const auto& ar = a.row_ids();
  const auto& ac = a.col_ids();
  const auto& av = a.values();
  switch (c.kernel) {
    case Kernel::kSpMV: {
      const auto& x = *c.payload.vec;
      std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
      for (std::size_t e = 0; e < av.size(); ++e) {
        y[static_cast<std::size_t>(ar[e])] +=
            static_cast<double>(av[e]) * x[static_cast<std::size_t>(ac[e])];
      }
      std::vector<value_t> out(y.size());
      for (std::size_t i = 0; i < y.size(); ++i) {
        out[i] = static_cast<value_t>(y[i]);
      }
      return out;
    }
    case Kernel::kSpMM: {
      const auto& b = *c.payload.dense_b;
      const index_t w = b.cols();
      std::vector<double> y(static_cast<std::size_t>(a.rows() * w), 0.0);
      for (std::size_t e = 0; e < av.size(); ++e) {
        for (index_t q = 0; q < w; ++q) {
          y[static_cast<std::size_t>(ar[e] * w + q)] +=
              static_cast<double>(av[e]) * b.at(ac[e], q);
        }
      }
      return to_dense(a.rows(), w, y);
    }
    case Kernel::kSpGEMM: {
      const auto& bm = c.op_b->coo;
      const index_t n = bm.cols();
      // B's entries by row.
      std::vector<std::vector<std::size_t>> rows(
          static_cast<std::size_t>(bm.rows()));
      for (std::size_t e = 0; e < bm.values().size(); ++e) {
        rows[static_cast<std::size_t>(bm.row_ids()[e])].push_back(e);
      }
      std::vector<double> y(static_cast<std::size_t>(a.rows() * n), 0.0);
      for (std::size_t e = 0; e < av.size(); ++e) {
        for (const auto f : rows[static_cast<std::size_t>(ac[e])]) {
          y[static_cast<std::size_t>(ar[e] * n + bm.col_ids()[f])] +=
              static_cast<double>(av[e]) * bm.values()[f];
        }
      }
      return mt::dense_to_csr(to_dense(a.rows(), n, y));
    }
    default:
      break;
  }
  throw std::logic_error("unchecked kernel");
}

}  // namespace

CheckReport check_outputs(const std::vector<CheckItem>& items) {
  CheckReport rep;
  for (const auto& c : items) {
    ++rep.checked;
    const std::string what = std::string(mt::name_of(c.kernel)) + " on " +
                             (c.op_x ? c.op_x->label : c.op_a->label);
    if (!same_bits(recompute(c), c.result)) {
      ++rep.bitwise_mismatches;
      if (rep.first_problem.empty()) {
        rep.first_problem = what + ": differs bitwise from " +
                            c.dispatch.describe();
      }
    }
    const double err = mt::exec::max_rel_error(reference(c), c.result);
    rep.worst_reference_error = std::max(rep.worst_reference_error, err);
    if (!(err <= kRefTolerance)) {
      ++rep.reference_mismatches;
      if (rep.first_problem.empty()) {
        rep.first_problem = what + ": dense reference error " +
                            std::to_string(err);
      }
    }
  }
  return rep;
}

}  // namespace servebench
