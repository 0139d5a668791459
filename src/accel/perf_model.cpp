#include "accel/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace mt {

namespace {

// On-chip energy shared by all kernels: every performed MAC reads its
// stationary operand from the PE buffer; every streamed element crosses
// the bus; loads write buffers; drains write the global scratchpad.
double onchip_energy(const EnergyParams& e, const AccelConfig& cfg,
                     std::int64_t performed_macs, std::int64_t streamed,
                     std::int64_t loaded, std::int64_t drained) {
  const double mac = e.mac_energy_j(cfg.dtype);
  const double sram_pe = e.sram_energy_j(cfg.dtype, /*small_buffer=*/true);
  const double sram_gb = e.sram_energy_j(cfg.dtype, /*small_buffer=*/false);
  const double noc = e.noc_j_per_32b_hop * bits_of(cfg.dtype) / 32.0;
  return static_cast<double>(performed_macs) * (mac + sram_pe) +
         static_cast<double>(streamed) * (noc + sram_gb) +
         static_cast<double>(loaded) * (sram_pe + noc) +
         static_cast<double>(drained) * sram_gb;
}

void finalize(PerfResult& r, const AccelConfig& cfg, const EnergyParams& e,
              std::int64_t loaded, std::int64_t drained) {
  const double cap_slots = static_cast<double>(r.phases.stream_cycles) *
                           static_cast<double>(cfg.bus_slots());
  r.bus_occupancy =
      cap_slots == 0.0 ? 0.0 : static_cast<double>(r.streamed_elems) / cap_slots;
  const double mac_capacity = static_cast<double>(r.total_cycles()) *
                              static_cast<double>(cfg.total_macs());
  r.pe_utilization =
      mac_capacity == 0.0 ? 0.0
                          : static_cast<double>(r.useful_macs) / mac_capacity;
  r.compute_energy_j =
      onchip_energy(e, cfg, r.performed_macs, r.streamed_elems, loaded, drained);
}

// Packets of a row run of `len` (>= 1) elements at `cap` per packet.
// Runs in sparse operands rarely fill a packet, so they skip the divide.
std::int64_t run_packets(std::int64_t len, index_t cap) {
  return len <= cap ? 1 : ceil_div(len, cap);
}

// One sweep over A's rows. Columns ascend within a row, so a row's
// entries in one K pass are one contiguous segment: one row run of that
// pass's stream, at most kt long. A row's next segment usually starts in
// the next pass, so only a gap of a whole pass or more divides.
std::vector<PassStream> stream_by_pass(const CsrMatrix& a, index_t kt,
                                       std::int64_t k_passes, index_t cap) {
  std::vector<PassStream> ps(static_cast<std::size_t>(k_passes));
  const auto& ptr = a.row_ptr();
  const auto& cols = a.col_ids();
  for (index_t r = 0; r < a.rows(); ++r) {
    const index_t end = ptr[static_cast<std::size_t>(r) + 1];
    index_t i = ptr[static_cast<std::size_t>(r)];
    if (i == end) continue;
    index_t p = cols[static_cast<std::size_t>(i)] / kt;
    index_t pass_end = (p + 1) * kt;
    for (;;) {
      index_t j = i + 1;
      while (j < end && cols[static_cast<std::size_t>(j)] < pass_end) ++j;
      PassStream& s = ps[static_cast<std::size_t>(p)];
      s.cycles += run_packets(j - i, cap);
      s.elems += j - i;
      ++s.rows_touched;
      if (j == end) break;
      const index_t c = cols[static_cast<std::size_t>(j)];
      p = c < pass_end + kt ? p + 1 : c / kt;
      pass_end = (p + 1) * kt;
      i = j;
    }
  }
  return ps;
}

// Bus cost of streaming A's slice of one K pass (height `kh`) under acf_a.
struct StreamCost {
  std::int64_t cycles = 0;
  std::int64_t streamed = 0;
  std::int64_t rows_touched = 0;
};

StreamCost stream_cost(index_t a_rows, Format acf_a, const PassStream& ps,
                       index_t kh, index_t cap) {
  if (acf_a == Format::kDense) {
    return {a_rows * ceil_div(kh, cap), a_rows * kh, a_rows};
  }
  if (acf_a == Format::kCSR) return {ps.cycles, ps.elems, ps.rows_touched};
  // COO: triplets may mix rows freely.
  return {ceil_div(ps.elems, cap), ps.elems, ps.rows_touched};
}

}  // namespace

const std::vector<PassStream>& PassStreams::at(index_t kt,
                                               const AccelConfig& cfg) {
  // Packets are counted at CSR's payload whatever the ACF: Dense and COO
  // never read the count.
  const index_t cap = payload_per_packet(Format::kCSR, cfg);
  for (const auto& s : sweeps_) {
    if (s.kt == kt && s.cap == cap) return s.passes;
  }
  sweeps_.push_back(
      {kt, cap, stream_by_pass(a_, kt, ceil_div(a_.cols(), kt), cap)});
  return sweeps_.back().passes;
}

MatmulOperands::MatmulOperands(const CsrMatrix& a, const CsrMatrix& b)
    : a_streams(a), n(b.cols()), b_nnz(b.nnz()) {
  MT_REQUIRE(a.cols() == b.rows(), "inner dimensions must agree");
  a_col_nnz.assign(static_cast<std::size_t>(a.cols()), 0);
  for (index_t c : a.col_ids()) ++a_col_nnz[static_cast<std::size_t>(c)];

  // One counting pass by column over B's rows leaves the row ids
  // ascending within every column.
  b_col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index_t c : b.col_ids()) ++b_col_ptr[static_cast<std::size_t>(c) + 1];
  std::partial_sum(b_col_ptr.begin(), b_col_ptr.end(), b_col_ptr.begin());
  std::vector<index_t> cursor(b_col_ptr.begin(), b_col_ptr.end() - 1);
  b_row_ids.resize(static_cast<std::size_t>(b_nnz));
  const auto& ptr = b.row_ptr();
  const auto& cols = b.col_ids();
  for (index_t r = 0; r < b.rows(); ++r) {
    const index_t begin = ptr[static_cast<std::size_t>(r)];
    const index_t end = ptr[static_cast<std::size_t>(r) + 1];
    useful_macs += (end - begin) * a_col_nnz[static_cast<std::size_t>(r)];
    for (index_t i = begin; i < end; ++i) {
      const auto c = static_cast<std::size_t>(cols[static_cast<std::size_t>(i)]);
      b_row_ids[static_cast<std::size_t>(cursor[c]++)] = r;
    }
  }
}

const std::vector<CscPassLoad>& MatmulOperands::csc_loads(index_t kt,
                                                          index_t num_pes) {
  for (const auto& s : csc_sweeps_) {
    if (s.kt == kt && s.num_pes == num_pes) return s.loads;
  }
  const std::int64_t k_passes = ceil_div(a_streams.a().cols(), kt);
  std::vector<CscPassLoad> loads(
      static_cast<std::size_t>(ceil_div(n, num_pes) * k_passes));
  // Rows ascend within a column, so each of a column's K passes is one
  // contiguous run of its row ids: that PE's whole load in the pass.
  for (index_t j = 0; j < n; ++j) {
    CscPassLoad* tile = &loads[static_cast<std::size_t>(j / num_pes * k_passes)];
    const index_t end = b_col_ptr[static_cast<std::size_t>(j) + 1];
    for (index_t i = b_col_ptr[static_cast<std::size_t>(j)]; i < end;) {
      const index_t p = b_row_ids[static_cast<std::size_t>(i)] / kt;
      const index_t pass_end = (p + 1) * kt;
      std::int64_t nnz = 0;
      std::int64_t useful = 0;
      for (; i < end && b_row_ids[static_cast<std::size_t>(i)] < pass_end; ++i) {
        ++nnz;
        useful += a_col_nnz[static_cast<std::size_t>(
            b_row_ids[static_cast<std::size_t>(i)])];
      }
      CscPassLoad& l = tile[p];
      l.load_elems += 2 * nnz;
      l.max_pe_nnz = std::max(l.max_pe_nnz, nnz);
      l.max_pe_useful = std::max(l.max_pe_useful, useful);
    }
  }
  csc_sweeps_.push_back({kt, num_pes, std::move(loads)});
  return csc_sweeps_.back().loads;
}

PerfResult model_matmul(const CsrMatrix& a, const CsrMatrix& b, Format acf_a,
                        Format acf_b, const AccelConfig& cfg,
                        const EnergyParams& energy) {
  MatmulOperands ops(a, b);
  return model_matmul(ops, acf_a, acf_b, cfg, energy);
}

PerfResult model_matmul(const CooMatrix& a, const CooMatrix& b, Format acf_a,
                        Format acf_b, const AccelConfig& cfg,
                        const EnergyParams& energy) {
  return model_matmul(CsrMatrix::from_coo(a), CsrMatrix::from_coo(b), acf_a,
                      acf_b, cfg, energy);
}

PerfResult model_matmul(MatmulOperands& ops, Format acf_a, Format acf_b,
                        const AccelConfig& cfg, const EnergyParams& energy) {
  cfg.validate();
  MT_REQUIRE(is_stream_acf(acf_a), "A must use a streaming ACF");
  MT_REQUIRE(is_stationary_acf(acf_b), "B must use a stationary ACF");

  const index_t m = ops.a_streams.a().rows();
  const index_t k = ops.a_streams.a().cols();
  const index_t n = ops.n;
  const index_t slots = cfg.bus_slots();
  const index_t buf = cfg.buffer_elems();
  const index_t cap = payload_per_packet(acf_a, cfg);

  // K-pass height from buffer occupancy (paper §IV: "a buffer entry can be
  // treated as either data or metadata"). Dense columns need one element
  // per K row; CSC columns need two buffer elements per nonzero, so the
  // pass height scales with 1/density of B.
  index_t kt;
  if (acf_b == Format::kDense) {
    kt = std::min<index_t>(k, buf);
  } else {
    const double density_b =
        static_cast<double>(ops.b_nnz) /
        (static_cast<double>(k) * std::max<double>(1.0, static_cast<double>(n)));
    const auto cap_pairs = static_cast<double>(buf / 2);
    kt = density_b <= 0.0 ? k : static_cast<index_t>(cap_pairs / density_b);
    kt = std::clamp<index_t>(kt, 1, k);
  }

  PerfResult res;
  res.n_tiles = ceil_div(n, cfg.num_pes);
  res.k_passes = ceil_div(k, kt);
  const auto& pass_stream = ops.a_streams.at(kt, cfg);

  // Every ACF pair matches the same pairs of nonzeros. A CSC B performs
  // one MAC per match, or one per A row under a Dense-ACF A; a Dense B
  // performs one per streamed element per PE (counted per pass below).
  const bool csc_b = acf_b == Format::kCSC;
  const bool dense_a = acf_a == Format::kDense;
  const std::vector<CscPassLoad>* csc =
      csc_b ? &ops.csc_loads(kt, cfg.num_pes) : nullptr;
  res.useful_macs = ops.useful_macs;
  if (csc_b) res.performed_macs = dense_a ? m * ops.b_nnz : ops.useful_macs;

  std::int64_t loaded_total = 0;
  std::int64_t drained_total = 0;

  for (index_t t = 0; t < res.n_tiles; ++t) {
    const index_t j0 = t * cfg.num_pes;
    const index_t j1 = std::min(j0 + cfg.num_pes, n);
    for (index_t p = 0; p < res.k_passes; ++p) {
      const index_t k0 = p * kt;
      const index_t k1 = std::min(k0 + kt, k);
      const auto& ps = pass_stream[static_cast<std::size_t>(p)];

      // --- Stream ---
      const StreamCost s = stream_cost(m, acf_a, ps, k1 - k0, cap);
      res.phases.stream_cycles += s.cycles;
      res.streamed_elems += s.streamed;

      // --- Load + match counting over B's nonzeros in this tile/pass ---
      std::int64_t load_elems = 0;
      std::int64_t max_pe_performed = 0;
      if (csc_b) {
        const auto& l = (*csc)[static_cast<std::size_t>(t * res.k_passes + p)];
        load_elems = l.load_elems;
        max_pe_performed = dense_a ? m * l.max_pe_nnz : l.max_pe_useful;
      } else {
        // Every PE holds the full K-range column and MACs every streamed
        // element, zeros in the buffer included.
        load_elems = (j1 - j0) * (k1 - k0);
        max_pe_performed = s.streamed;
        res.performed_macs += s.streamed * (j1 - j0);
      }
      loaded_total += load_elems;
      res.phases.load_cycles += ceil_div(load_elems, slots);

      const std::int64_t cc = static_cast<std::int64_t>(
          std::ceil(static_cast<double>(max_pe_performed) /
                    cfg.pe_consume_rate(acf_a, acf_b)));
      res.phases.compute_cycles += cc;
      res.phases.overlap_cycles += std::max(s.cycles, cc);

      const std::int64_t drained = s.rows_touched * (j1 - j0);
      drained_total += drained;
      res.phases.drain_cycles += ceil_div(drained, slots);
    }
  }

  finalize(res, cfg, energy, loaded_total, drained_total);
  return res;
}

PerfResult model_matmul_dense_b(const CsrMatrix& a, index_t n, Format acf_a,
                                Format acf_b, const AccelConfig& cfg,
                                const EnergyParams& energy) {
  PassStreams streams(a);
  return model_matmul_dense_b(streams, n, acf_a, acf_b, cfg, energy);
}

PerfResult model_matmul_dense_b(const CooMatrix& a, index_t n, Format acf_a,
                                Format acf_b, const AccelConfig& cfg,
                                const EnergyParams& energy) {
  return model_matmul_dense_b(CsrMatrix::from_coo(a), n, acf_a, acf_b, cfg,
                              energy);
}

PerfResult model_matmul_dense_b(PassStreams& streams, index_t n, Format acf_a,
                                Format acf_b, const AccelConfig& cfg,
                                const EnergyParams& energy) {
  cfg.validate();
  MT_REQUIRE(n > 0, "positive output width");
  MT_REQUIRE(is_stream_acf(acf_a), "A must use a streaming ACF");
  MT_REQUIRE(is_stationary_acf(acf_b), "B must use a stationary ACF");

  const index_t m = streams.a().rows();
  const index_t k = streams.a().cols();
  const index_t slots = cfg.bus_slots();
  const index_t buf = cfg.buffer_elems();
  const index_t cap = payload_per_packet(acf_a, cfg);
  // A fully dense column needs one buffer element per row under Dense ACF
  // and a (row_id, value) pair per row under CSC (every row is a nonzero).
  const index_t elems_per_row = acf_b == Format::kDense ? 1 : 2;
  const index_t kt = std::clamp<index_t>(buf / elems_per_row, 1, k);

  PerfResult res;
  res.n_tiles = ceil_div(n, cfg.num_pes);
  res.k_passes = ceil_div(k, kt);
  const auto& pass_stream = streams.at(kt, cfg);

  std::int64_t loaded_total = 0, drained_total = 0;
  for (index_t t = 0; t < res.n_tiles; ++t) {
    const index_t j0 = t * cfg.num_pes;
    const index_t j1 = std::min(j0 + cfg.num_pes, n);
    const index_t width = j1 - j0;
    for (index_t p = 0; p < res.k_passes; ++p) {
      const index_t k0 = p * kt;
      const index_t k1 = std::min(k0 + kt, k);
      const auto& ps = pass_stream[static_cast<std::size_t>(p)];

      const StreamCost s = stream_cost(m, acf_a, ps, k1 - k0, cap);
      res.phases.stream_cycles += s.cycles;
      res.streamed_elems += s.streamed;

      // B fully dense: every streamed element matches in every PE; useful
      // equals performed for compressed streams (A's zeros never ship).
      const std::int64_t load_elems = width * (k1 - k0) * elems_per_row;
      loaded_total += load_elems;
      res.phases.load_cycles += ceil_div(load_elems, slots);
      res.performed_macs += s.streamed * width;
      res.useful_macs += ps.elems * width;

      const std::int64_t cc = static_cast<std::int64_t>(
          std::ceil(static_cast<double>(s.streamed) /
                    cfg.pe_consume_rate(acf_a, acf_b)));
      res.phases.compute_cycles += cc;
      res.phases.overlap_cycles += std::max(s.cycles, cc);

      const std::int64_t drained = s.rows_touched * width;
      drained_total += drained;
      res.phases.drain_cycles += ceil_div(drained, slots);
    }
  }
  finalize(res, cfg, energy, loaded_total, drained_total);
  return res;
}

std::int64_t tensor_stream_cycles(const CooTensor3& x, Format acf_t,
                                  const AccelConfig& cfg) {
  const index_t slots = cfg.bus_slots();
  switch (acf_t) {
    case Format::kDense: {
      // Linearized cells with a positional header per packet.
      const std::int64_t cells = x.dim_x() * x.dim_y() * x.dim_z();
      return ceil_div(cells, slots - 1);
    }
    case Format::kCOO:
      // (value, x, y, z) quadruples.
      return ceil_div(x.nnz(), std::max<index_t>(1, slots / 4));
    case Format::kCSF: {
      // Tree stream: one x id per slice, (y id + fiber header) per fiber,
      // (z id, value) per leaf.
      std::int64_t n1 = 0, n2 = 0;
      index_t px = -1, py = -1;
      for (std::int64_t i = 0; i < x.nnz(); ++i) {
        if (x.x_ids()[i] != px) {
          ++n1;
          px = x.x_ids()[i];
          py = -1;
        }
        if (x.y_ids()[i] != py) {
          ++n2;
          py = x.y_ids()[i];
        }
      }
      return ceil_div(n1 + 2 * n2 + 2 * x.nnz(), slots);
    }
    default:
      MT_REQUIRE(false, "tensor ACF must be Dense/COO/CSF");
  }
  return 0;
}

PerfResult model_spttm(const CooTensor3& x, index_t r, Format acf_t,
                       const AccelConfig& cfg, const EnergyParams& energy) {
  cfg.validate();
  MT_REQUIRE(r > 0, "positive factor rank");
  const index_t slots = cfg.bus_slots();
  const std::int64_t cells = x.dim_x() * x.dim_y() * x.dim_z();

  PerfResult res;
  res.n_tiles = ceil_div(r, cfg.num_pes);
  // PE holds U(:, r): one dense column of Z elements.
  res.k_passes = ceil_div(x.dim_z(), cfg.buffer_elems());

  // Distinct (x,y) fibers = dense output rows to drain.
  std::int64_t n2 = 0;
  {
    index_t px = -1, py = -1;
    for (std::int64_t i = 0; i < x.nnz(); ++i) {
      if (x.x_ids()[i] != px || x.y_ids()[i] != py) {
        ++n2;
        px = x.x_ids()[i];
        py = x.y_ids()[i];
      }
    }
  }

  const std::int64_t sc = tensor_stream_cycles(x, acf_t, cfg);
  std::int64_t loaded_total = 0, drained_total = 0;
  for (std::int64_t t = 0; t < res.n_tiles; ++t) {
    const index_t width = std::min<index_t>(cfg.num_pes, r - t * cfg.num_pes);
    // The K (Z) passes partition the stream; their total equals one full
    // tensor stream per output tile.
    res.phases.stream_cycles += sc;
    const std::int64_t streamed = acf_t == Format::kDense ? cells : x.nnz();
    res.streamed_elems += streamed;
    // Every streamed element MACs once in every PE of the tile (dense U
    // never misses); Dense ACF also MACs the zeros it streams. Compressed
    // streams pay the indexing-unit rate (coordinates gather irregularly).
    const std::int64_t per_pe = streamed;
    const std::int64_t cc = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(per_pe) /
                  cfg.pe_consume_rate(acf_t, Format::kDense)));
    res.phases.compute_cycles += cc;
    res.phases.overlap_cycles += std::max(sc, cc);
    res.performed_macs += per_pe * width;
    res.useful_macs += x.nnz() * width;

    const std::int64_t load_elems = static_cast<std::int64_t>(x.dim_z()) * width;
    loaded_total += load_elems;
    res.phases.load_cycles += ceil_div(load_elems, slots);

    const std::int64_t rows = acf_t == Format::kDense
                                  ? x.dim_x() * x.dim_y()
                                  : n2;
    const std::int64_t drained = rows * width;
    drained_total += drained;
    res.phases.drain_cycles += ceil_div(drained, slots);
  }
  finalize(res, cfg, energy, loaded_total, drained_total);
  return res;
}

PerfResult model_mttkrp(const CooTensor3& x, index_t r, Format acf_t,
                        const AccelConfig& cfg, const EnergyParams& energy) {
  cfg.validate();
  MT_REQUIRE(r > 0, "positive factor rank");
  const index_t slots = cfg.bus_slots();
  const std::int64_t cells = x.dim_x() * x.dim_y() * x.dim_z();

  PerfResult res;
  res.n_tiles = ceil_div(r, cfg.num_pes);
  // PE holds B(:, r) and C(:, r): Y + Z dense elements. When they exceed
  // the buffer, the factor columns are reloaded in slices and the tensor
  // is re-streamed once per slice (the nonzeros needing a given slice are
  // not contiguous, unlike the matmul K-pass case).
  res.k_passes = ceil_div(x.dim_y() + x.dim_z(), cfg.buffer_elems());

  const std::int64_t sc = tensor_stream_cycles(x, acf_t, cfg);
  std::int64_t loaded_total = 0, drained_total = 0;
  for (std::int64_t t = 0; t < res.n_tiles; ++t) {
    const index_t width = std::min<index_t>(cfg.num_pes, r - t * cfg.num_pes);
    for (std::int64_t p = 0; p < res.k_passes; ++p) {
      res.phases.stream_cycles += sc;
      const std::int64_t streamed = acf_t == Format::kDense ? cells : x.nnz();
      res.streamed_elems += streamed;
      // Two MACs per element per PE: v * B(j,r), then * C(k,r). Work is
      // divided across passes (each pass covers a slice of B/C rows).
      const std::int64_t per_pe =
          ceil_div(2 * streamed, std::max<std::int64_t>(1, res.k_passes));
      const std::int64_t cc = static_cast<std::int64_t>(
          std::ceil(static_cast<double>(per_pe) /
                    cfg.pe_consume_rate(acf_t, Format::kDense)));
      res.phases.compute_cycles += cc;
      res.phases.overlap_cycles += std::max(sc, cc);
      res.performed_macs += per_pe * width;
    }
    res.useful_macs += 2 * x.nnz() * width;

    const std::int64_t load_elems =
        static_cast<std::int64_t>(x.dim_y() + x.dim_z()) * width;
    loaded_total += load_elems;
    res.phases.load_cycles += ceil_div(load_elems, slots);

    const std::int64_t drained = static_cast<std::int64_t>(x.dim_x()) * width;
    drained_total += drained;
    res.phases.drain_cycles += ceil_div(drained, slots);
  }
  finalize(res, cfg, energy, loaded_total, drained_total);
  return res;
}

}  // namespace mt
