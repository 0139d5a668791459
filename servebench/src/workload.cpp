#include "workload.hpp"

#include <algorithm>
#include <deque>
#include <future>
#include <numeric>
#include <stdexcept>

#include "workloads/synth.hpp"

namespace servebench {

namespace {

using mt::runtime::now_ns;

// Independent generator streams derived from the run seed, so adding a
// draw to one stream never shifts another.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

Operand make_matrix(const std::string& label, index_t n, double density,
                    Format mcf, std::uint64_t seed) {
  Operand o;
  o.label = label;
  const auto nnz = static_cast<std::int64_t>(
      density * static_cast<double>(n) * static_cast<double>(n));
  o.coo = mt::synth_coo_matrix(n, n, nnz, seed);
  o.m = mt::convert(mt::AnyMatrix(o.coo), mcf);
  o.mcf = mcf;
  o.nnz = o.coo.nnz();
  return o;
}

Operand make_tensor(const std::string& label, index_t dim, double density,
                    std::uint64_t seed) {
  Operand o;
  o.label = label;
  o.tensor = true;
  const auto d = static_cast<double>(dim);
  const auto nnz = static_cast<std::int64_t>(density * d * d * d);
  o.tcoo = mt::synth_coo_tensor(dim, dim, dim, nnz, seed);
  o.t = mt::AnyTensor(o.tcoo);
  o.mcf = Format::kCOO;
  o.nnz = o.tcoo.nnz();
  return o;
}

std::shared_ptr<const std::vector<value_t>> random_vec(index_t n,
                                                       mt::Prng& rng) {
  auto v = std::make_shared<std::vector<value_t>>(static_cast<std::size_t>(n));
  for (auto& x : *v) x = rng.next_value(-1.0f, 1.0f);
  return v;
}

std::shared_ptr<const mt::DenseMatrix> random_dense(index_t rows, index_t cols,
                                                    mt::Prng& rng) {
  auto m = std::make_shared<mt::DenseMatrix>(rows, cols);
  for (auto& x : m->values()) x = rng.next_value(-1.0f, 1.0f);
  return m;
}

index_t dim_of(const Operand& o) {
  return o.tensor ? o.tcoo.dim_x() : o.coo.cols();
}

// Template over matrix operand(s) `a` (and `b`), payload drawn from `rng`.
Template matrix_template(Kernel k, int a, int b, const Operand& op_a,
                         index_t width, double weight, mt::Prng& rng) {
  Template t;
  t.kernel = k;
  t.a = a;
  t.b = b;
  t.weight = weight;
  if (k == Kernel::kSpMV) {
    t.payload.vec = random_vec(dim_of(op_a), rng);
  } else if (k == Kernel::kSpMM) {
    t.payload.dense_b = random_dense(dim_of(op_a), width, rng);
  }
  return t;
}

Template tensor_template(Kernel k, int x, const Operand& op_x, index_t rank,
                         double weight, mt::Prng& rng) {
  Template t;
  t.kernel = k;
  t.x = x;
  t.weight = weight;
  t.payload.dense_b = random_dense(
      k == Kernel::kSpTTM ? op_x.tcoo.dim_z() : op_x.tcoo.dim_y(), rank, rng);
  if (k == Kernel::kMTTKRP) {
    t.payload.dense_c = random_dense(op_x.tcoo.dim_z(), rank, rng);
  }
  return t;
}

}  // namespace

Request build_request(const Template& t, MatrixHandle a, MatrixHandle b,
                      TensorHandle x) {
  Request r;
  r.kernel = t.kernel;
  r.a = a;
  r.b = b;
  r.x = x;
  if (t.payload.vec) r.vec = *t.payload.vec;
  if (t.payload.dense_b) r.dense_b = *t.payload.dense_b;
  if (t.payload.dense_c) r.dense_c = *t.payload.dense_c;
  return r;
}

namespace {

// A fixed operand set served by one Server; requests draw templates by
// weight. steady_mix and device_auto are both of this shape.
class StaticWorkload : public Workload {
 public:
  StaticWorkload(std::string name, mt::runtime::ServerOptions opts)
      : name_(std::move(name)), opts_(opts) {}

  std::string name() const override { return name_; }
  std::unique_ptr<Target> make_target() const override {
    return std::make_unique<Target>(opts_);
  }
  mt::runtime::ServerOptions server_options() const override { return opts_; }

  std::vector<Operand> ops;
  std::vector<Template> templates;

  // Call after ops/templates are filled in.
  void finish() {
    double acc = 0.0;
    for (const auto& t : templates) {
      acc += t.weight;
      cumulative_.push_back(acc);
    }
    for (auto& c : cumulative_) c /= acc;
    for (auto& t : templates) t.weight /= acc;
  }

  void setup(Target& t, RegistryLog& log) override {
    mh_.assign(ops.size(), {});
    th_.assign(ops.size(), {});
    // Each operand: register, then its first request; the pair is the
    // operand's time to first answer.
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Operand& op = ops[i];
      const auto t0 = now_ns();
      if (op.tensor) {
        mt::AnyTensor copy = op.t;
        const auto r0 = now_ns();
        th_[i] = t.register_tensor(std::move(copy));
        log.register_ns.add(static_cast<double>(now_ns() - r0));
      } else {
        mt::AnyMatrix copy = op.m;
        const auto r0 = now_ns();
        mh_[i] = t.register_matrix(std::move(copy));
        log.register_ns.add(static_cast<double>(now_ns() - r0));
      }
      // The operand's first request: its first template whose operands
      // are all registered by now.
      const int ii = static_cast<int>(i);
      const auto first = std::find_if(
          templates.begin(), templates.end(), [&](const Template& tm) {
            return (tm.a == ii && tm.b <= ii) || tm.x == ii;
          });
      if (first == templates.end()) continue;
      (void)t.submit(request_for(*first)).get();
      log.cold_ns.add(static_cast<double>(now_ns() - t0));
    }
    // Every steady plan once, then a burst from the mix so each serving
    // worker's kernel thread team has run before anything is timed.
    std::vector<std::future<Response>> futs;
    for (const auto& tm : templates) futs.push_back(t.submit(request_for(tm)));
    for (auto& f : futs) (void)f.get();
    futs.clear();
    mt::Prng rng(0x5EED);
    for (int i = 0; i < 64; ++i) {
      futs.push_back(t.submit(request_for(templates[pick(rng)])));
    }
    for (auto& f : futs) (void)f.get();
  }

  Sent next(Target&, mt::Prng& rng, RegistryLog&) override {
    const std::size_t i = pick(rng);
    const Template& tm = templates[i];
    Sent s;
    s.req = request_for(tm);
    s.rec.kernel = tm.kernel;
    s.rec.a = s.req.a.id;
    s.rec.b = s.req.b.id;
    s.rec.x = s.req.x.id;
    s.op_a = tm.a >= 0 ? &ops[static_cast<std::size_t>(tm.a)] : nullptr;
    s.op_b = tm.b >= 0 ? &ops[static_cast<std::size_t>(tm.b)] : nullptr;
    s.op_x = tm.x >= 0 ? &ops[static_cast<std::size_t>(tm.x)] : nullptr;
    s.payload = tm.payload;
    return s;
  }

  void teardown(Target& t, RegistryLog& log) override {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto r0 = now_ns();
      if (ops[i].tensor) {
        t.evict(th_[i]);
      } else {
        t.evict(mh_[i]);
      }
      log.evict_ns.add(static_cast<double>(now_ns() - r0));
    }
  }

  std::vector<Shape> shapes() const override {
    std::vector<Shape> out;
    for (const auto& tm : templates) {
      Shape s;
      s.tmpl = tm;
      s.op_a = tm.a >= 0 ? &ops[static_cast<std::size_t>(tm.a)] : nullptr;
      s.op_b = tm.b >= 0 ? &ops[static_cast<std::size_t>(tm.b)] : nullptr;
      s.op_x = tm.x >= 0 ? &ops[static_cast<std::size_t>(tm.x)] : nullptr;
      s.req = request_for(tm);
      out.push_back(std::move(s));
    }
    return out;
  }

 private:
  std::size_t pick(mt::Prng& rng) const {
    const double u = rng.next_double();
    const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - cumulative_.begin()),
        templates.size() - 1);
  }

  Request request_for(const Template& tm) const {
    const auto mh = [&](int i) {
      return i >= 0 ? mh_[static_cast<std::size_t>(i)] : MatrixHandle{};
    };
    const TensorHandle x =
        tm.x >= 0 ? th_[static_cast<std::size_t>(tm.x)] : TensorHandle{};
    return build_request(tm, mh(tm.a), mh(tm.b), x);
  }

  std::string name_;
  mt::runtime::ServerOptions opts_;
  std::vector<double> cumulative_;
  std::vector<MatrixHandle> mh_;
  std::vector<TensorHandle> th_;
};

// steady_mix: one operand per memory format, 1k-2k square, densities from
// 0.5% to 30%, Zipf(1) popularity in the order listed (the hot CSR operand
// fills batch windows). Kernel mix SpMV 50 / SpMM 25 / SpGEMM 10 /
// MTTKRP 10 / SpTTM 5. Plans and representations are warm after setup.
// SpMM factors are 16 wide: the dense GEMM kernel takes a path ~40x
// slower per flop below width 16, and a few 17 ms requests in the mix
// would put the percentiles on the edge of that cluster.
std::unique_ptr<Workload> steady_mix(std::uint64_t seed) {
  auto w = std::make_unique<StaticWorkload>("steady_mix",
                                            mt::runtime::ServerOptions{});
  struct Spec {
    const char* label;
    index_t n;
    double density;
    Format mcf;
  };
  const Spec specs[] = {
      {"csr_1024_1pct", 1024, 0.01, Format::kCSR},
      {"coo_1024_0.5pct", 1024, 0.005, Format::kCOO},
      {"dense_1024_30pct", 1024, 0.30, Format::kDense},
      {"rlc_2048_0.5pct", 2048, 0.005, Format::kRLC},
      {"ell_1536_1pct", 1536, 0.01, Format::kELL},
      {"csc_1536_0.5pct", 1536, 0.005, Format::kCSC},
      {"bsr_1024_5pct", 1024, 0.05, Format::kBSR},
      {"zvc_1024_10pct", 1024, 0.10, Format::kZVC},
  };
  std::uint64_t k = 0;
  for (const auto& s : specs) {
    w->ops.push_back(
        make_matrix(s.label, s.n, s.density, s.mcf, sub_seed(seed, ++k)));
  }
  w->ops.push_back(make_tensor("tensor_128_1pct", 128, 0.01, sub_seed(seed, ++k)));
  const int tensor = static_cast<int>(w->ops.size()) - 1;

  mt::Prng rng(sub_seed(seed, 100));
  constexpr int kMats = 8;
  double zipf[kMats];
  double h = 0.0;
  for (int i = 0; i < kMats; ++i) h += 1.0 / (i + 1);
  for (int i = 0; i < kMats; ++i) zipf[i] = 1.0 / (i + 1) / h;
  for (int i = 0; i < kMats; ++i) {
    w->templates.push_back(matrix_template(
        Kernel::kSpMV, i, -1, w->ops[static_cast<std::size_t>(i)], 1,
        0.50 * zipf[i], rng));
  }
  for (int i = 0; i < kMats; ++i) {
    w->templates.push_back(matrix_template(
        Kernel::kSpMM, i, -1, w->ops[static_cast<std::size_t>(i)], 16,
        0.25 * zipf[i], rng));
  }
  // SpGEMM: the three 1024-square operands sparse enough for a
  // millisecond-scale product, each times the 0.5% COO operand.
  const int pair_a[] = {0, 1, 6};
  double pz = 0.0;
  for (const int a : pair_a) pz += zipf[a];
  for (const int a : pair_a) {
    w->templates.push_back(matrix_template(
        Kernel::kSpGEMM, a, 1, w->ops[static_cast<std::size_t>(a)], 0,
        0.10 * zipf[a] / pz, rng));
  }
  const Operand& t = w->ops[static_cast<std::size_t>(tensor)];
  w->templates.push_back(
      tensor_template(Kernel::kMTTKRP, tensor, t, 16, 0.10, rng));
  w->templates.push_back(
      tensor_template(Kernel::kSpTTM, tensor, t, 8, 0.05, rng));
  w->finish();
  w->low_rps = 1300;
  w->high_rps = 2900;
  w->slo_us = 20000;
  w->check_every = 64;
  return w;
}

// device_auto: modeled offload (mint) behind the async submission ring,
// latency simulated, kAuto routing. Small operands price cheaper on the
// host, large ones offload.
std::unique_ptr<Workload> device_auto(std::uint64_t seed) {
  mt::runtime::ServerOptions o;
  o.backend.backend = mt::exec::BackendKind::kMint;
  o.backend.policy = mt::runtime::BackendPolicy::kAuto;
  o.backend.async = true;
  o.backend.simulate_latency = true;
  auto w = std::make_unique<StaticWorkload>("device_auto", o);
  w->ops.push_back(make_matrix("csr_256_4pct", 256, 0.04, Format::kCSR,
                               sub_seed(seed, 1)));
  w->ops.push_back(make_matrix("coo_512_1pct", 512, 0.01, Format::kCOO,
                               sub_seed(seed, 2)));
  w->ops.push_back(make_matrix("csr_1024_2pct", 1024, 0.02, Format::kCSR,
                               sub_seed(seed, 3)));
  w->ops.push_back(make_matrix("csc_2048_1pct", 2048, 0.01, Format::kCSC,
                               sub_seed(seed, 4)));
  w->ops.push_back(make_matrix("rlc_768_2pct", 768, 0.02, Format::kRLC,
                               sub_seed(seed, 5)));
  mt::Prng rng(sub_seed(seed, 100));
  for (int i = 0; i < 5; ++i) {
    w->templates.push_back(matrix_template(
        Kernel::kSpMV, i, -1, w->ops[static_cast<std::size_t>(i)], 1, 0.10,
        rng));
  }
  w->templates.push_back(
      matrix_template(Kernel::kSpMM, 0, -1, w->ops[0], 2, 0.15, rng));
  w->templates.push_back(
      matrix_template(Kernel::kSpMM, 2, -1, w->ops[2], 16, 0.15, rng));
  w->templates.push_back(
      matrix_template(Kernel::kSpGEMM, 1, 1, w->ops[1], 0, 0.10, rng));
  w->templates.push_back(
      matrix_template(Kernel::kSpGEMM, 0, 0, w->ops[0], 0, 0.10, rng));
  w->finish();
  w->low_rps = 1500;
  w->high_rps = 3300;
  w->slo_us = 20000;
  w->check_every = 64;
  return w;
}

// operand_churn: a ShardedServer (2 shards x 1 worker) fed a cyclic pool
// of pre-generated operands under fresh handles. Every fourth request
// registers the next pool operand and touches it first; the rest hit the
// 16 newest live operands in rotation, with a fixed kernel pattern (SpMV
// 40 / SpMM 35 / SpGEMM 25, the SpGEMM as a per-size anchor times the live
// operand, so pairs cross shards and the live operand's replica is purged
// on eviction). The stream is deterministic apart from the operands'
// values and the arrival times, which come from the seed.
class ChurnWorkload : public Workload {
 public:
  static constexpr std::size_t kLive = 16;

  explicit ChurnWorkload(std::uint64_t seed) {
    const index_t sizes[] = {512, 640, 768, 1024};
    const double densities[] = {0.005, 0.01, 0.02, 0.05};
    const Format fmts[] = {Format::kCSR, Format::kCOO, Format::kCSC,
                           Format::kZVC, Format::kRLC, Format::kBSR,
                           Format::kELL};
    // Fixed order of (size, density, format); the seed draws only the
    // values, so runs on different seeds do the same planning and
    // conversion work in the same order. Every run of 16 consecutive pool
    // operands holds each (size, density) once, sizes interleaved.
    std::uint64_t k = 0;
    std::vector<Operand> gen;
    for (int s = 0; s < 4; ++s) {
      for (int d = 0; d < 4; ++d) {
        for (int r = 0; r < 4; ++r) {
          const Format f = fmts[(s * 5 + d * 3 + r) % 7];
          gen.push_back(make_matrix(
              std::string(mt::name_of(f)) + "_" + std::to_string(sizes[s]),
              sizes[s], densities[d], f, sub_seed(seed, ++k)));
        }
      }
    }
    for (std::size_t block = 0; block < 4; ++block) {
      for (std::size_t i = 0; i < 16; ++i) {
        const std::size_t s = i % 4, d = (i / 4 + s) % 4;
        pool_.push_back(std::move(gen[(s * 4 + d) * 4 + block]));
      }
    }
    mt::Prng rng(sub_seed(seed, 300));
    for (int s = 0; s < 4; ++s) {
      anchors_.push_back(make_matrix("anchor_" + std::to_string(sizes[s]),
                                     sizes[s], 0.005, Format::kCSR,
                                     sub_seed(seed, 400 + s)));
      SizeClass c;
      c.n = sizes[s];
      c.spmv = matrix_template(Kernel::kSpMV, 0, -1, anchors_.back(), 1, 0.40,
                               rng);
      c.spmm = matrix_template(Kernel::kSpMM, 0, -1, anchors_.back(), 8, 0.35,
                               rng);
      c.spgemm = matrix_template(Kernel::kSpGEMM, 0, 0, anchors_.back(), 0,
                                 0.25, rng);
      classes_.push_back(std::move(c));
    }
    low_rps = 100;
    high_rps = 170;
    slo_us = 100000;
    check_every = 8;
  }

  std::string name() const override { return "operand_churn"; }
  std::unique_ptr<Target> make_target() const override {
    mt::runtime::ShardedServerOptions o;
    o.num_shards = 2;
    o.shard = server_options();
    return std::make_unique<Target>(o);
  }
  mt::runtime::ServerOptions server_options() const override {
    mt::runtime::ServerOptions o;
    o.num_workers = 1;
    return o;
  }

  void setup(Target& t, RegistryLog& log) override {
    live_.clear();
    next_pool_ = 0;
    seq_ = 0;
    anchor_h_.clear();
    for (const auto& a : anchors_) {
      mt::AnyMatrix copy = a.m;
      const auto r0 = now_ns();
      anchor_h_.push_back(t.register_matrix(std::move(copy)));
      log.register_ns.add(static_cast<double>(now_ns() - r0));
    }
    for (std::size_t i = 0; i < kLive; ++i) register_next(t, log);
    // Warm every plan of the initial live set.
    std::vector<std::future<Response>> futs;
    for (const auto& s : shapes()) futs.push_back(t.submit(s.req));
    for (auto& f : futs) (void)f.get();
    stage_next();
  }

  Sent next(Target& t, mt::Prng&, RegistryLog& log) override {
    Sent s;
    const std::uint64_t seq = seq_++;
    if (seq % 4 == 0) {
      const auto r0 = now_ns();
      const Live& l = register_next(t, log);
      s.rec.cold = true;
      s.rec.reg_start = r0;
      fill(s, l, classes_[l.cls].spmv, Kernel::kSpMV, false);
      retire_idle(t, log);
      return s;
    }
    const std::uint64_t warm = seq - seq / 4 - 1;
    const std::size_t n = std::min(kLive, live_.size());
    const Live& l = live_[live_.size() - 1 - warm % n];
    const SizeClass& c = classes_[l.cls];
    // 20-step kernel pattern: 8 SpMV, 7 SpMM, 5 SpGEMM. Most SpMM and
    // SpGEMM requests are an operand's first of that kind (a SAGE search),
    // so planned requests outnumber plan hits and the median sits inside
    // the planned requests' continuous spread rather than on the edge
    // between hits and misses.
    constexpr char kPattern[] = "VMGVMVGMVMVGMVMGVMVG";
    switch (kPattern[warm % 20]) {
      case 'G':
        fill(s, l, c.spgemm, Kernel::kSpGEMM, true);
        break;
      case 'M':
        fill(s, l, c.spmm, Kernel::kSpMM, false);
        break;
      default:
        fill(s, l, c.spmv, Kernel::kSpMV, false);
    }
    return s;
  }

  // Stages the next cold operand's copy after a cold send, off the
  // registration's clock.
  void after_submit(const Sent& s) override {
    if (s.rec.cold) stage_next();
  }

  void teardown(Target& t, RegistryLog& log) override {
    for (const auto& l : live_) {
      const auto r0 = now_ns();
      t.evict(l.h);
      log.evict_ns.add(static_cast<double>(now_ns() - r0));
    }
    live_.clear();
    for (const auto h : anchor_h_) t.evict(h);
  }

  std::vector<Shape> shapes() const override {
    std::vector<Shape> out;
    const std::size_t n = std::min(kLive, live_.size());
    for (std::size_t i = live_.size() - n; i < live_.size(); ++i) {
      const Live& l = live_[i];
      const SizeClass& c = classes_[l.cls];
      const Operand* op = &pool_[l.pool];
      const Operand* anchor = &anchors_[l.cls];
      const MatrixHandle ah = anchor_h_[l.cls];
      const auto add = [&](const Template& tm, const Operand* a,
                           const Operand* b, MatrixHandle ha, MatrixHandle hb,
                           double weight) {
        Shape s;
        s.tmpl = tm;
        s.tmpl.weight = weight / static_cast<double>(n);
        s.op_a = a;
        s.op_b = b;
        s.req = build_request(tm, ha, hb, {});
        out.push_back(std::move(s));
      };
      add(c.spmv, op, nullptr, l.h, {}, 0.40);
      add(c.spmm, op, nullptr, l.h, {}, 0.35);
      add(c.spgemm, anchor, op, ah, l.h, 0.25);
    }
    return out;
  }

 private:
  struct SizeClass {
    index_t n = 0;
    Template spmv, spmm, spgemm;
  };
  struct Live {
    std::size_t pool = 0;
    std::size_t cls = 0;
    MatrixHandle h;
    std::shared_ptr<std::atomic<int>> inflight;
  };

  std::size_t class_of(const Operand& o) const {
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      if (classes_[c].n == o.coo.rows()) return c;
    }
    throw std::logic_error("pool operand of unknown size");
  }

  void stage_next() {
    staged_pool_ = next_pool_ % pool_.size();
    staged_ = pool_[staged_pool_].m;
    has_staged_ = true;
  }

  const Live& register_next(Target& t, RegistryLog& log) {
    const std::size_t p = next_pool_++ % pool_.size();
    if (!has_staged_ || staged_pool_ != p) {
      staged_ = pool_[p].m;
    }
    has_staged_ = false;
    const auto r0 = now_ns();
    Live l;
    l.h = t.register_matrix(std::move(staged_));
    log.register_ns.add(static_cast<double>(now_ns() - r0));
    l.pool = p;
    l.cls = class_of(pool_[p]);
    l.inflight = std::make_shared<std::atomic<int>>(0);
    live_.push_back(std::move(l));
    return live_.back();
  }

  // Evicts operands past the live window once nothing sent on them is
  // still in flight (an eviction under an in-flight request would fail
  // it, and this workload is defined to have no failures).
  void retire_idle(Target& t, RegistryLog& log) {
    while (live_.size() > kLive &&
           live_.front().inflight->load(std::memory_order_acquire) == 0) {
      const auto r0 = now_ns();
      t.evict(live_.front().h);
      log.evict_ns.add(static_cast<double>(now_ns() - r0));
      live_.pop_front();
    }
  }

  // `pair`: SpGEMM of the size class's anchor times the live operand.
  void fill(Sent& s, const Live& l, const Template& tm, Kernel k, bool pair) {
    const Operand* op = &pool_[l.pool];
    MatrixHandle a = l.h, b{};
    s.op_a = op;
    if (pair) {
      a = anchor_h_[l.cls];
      b = l.h;
      s.op_a = &anchors_[l.cls];
      s.op_b = op;
    }
    s.req = build_request(tm, a, b, {});
    s.rec.kernel = k;
    s.rec.a = a.id;
    s.rec.b = b.id;
    s.payload = tm.payload;
    s.inflight = l.inflight;
    s.inflight->fetch_add(1, std::memory_order_acq_rel);
  }

  std::vector<Operand> pool_;
  std::vector<Operand> anchors_;
  std::vector<SizeClass> classes_;
  std::vector<MatrixHandle> anchor_h_;
  std::deque<Live> live_;
  std::size_t next_pool_ = 0;
  std::uint64_t seq_ = 0;
  mt::AnyMatrix staged_;
  std::size_t staged_pool_ = 0;
  bool has_staged_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "steady_mix") return steady_mix(seed);
  if (name == "device_auto") return device_auto(seed);
  if (name == "operand_churn") return std::make_unique<ChurnWorkload>(seed);
  return nullptr;
}

}  // namespace servebench
