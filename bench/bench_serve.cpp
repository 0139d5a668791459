// bench_serve — load generator for the serving runtime (src/runtime).
//
// Measures what the plan cache and conversion cache buy on
// repeated-workload traffic: the same request mix is driven through a
// server with both caches enabled ("cached") and with both bypassed
// ("bypass" — every request re-runs the SAGE search and re-converts its
// operands, the PR-2 one-shot behavior). Two phases per mode:
//
//   closed-loop  N client threads submit back-to-back -> max throughput
//   open-loop    a dispatcher fires requests on a fixed schedule (the
//                same absolute rate for both modes, set from the cached
//                throughput) -> p50/p99 latency measured from the
//                *scheduled* arrival, so queue buildup in the slow mode
//                is charged to latency, not hidden (no coordinated
//                omission)
//
// A third comparison measures what request batching buys on top of warm
// caches: SpMV-heavy pipelined traffic (each client keeps a window of
// requests in flight against one operand — the many-readers-one-model
// serving shape) driven through BatchPolicy::kWindow vs kOff. Both cache
// modes above run with batching off so their numbers stay comparable to
// the recorded baseline.
//
// A fourth comparison measures what sharding buys at equal compute: the
// same pipelined SpMV traffic over eight operands driven through a
// four-shard ShardedServer (1 worker per shard) vs a single Server with
// four workers. Total worker count, caches, and batching are identical;
// only the number of queue/registry lock domains differs, so the ratio
// isolates the router (ISSUE-5 bar: sharding must not cost throughput,
// ratio >= 1.0; multi-core runners see the contention relief as > 1).
//
// A fifth comparison measures what the telemetry layer costs: the same
// cached pipelined SpMV traffic with full observability (metrics + a
// tracing ring) vs everything off. The ratio obs_on_over_off is the
// ISSUE-8 bar (>= 0.95 — telemetry must cost under 5% of cached-serving
// throughput) and is read by the CI perf-gate.
//
// A sixth comparison measures what the async device submission ring buys
// on a modeled offload backend (mint, simulate_latency on): one serving
// worker either blocks inside every device call — at most one job in
// flight — or submits its whole drained window into the ring and claims
// completions afterwards, overlapping the modeled device latency across
// the ring's executor threads. The ratio device_inflight_over_blocking
// is the ISSUE-9 bar (>= 1.2 — keeping >1 device job in flight per
// worker must buy real throughput) and is read by the CI perf-gate.
//
// Client-side latency is aggregated with obs::Histogram (the same
// log2-bucketed histogram the server exports), so quantiles are bucket
// upper bounds — quantized, allocation-free, and mergeable across client
// threads with no post-hoc sort. Queue-wait quantiles come straight from
// the server's own mt_serve_queue_wait_ns histogram.
//
// Output: human-readable table on stdout plus a JSON record (--out,
// default BENCH_serve.json) with per-mode throughput/latency/cache rates,
// the cached-over-bypass speedup the ISSUE-3 acceptance bar reads, the
// batched-over-unbatched speedup the ISSUE-4 bar (>=1.5x) reads, the
// sharded-over-unsharded speedup the ISSUE-5 bar reads, and the
// obs_on_over_off ratio the ISSUE-8 bar and the CI perf-gate read.
//
// Usage: bench_serve [--smoke] [--out FILE] [--clients N] [--requests N]
//                    [--workers N]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "exec/backend.hpp"
#include "exec/device_ring.hpp"
#include "obs/metrics.hpp"
#include "runtime/router.hpp"
#include "runtime/server.hpp"
#include "workloads/synth.hpp"

namespace {

using namespace mt;
using namespace mt::runtime;

struct Config {
  bool smoke = false;
  std::string out = "BENCH_serve.json";
  int clients = 4;
  int requests = 400;  // per client, closed-loop phase
  int workers = 2;
  int open_loop_requests = 200;
  int trials = 3;  // best-of-N closed-loop runs (noise defense)
  // Batching phase: SpMV-heavy pipelined traffic on one operand.
  int batch_window = 16;
  int spmv_outstanding = 8;   // in-flight requests per client
  int spmv_requests = 1500;   // per client
  // Sharding phase: the same pipelined SpMV traffic spread over several
  // operands, 4 shards x 1 worker vs 1 server x 4 workers.
  int shard_count = 4;
  int shard_operands = 8;
  int shard_requests = 1200;  // per client
  // Device phase: pipelined SpMV through the mint backend, async ring vs
  // blocking offload, 1 serving worker either way.
  int device_ring_workers = 4;
  int device_requests = 300;  // per client
};

struct Operands {
  std::vector<AnyMatrix> mats;
  std::vector<MatrixHandle> handles;
  AnyTensor tensor = AnyTensor(DenseTensor3(1, 1, 1));
  TensorHandle tensor_handle;
  std::vector<value_t> x;
  DenseMatrix spmm_b, mttkrp_b, mttkrp_c;
};

// Log2-bucketed quantiles (us) lifted from an obs::HistogramSnapshot of
// nanosecond samples.
struct Quantiles {
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0;
};

Quantiles quantiles_us(const obs::HistogramSnapshot& s) {
  return {static_cast<double>(s.p50()) / 1e3,
          static_cast<double>(s.p95()) / 1e3,
          static_cast<double>(s.p99()) / 1e3};
}

// The server's own view of time spent queued, read from its exported
// mt_serve_queue_wait_ns histogram (cumulative over the server's life).
Quantiles queue_wait_quantiles(const std::vector<obs::MetricSnapshot>& snap) {
  for (const auto& m : snap) {
    if (m.name == "mt_serve_queue_wait_ns") return quantiles_us(m.hist);
  }
  return {};
}

struct ModeResult {
  double throughput_rps = 0.0;
  Quantiles closed, open, queue_wait;
  double open_rate_rps = 0.0;
  CountersSnapshot counters;
};

ServerOptions make_options(const Config& cfg, bool caches_on) {
  ServerOptions o;
  o.num_workers = cfg.workers;
  o.queue_capacity = 64;
  if (!caches_on) {
    // A zero budget is the bypass: every request searches and converts.
    o.caches.plan_limits.max_entries = 0;
    o.caches.conversion_limits.max_entries = 0;
  }
  // Batching off here: the cached/bypass numbers isolate what the caches
  // buy, and stay comparable to the recorded PR-3 baseline. The batching
  // phase below measures the batcher separately.
  o.batch.policy = BatchPolicy::kOff;
  // Modest accelerator model: the SAGE search space is identical to the
  // paper default's; only the pricing arithmetic inputs differ.
  o.accel.num_pes = 64;
  o.accel.pe_buffer_bytes = 128 * 4;
  return o;
}

Operands register_operands(Server& srv, bool smoke) {
  Operands ops;
  const index_t n = smoke ? 48 : 96;
  const double density = 0.04;
  const Format mcfs[] = {Format::kCSR, Format::kZVC, Format::kCOO,
                         Format::kRLC};
  for (int i = 0; i < 4; ++i) {
    const auto coo = synth_coo_matrix(
        n, n, static_cast<std::int64_t>(density * static_cast<double>(n * n)),
        40 + static_cast<std::uint64_t>(i));
    ops.mats.push_back(convert(AnyMatrix(coo), mcfs[i]));
    ops.handles.push_back(srv.register_matrix(ops.mats.back()));
  }
  ops.tensor = AnyTensor(synth_coo_tensor(16, 14, 12, smoke ? 80 : 250, 44));
  ops.tensor_handle = srv.register_tensor(ops.tensor);

  ops.x.assign(static_cast<std::size_t>(n), 1.0f);
  for (std::size_t i = 0; i < ops.x.size(); ++i) {
    ops.x[i] = 0.25f * static_cast<float>(i % 5);
  }
  const auto dense = [](index_t r, index_t c, std::uint64_t seed) {
    return synth_coo_matrix(r, c, r * c, seed).to_dense();
  };
  ops.spmm_b = dense(n, 16, 45);
  ops.mttkrp_b = dense(14, 8, 46);
  ops.mttkrp_c = dense(12, 8, 47);
  return ops;
}

// The repeated-traffic mix: SpMV- and SpMM-heavy with SpGEMM and MTTKRP
// seasoning, round-robin over the registered operands.
Request make_request(const Operands& ops, int seq) {
  Request r;
  const int roll = seq % 10;
  const std::size_t op = static_cast<std::size_t>(seq) % ops.handles.size();
  if (roll < 4) {
    r.kernel = Kernel::kSpMV;
    r.a = ops.handles[op];
    r.vec = ops.x;
  } else if (roll < 7) {
    r.kernel = Kernel::kSpMM;
    r.a = ops.handles[op];
    r.dense_b = ops.spmm_b;
  } else if (roll < 9) {
    r.kernel = Kernel::kSpGEMM;
    r.a = ops.handles[op];
    r.b = ops.handles[(op + 1) % ops.handles.size()];
  } else {
    r.kernel = Kernel::kMTTKRP;
    r.x = ops.tensor_handle;
    r.dense_b = ops.mttkrp_b;
    r.dense_c = ops.mttkrp_c;
  }
  return r;
}

// Closed-loop: each client thread submits back-to-back (one outstanding
// request per client). Returns throughput; client threads record
// end-to-end latency (ns) straight into the shared histogram — its
// per-thread shards make the concurrent writes contention-free.
double closed_loop(Server& srv, const Operands& ops, int clients,
                   int requests, obs::Histogram& lat_ns) {
  const auto t0 = now_ns();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < requests; ++i) {
        const auto ts = now_ns();
        auto fut = srv.submit(make_request(ops, c * requests + i));
        (void)fut.get();
        lat_ns.record(now_ns() - ts);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return static_cast<double>(clients) * static_cast<double>(requests) /
         wall_s;
}

// Open-loop: submit on a fixed schedule; latency runs from the scheduled
// arrival to response completion (collector drains in FIFO submit order,
// matching the server's FIFO queue).
void open_loop(Server& srv, const Operands& ops, double rate_rps,
               int requests, obs::Histogram& lat_ns) {
  std::vector<std::future<Response>> futs;
  std::vector<std::int64_t> scheduled;
  futs.reserve(static_cast<std::size_t>(requests));
  scheduled.reserve(static_cast<std::size_t>(requests));
  const auto interval_ns =
      static_cast<std::int64_t>(1e9 / std::max(rate_rps, 1.0));
  const auto start = now_ns();
  for (int i = 0; i < requests; ++i) {
    const auto due = start + static_cast<std::int64_t>(i) * interval_ns;
    while (now_ns() < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    scheduled.push_back(due);
    futs.push_back(srv.submit(make_request(ops, i)));
  }
  for (int i = 0; i < requests; ++i) {
    (void)futs[static_cast<std::size_t>(i)].get();
    lat_ns.record(now_ns() - scheduled[static_cast<std::size_t>(i)]);
  }
}

ModeResult run_mode(const Config& cfg, bool caches_on, double open_rate_rps) {
  Server srv(make_options(cfg, caches_on));
  const auto ops = register_operands(srv, cfg.smoke);

  // Best-of-N: a shared 1-core box can deschedule the whole process for
  // milliseconds; the best trial is the one least polluted by unrelated
  // load, and both modes get the same treatment.
  ModeResult r;
  for (int t = 0; t < cfg.trials; ++t) {
    obs::Histogram closed_lat;
    const double thr =
        closed_loop(srv, ops, cfg.clients, cfg.requests, closed_lat);
    if (thr > r.throughput_rps) {
      r.throughput_rps = thr;
      r.closed = quantiles_us(closed_lat.snapshot());
    }
  }

  // Open-loop phase on the same (now warmed) server, so the cached mode's
  // tail reflects steady-state cache hits, not first-touch misses. The
  // rate is either inherited (bypass runs at the cached mode's rate) or
  // derived from this mode's own measured throughput.
  r.open_rate_rps = open_rate_rps > 0.0
                        ? open_rate_rps
                        : std::max(r.throughput_rps * 0.5, 10.0);
  obs::Histogram open_lat;
  open_loop(srv, ops, r.open_rate_rps, cfg.open_loop_requests, open_lat);
  r.open = quantiles_us(open_lat.snapshot());

  r.queue_wait = queue_wait_quantiles(srv.metrics_snapshot());
  r.counters = srv.counters();
  srv.stop();
  return r;
}

// --- Batching phase ---

struct BatchModeResult {
  double throughput_rps = 0.0;
  Quantiles lat, queue_wait;
  CountersSnapshot counters;
  // Device phase only: the ring's in-flight high-water mark (0 elsewhere).
  std::int64_t ring_peak_in_flight = 0;
};

// Pipelined closed-loop: each client keeps `outstanding` SpMV requests in
// flight against one registered operand, so the queue head always holds
// coalescible work — the traffic shape request batching exists for.
// Latency is submit-to-completion per request.
double pipelined_spmv_loop(Server& srv, MatrixHandle h,
                           const std::vector<value_t>& x, int clients,
                           int outstanding, int requests,
                           obs::Histogram& lat_ns) {
  const auto t0 = now_ns();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      std::deque<std::pair<std::future<Response>, std::int64_t>> inflight;
      auto submit_one = [&] {
        Request r;
        r.kernel = Kernel::kSpMV;
        r.a = h;
        r.vec = x;
        inflight.emplace_back(srv.submit(std::move(r)), now_ns());
      };
      auto reap_one = [&] {
        auto [fut, ts] = std::move(inflight.front());
        inflight.pop_front();
        (void)fut.get();
        lat_ns.record(now_ns() - ts);
      };
      for (int i = 0; i < requests; ++i) {
        submit_one();
        if (static_cast<int>(inflight.size()) >= outstanding) reap_one();
      }
      while (!inflight.empty()) reap_one();
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return static_cast<double>(clients) * static_cast<double>(requests) /
         wall_s;
}

BatchModeResult run_batch_mode(const Config& cfg, BatchPolicy policy) {
  ServerOptions o = make_options(cfg, /*caches_on=*/true);
  o.batch.policy = policy;
  o.batch.window = cfg.batch_window;
  Server srv(o);

  // One larger operand, SpMV-only traffic: the thousand-SpMVs-on-one-model
  // pattern. Density 0.04 plans SpMV onto a coalescible ACF (CSR).
  const index_t n = cfg.smoke ? 96 : 256;
  const auto coo = synth_coo_matrix(
      n, n, static_cast<std::int64_t>(0.04 * static_cast<double>(n * n)), 71);
  const auto h = srv.register_matrix(convert(AnyMatrix(coo), Format::kCSR));
  std::vector<value_t> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.125f * static_cast<float>(i % 11) - 0.5f;
  }
  {
    Request warm;  // resolve the plan + ACF rep outside the timed region
    warm.kernel = Kernel::kSpMV;
    warm.a = h;
    warm.vec = x;
    (void)srv.submit(warm).get();
  }

  // Counters are reported as the best trial's delta (not the cumulative
  // warmup+trials total), so the JSON's completed/batches figures describe
  // the same run as the recorded throughput.
  const auto delta = [](const CountersSnapshot& after,
                        const CountersSnapshot& before) {
    CountersSnapshot d = after;
    d.completed -= before.completed;
    d.failed -= before.failed;
    d.plan_hits -= before.plan_hits;
    d.plan_misses -= before.plan_misses;
    d.conversion_hits -= before.conversion_hits;
    d.conversion_misses -= before.conversion_misses;
    d.batches -= before.batches;
    d.batched_requests -= before.batched_requests;
    d.queue_wait_ns -= before.queue_wait_ns;
    d.plan_ns -= before.plan_ns;
    d.convert_ns -= before.convert_ns;
    d.exec_ns -= before.exec_ns;
    return d;
  };

  BatchModeResult r;
  for (int t = 0; t < cfg.trials; ++t) {
    const auto before = srv.counters();
    obs::Histogram lat;
    const double thr =
        pipelined_spmv_loop(srv, h, x, cfg.clients, cfg.spmv_outstanding,
                            cfg.spmv_requests, lat);
    if (thr > r.throughput_rps) {
      r.throughput_rps = thr;
      r.lat = quantiles_us(lat.snapshot());
      r.counters = delta(srv.counters(), before);
    }
  }
  r.queue_wait = queue_wait_quantiles(srv.metrics_snapshot());
  srv.stop();
  return r;
}

// --- Sharding phase ---

// Pipelined SpMV over several registered operands, round-robin: every
// client keeps `outstanding` requests in flight across the operand set,
// so admission pressure spreads over every shard's queue (or piles onto
// the single server's one queue — that contrast is the measurement).
template <typename S>
double pipelined_sharded_loop(S& srv, const std::vector<MatrixHandle>& hs,
                              const std::vector<value_t>& x, int clients,
                              int outstanding, int requests,
                              obs::Histogram& lat_ns) {
  const auto t0 = now_ns();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::deque<std::pair<std::future<Response>, std::int64_t>> inflight;
      int seq = c;  // stagger operand order across clients
      auto submit_one = [&] {
        Request r;
        r.kernel = Kernel::kSpMV;
        r.a = hs[static_cast<std::size_t>(seq++) % hs.size()];
        r.vec = x;
        inflight.emplace_back(srv.submit(std::move(r)), now_ns());
      };
      auto reap_one = [&] {
        auto [fut, ts] = std::move(inflight.front());
        inflight.pop_front();
        (void)fut.get();
        lat_ns.record(now_ns() - ts);
      };
      for (int i = 0; i < requests; ++i) {
        submit_one();
        if (static_cast<int>(inflight.size()) >= outstanding) reap_one();
      }
      while (!inflight.empty()) reap_one();
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return static_cast<double>(clients) * static_cast<double>(requests) /
         wall_s;
}

// Runs the sharding-phase traffic against an already-constructed server
// (Server or ShardedServer — same surface), warming every operand first.
template <typename S>
BatchModeResult measure_shard_mode(const Config& cfg, S& srv) {
  const index_t n = cfg.smoke ? 48 : 96;
  std::vector<MatrixHandle> hs;
  for (int i = 0; i < cfg.shard_operands; ++i) {
    const auto coo = synth_coo_matrix(
        n, n, static_cast<std::int64_t>(0.05 * static_cast<double>(n * n)),
        80 + static_cast<std::uint64_t>(i));
    hs.push_back(srv.register_matrix(convert(AnyMatrix(coo), Format::kCSR)));
  }
  std::vector<value_t> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.25f * static_cast<float>(i % 7) - 0.5f;
  }
  for (const auto& h : hs) {  // plans + ACF reps resolve outside the timing
    Request warm;
    warm.kernel = Kernel::kSpMV;
    warm.a = h;
    warm.vec = x;
    (void)srv.submit(std::move(warm)).get();
  }

  BatchModeResult r;
  for (int t = 0; t < cfg.trials; ++t) {
    obs::Histogram lat;
    const double thr = pipelined_sharded_loop(
        srv, hs, x, cfg.clients, cfg.spmv_outstanding, cfg.shard_requests,
        lat);
    if (thr > r.throughput_rps) {
      r.throughput_rps = thr;
      r.lat = quantiles_us(lat.snapshot());
    }
  }
  r.queue_wait = queue_wait_quantiles(srv.metrics_snapshot());
  r.counters = srv.counters();
  srv.stop();
  return r;
}

BatchModeResult run_shard_mode(const Config& cfg, int num_shards) {
  // Equal total workers either way: num_shards x 1 vs 1 x num_shards.
  // Caches on, batching off — the only variable is how many queue and
  // registry lock domains the same traffic is spread over.
  ServerOptions shard = make_options(cfg, /*caches_on=*/true);
  if (num_shards > 1) {
    shard.num_workers = 1;
    ShardedServerOptions o;
    o.num_shards = num_shards;
    o.shard = shard;
    ShardedServer srv(o);
    return measure_shard_mode(cfg, srv);
  }
  shard.num_workers = cfg.shard_count;
  Server srv(shard);
  return measure_shard_mode(cfg, srv);
}

// --- Telemetry-overhead phase ---

// The same cached pipelined SpMV traffic as the batching phase (batching
// off) with observability fully on (metrics + per-plan/exec histograms +
// a tracing ring sized to keep every span) vs fully off. What survives
// in the ratio is the per-request telemetry cost on the hottest path.
//
// Unlike the other phases, this one keeps the full-size operand and at
// least two trials even under --smoke: the telemetry cost per request is
// a fixed few hundred ns, so shrinking the request's real work inflates
// the measured *ratio* into something no production request would see,
// and a single smoke trial on a shared runner is pure noise.
BatchModeResult run_obs_mode(const Config& cfg, bool obs_on) {
  ServerOptions o = make_options(cfg, /*caches_on=*/true);
  o.obs.metrics = obs_on;
  o.obs.trace_ring_capacity = obs_on ? 4096 : 0;
  Server srv(o);

  const index_t n = 256;
  const auto coo = synth_coo_matrix(
      n, n, static_cast<std::int64_t>(0.04 * static_cast<double>(n * n)), 71);
  const auto h = srv.register_matrix(convert(AnyMatrix(coo), Format::kCSR));
  std::vector<value_t> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.125f * static_cast<float>(i % 11) - 0.5f;
  }
  {
    Request warm;
    warm.kernel = Kernel::kSpMV;
    warm.a = h;
    warm.vec = x;
    (void)srv.submit(warm).get();
  }

  BatchModeResult r;
  const int trials = std::max(cfg.trials, 2);
  for (int t = 0; t < trials; ++t) {
    obs::Histogram lat;
    const double thr =
        pipelined_spmv_loop(srv, h, x, cfg.clients, cfg.spmv_outstanding,
                            cfg.spmv_requests, lat);
    if (thr > r.throughput_rps) {
      r.throughput_rps = thr;
      r.lat = quantiles_us(lat.snapshot());
    }
    if (obs_on) (void)srv.drain_trace();  // a live consumer, as in production
  }
  r.queue_wait = queue_wait_quantiles(srv.metrics_snapshot());
  r.counters = srv.counters();
  srv.stop();
  return r;
}

// --- Async device-backend phase ---

// Pipelined SpMV through the mint (modeled offload) backend with latency
// simulation on, so every device job occupies its modeled wall-clock
// (bounded). One serving worker either blocks inside each device call or
// drains its window into the submission ring before claiming — the only
// variable is whether >1 device job can be in flight per worker. Caches
// are warm in both modes; the serving-side work is identical.
BatchModeResult run_device_mode(const Config& cfg, bool async) {
  ServerOptions o = make_options(cfg, /*caches_on=*/true);
  o.num_workers = 1;
  o.batch.policy = BatchPolicy::kWindow;  // the drained window feeds the ring
  o.batch.window = cfg.batch_window;
  o.backend.backend = exec::BackendKind::kMint;
  o.backend.async = async;
  o.backend.ring_slots = 32;
  o.backend.ring_workers = cfg.device_ring_workers;
  o.backend.simulate_latency = true;
  o.backend.max_simulated_latency_ns = 500'000;  // bound the per-job sleep
  Server srv(o);

  // The batching phase's operand: density 0.04 keeps the modeled offload
  // latency well above the per-request serving overhead, so the measured
  // ratio reflects device-time overlap rather than host bookkeeping.
  const index_t n = cfg.smoke ? 96 : 256;
  const auto coo = synth_coo_matrix(
      n, n, static_cast<std::int64_t>(0.04 * static_cast<double>(n * n)), 71);
  const auto h = srv.register_matrix(convert(AnyMatrix(coo), Format::kCSR));
  std::vector<value_t> x(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.125f * static_cast<float>(i % 11) - 0.5f;
  }
  {
    Request warm;  // resolve the plan + ACF rep outside the timed region
    warm.kernel = Kernel::kSpMV;
    warm.a = h;
    warm.vec = x;
    (void)srv.submit(warm).get();
  }

  BatchModeResult r;
  for (int t = 0; t < cfg.trials; ++t) {
    obs::Histogram lat;
    const double thr =
        pipelined_spmv_loop(srv, h, x, cfg.clients, cfg.spmv_outstanding,
                            cfg.device_requests, lat);
    if (thr > r.throughput_rps) {
      r.throughput_rps = thr;
      r.lat = quantiles_us(lat.snapshot());
    }
  }
  r.queue_wait = queue_wait_quantiles(srv.metrics_snapshot());
  r.counters = srv.counters();
  if (srv.device_ring() != nullptr) {
    r.ring_peak_in_flight = srv.device_ring()->stats().peak_in_flight;
  }
  srv.stop();
  return r;
}

void print_batch_mode(const char* name, const BatchModeResult& r) {
  std::printf(
      "%-9s  %10.0f req/s   p50 %8.1f us  p95 %8.1f us  p99 %8.1f us\n"
      "           queue-wait p50 %8.1f us  p99 %8.1f us\n"
      "           batches %lld, batched %lld/%lld requests (avg size %.1f)\n",
      name, r.throughput_rps, r.lat.p50_us, r.lat.p95_us, r.lat.p99_us,
      r.queue_wait.p50_us, r.queue_wait.p99_us,
      static_cast<long long>(r.counters.batches),
      static_cast<long long>(r.counters.batched_requests),
      static_cast<long long>(r.counters.completed),
      r.counters.avg_batch_size());
}

void print_mode(const char* name, const ModeResult& r) {
  const double n = std::max(1.0, static_cast<double>(r.counters.completed));
  std::printf(
      "%-7s  %10.0f req/s   closed p50 %8.1f us  p95 %8.1f us  "
      "p99 %8.1f us\n"
      "         open   p50 %8.1f us  p99 %8.1f us   queue-wait p50 %8.1f us  "
      "p99 %8.1f us\n"
      "         per-req avg: plan %6.1f us  convert %6.1f us  exec %6.1f us  "
      "queue %6.1f us\n"
      "         plan hit %5.1f%%  conversion hit %5.1f%%  (completed %lld, "
      "failed %lld)\n",
      name, r.throughput_rps, r.closed.p50_us, r.closed.p95_us,
      r.closed.p99_us, r.open.p50_us, r.open.p99_us, r.queue_wait.p50_us,
      r.queue_wait.p99_us, static_cast<double>(r.counters.plan_ns) / n / 1e3,
      static_cast<double>(r.counters.convert_ns) / n / 1e3,
      static_cast<double>(r.counters.exec_ns) / n / 1e3,
      static_cast<double>(r.counters.queue_wait_ns) / n / 1e3,
      100.0 * r.counters.plan_hit_rate(),
      100.0 * r.counters.conversion_hit_rate(),
      static_cast<long long>(r.counters.completed),
      static_cast<long long>(r.counters.failed));
}

void write_json(const Config& cfg, const ModeResult& cached,
                const ModeResult& bypass, double open_rate, double speedup,
                const BatchModeResult& batched,
                const BatchModeResult& unbatched, double batch_speedup,
                const BatchModeResult& sharded,
                const BatchModeResult& unsharded, double shard_speedup,
                const BatchModeResult& obs_on, const BatchModeResult& obs_off,
                double obs_ratio, const BatchModeResult& dev_async,
                const BatchModeResult& dev_blocking, double device_ratio) {
  std::ofstream os(cfg.out);
  auto quantiles = [&](const char* prefix, const Quantiles& q) {
    os << "    \"" << prefix << "p50_us\": " << q.p50_us << ",\n"
       << "    \"" << prefix << "p95_us\": " << q.p95_us << ",\n"
       << "    \"" << prefix << "p99_us\": " << q.p99_us << ",\n";
  };
  auto batch_mode = [&](const char* name, const BatchModeResult& r,
                        bool last) {
    os << "  \"" << name << "\": {\n"
       << "    \"throughput_rps\": " << r.throughput_rps << ",\n";
    quantiles("", r.lat);
    quantiles("queue_wait_", r.queue_wait);
    os << "    \"batches\": " << r.counters.batches << ",\n"
       << "    \"batched_requests\": " << r.counters.batched_requests << ",\n"
       << "    \"avg_batch_size\": " << r.counters.avg_batch_size() << ",\n"
       << "    \"completed\": " << r.counters.completed << ",\n"
       << "    \"failed\": " << r.counters.failed << "\n"
       << "  }" << (last ? "\n" : ",\n");
  };
  auto mode = [&](const char* name, const ModeResult& r, bool last) {
    os << "  \"" << name << "\": {\n"
       << "    \"throughput_rps\": " << r.throughput_rps << ",\n";
    quantiles("closed_loop_", r.closed);
    quantiles("open_loop_", r.open);
    quantiles("queue_wait_", r.queue_wait);
    os << "    \"plan_hit_rate\": " << r.counters.plan_hit_rate() << ",\n"
       << "    \"conversion_hit_rate\": " << r.counters.conversion_hit_rate()
       << ",\n"
       << "    \"completed\": " << r.counters.completed << ",\n"
       << "    \"failed\": " << r.counters.failed << "\n"
       << "  }" << (last ? "\n" : ",\n");
  };
  os << "{\n"
     << "  \"bench\": \"serve\",\n"
     << "  \"smoke\": " << (cfg.smoke ? "true" : "false") << ",\n"
     << "  \"workers\": " << cfg.workers << ",\n"
     << "  \"clients\": " << cfg.clients << ",\n"
     << "  \"requests_per_client\": " << cfg.requests << ",\n"
     << "  \"open_loop_rate_rps\": " << open_rate << ",\n"
     << "  \"batch_window\": " << cfg.batch_window << ",\n"
     << "  \"spmv_outstanding\": " << cfg.spmv_outstanding << ",\n"
     << "  \"num_shards\": " << cfg.shard_count << ",\n"
     << "  \"speedup_cached_over_bypass\": " << speedup << ",\n"
     << "  \"speedup_batched_over_unbatched\": " << batch_speedup << ",\n"
     << "  \"speedup_sharded_over_unsharded\": " << shard_speedup << ",\n"
     << "  \"obs_on_over_off\": " << obs_ratio << ",\n"
     << "  \"device_ring_workers\": " << cfg.device_ring_workers << ",\n"
     << "  \"device_ring_peak_in_flight\": " << dev_async.ring_peak_in_flight
     << ",\n"
     << "  \"device_inflight_over_blocking\": " << device_ratio << ",\n";
  mode("cached", cached, false);
  mode("bypass", bypass, false);
  batch_mode("batched", batched, false);
  batch_mode("unbatched", unbatched, false);
  // The shard phase runs with batching off, so its batches fields read 0.
  batch_mode("sharded", sharded, false);
  batch_mode("unsharded", unsharded, false);
  // Telemetry-overhead phase: obs_off's queue_wait quantiles read 0 (the
  // histogram doesn't exist with metrics off).
  batch_mode("obs_on", obs_on, false);
  batch_mode("obs_off", obs_off, false);
  // Device phase: both run with batching off on the device path (fusion
  // is a host-kernel contract), so their batches fields read 0.
  batch_mode("device_async", dev_async, false);
  batch_mode("device_blocking", dev_blocking, true);
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](int& out) {
      if (i + 1 < argc) out = std::atoi(argv[++i]);
    };
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      cfg.out = argv[++i];
    } else if (arg == "--clients") {
      next(cfg.clients);
    } else if (arg == "--requests") {
      next(cfg.requests);
    } else if (arg == "--workers") {
      next(cfg.workers);
    }
  }
  if (cfg.smoke) {
    cfg.clients = std::min(cfg.clients, 2);
    // Enough repeated traffic that the cache/batching *ratios* are
    // meaningful (the CI perf-gate reads them): with only a handful of
    // requests the first-touch misses dominate the cached mode and the
    // ratio collapses toward 1 regardless of cache health.
    cfg.requests = std::min(cfg.requests, 150);
    cfg.open_loop_requests = 30;
    cfg.trials = 1;
    cfg.spmv_requests = 400;
    cfg.shard_requests = 300;
    cfg.device_requests = 120;
  }

  mt::bench::banner("Serving runtime: cached vs no-cache repeated traffic");
  std::printf("workers %d, clients %d, %d requests/client closed-loop\n",
              cfg.workers, cfg.clients, cfg.requests);

  // Cached mode first; its measured throughput sets the open-loop rate
  // both modes are measured at (so the bypass mode's queue buildup shows
  // up as tail latency at the same offered load).
  mt::bench::subhead("caches enabled (plan + conversion)");
  const ModeResult cached =
      run_mode(cfg, /*caches_on=*/true, /*open_rate_rps=*/0.0);
  print_mode("cached", cached);

  mt::bench::subhead("caches bypassed (SAGE + convert on every request)");
  const ModeResult bypass =
      run_mode(cfg, /*caches_on=*/false, cached.open_rate_rps);
  print_mode("bypass", bypass);
  const double open_rate = cached.open_rate_rps;

  const double speedup =
      bypass.throughput_rps > 0.0
          ? cached.throughput_rps / bypass.throughput_rps
          : 0.0;
  std::printf("\nthroughput speedup (cached / bypass): %.2fx %s\n", speedup,
              speedup >= 5.0 ? "(meets the >=5x acceptance bar)"
                             : "(below the 5x bar)");

  // Batching phase: same pipelined SpMV-heavy traffic, batcher on vs off
  // (caches warm in both — this isolates what coalescing itself buys).
  mt::bench::subhead("request batching (pipelined SpMV-heavy traffic)");
  std::printf("window %d, %d clients x %d outstanding, %d requests/client\n",
              cfg.batch_window, cfg.clients, cfg.spmv_outstanding,
              cfg.spmv_requests);
  const BatchModeResult batched = run_batch_mode(cfg, BatchPolicy::kWindow);
  print_batch_mode("batched", batched);
  const BatchModeResult unbatched = run_batch_mode(cfg, BatchPolicy::kOff);
  print_batch_mode("unbatched", unbatched);

  const double batch_speedup =
      unbatched.throughput_rps > 0.0
          ? batched.throughput_rps / unbatched.throughput_rps
          : 0.0;
  std::printf(
      "\nthroughput speedup (batched / unbatched): %.2fx %s\n", batch_speedup,
      batch_speedup >= 1.5 ? "(meets the >=1.5x acceptance bar)"
                           : "(below the 1.5x bar)");

  // Sharding phase: same total worker count, caches on, batching off —
  // the ratio isolates what splitting the queue/registry lock domains
  // buys (or costs) at equal compute.
  mt::bench::subhead("sharded routing (pipelined SpMV over 8 operands)");
  std::printf("%d shards x 1 worker vs 1 server x %d workers, "
              "%d clients x %d outstanding, %d requests/client\n",
              cfg.shard_count, cfg.shard_count, cfg.clients,
              cfg.spmv_outstanding, cfg.shard_requests);
  const BatchModeResult sharded = run_shard_mode(cfg, cfg.shard_count);
  print_batch_mode("sharded", sharded);
  const BatchModeResult unsharded = run_shard_mode(cfg, 1);
  print_batch_mode("unsharded", unsharded);

  const double shard_speedup =
      unsharded.throughput_rps > 0.0
          ? sharded.throughput_rps / unsharded.throughput_rps
          : 0.0;
  std::printf(
      "\nthroughput speedup (sharded / unsharded): %.2fx %s\n", shard_speedup,
      shard_speedup >= 1.0 ? "(meets the >=1.0x acceptance bar)"
                           : "(below the 1.0x bar)");

  // Telemetry-overhead phase: the cached hot path with full observability
  // vs none. The bar is a *cost ceiling*, not a speedup floor.
  mt::bench::subhead("telemetry overhead (cached pipelined SpMV)");
  const BatchModeResult obs_on = run_obs_mode(cfg, /*obs_on=*/true);
  print_batch_mode("obs on", obs_on);
  const BatchModeResult obs_off = run_obs_mode(cfg, /*obs_on=*/false);
  print_batch_mode("obs off", obs_off);
  const double obs_ratio = obs_off.throughput_rps > 0.0
                               ? obs_on.throughput_rps /
                                     obs_off.throughput_rps
                               : 0.0;
  std::printf(
      "\nthroughput ratio (obs on / obs off): %.3fx %s\n", obs_ratio,
      obs_ratio >= 0.95 ? "(meets the >=0.95x acceptance bar)"
                        : "(below the 0.95x bar)");

  // Async device-backend phase: modeled offload (mint) with simulated
  // latency; the ring's submit-all-then-claim-all window vs blocking
  // inside every device call.
  mt::bench::subhead("async device ring (mint offload, pipelined SpMV)");
  std::printf("1 worker, %d ring workers, %d clients x %d outstanding, "
              "%d requests/client\n",
              cfg.device_ring_workers, cfg.clients, cfg.spmv_outstanding,
              cfg.device_requests);
  const BatchModeResult dev_async = run_device_mode(cfg, /*async=*/true);
  print_batch_mode("async", dev_async);
  const BatchModeResult dev_blocking = run_device_mode(cfg, /*async=*/false);
  print_batch_mode("blocking", dev_blocking);
  const double device_ratio =
      dev_blocking.throughput_rps > 0.0
          ? dev_async.throughput_rps / dev_blocking.throughput_rps
          : 0.0;
  std::printf(
      "\nthroughput ratio (async / blocking): %.2fx, ring peak in-flight "
      "%lld %s\n",
      device_ratio, static_cast<long long>(dev_async.ring_peak_in_flight),
      device_ratio >= 1.2 ? "(meets the >=1.2x acceptance bar)"
                          : "(below the 1.2x bar)");

  write_json(cfg, cached, bypass, open_rate, speedup, batched, unbatched,
             batch_speedup, sharded, unsharded, shard_speedup, obs_on,
             obs_off, obs_ratio, dev_async, dev_blocking, device_ratio);
  std::printf("wrote %s\n", cfg.out.c_str());
  return 0;
}
