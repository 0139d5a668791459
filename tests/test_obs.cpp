// Telemetry-layer tests: histogram bucket/quantile units and merge
// algebra, registry get-or-create semantics, the trace ring's
// drop-oldest/never-block contract, and the serving integration — the
// concurrency-labeled stress cases ride the TSan CI job (counts must be
// bit-exact after join, per the obs/metrics.hpp consistency contract),
// and the span-nesting test asserts that a fused batch's member exec
// slices exactly partition the group span.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/router.hpp"
#include "runtime/server.hpp"
#include "serving_testing.hpp"
#include "testing.hpp"

namespace mt::obs {
namespace {

void expect_same(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.max, b.max);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    EXPECT_EQ(a.buckets[i], b.buckets[i]) << "bucket " << i;
  }
}

HistogramSnapshot snap_of(std::initializer_list<std::int64_t> values) {
  Histogram h;
  for (const auto v : values) h.record(v);
  return h.snapshot();
}

TEST(Histogram, BucketUnitsAndExactMax) {
  Histogram h;
  h.record(0);    // bucket 0 (v <= 0)
  h.record(-7);   // clamped into bucket 0
  h.record(1);    // bit_width 1 -> bucket 1 ([1, 1])
  h.record(2);    // bit_width 2 -> bucket 2 ([2, 3])
  h.record(3);    // bucket 2 as well
  h.record(1000); // bit_width 10 -> bucket 10 ([512, 1023])
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 6);
  EXPECT_EQ(s.sum, 0 + 0 + 1 + 2 + 3 + 1000);
  EXPECT_EQ(s.max, 1000);
  EXPECT_EQ(s.buckets[0], 2);
  EXPECT_EQ(s.buckets[1], 1);
  EXPECT_EQ(s.buckets[2], 2);
  EXPECT_EQ(s.buckets[10], 1);
}

TEST(Histogram, QuantilesReportBucketUpperBoundsClampedToMax) {
  // 99 fast samples and one slow outlier: rank(q) = ceil(q * count), so
  // p99 (rank 99) still sits in the value-1 bucket; only the tail beyond
  // it reaches the outlier, whose reported value clamps to the true max
  // instead of its bucket's upper bound.
  Histogram h;
  for (int i = 0; i < 99; ++i) h.record(1);
  h.record(1'000'000);  // bit_width 20 -> bucket 20, upper bound 2^20-1
  const auto s = h.snapshot();
  EXPECT_EQ(s.p50(), 1);
  EXPECT_EQ(s.p95(), 1);
  EXPECT_EQ(s.p99(), 1);
  EXPECT_EQ(s.quantile(0.999), 1'000'000);  // min(bucket upper 1048575, max)
  EXPECT_EQ(s.quantile(1.0), 1'000'000);
  EXPECT_EQ(s.quantile(0.0), 1);  // rank clamps to the first sample
}

TEST(Histogram, EmptySnapshotIsAllZeros) {
  const auto s = Histogram{}.snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.p50(), 0);
  EXPECT_EQ(s.p99(), 0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  const auto a = snap_of({1, 5, 9});
  const auto b = snap_of({0, 1'000'000});
  const auto c = snap_of({42, 42, 42, 7});

  auto ab = a;
  ab += b;
  auto ba = b;
  ba += a;
  expect_same(ab, ba);

  auto ab_c = ab;  // (a + b) + c
  ab_c += c;
  auto bc = b;
  bc += c;
  auto a_bc = a;  // a + (b + c)
  a_bc += bc;
  expect_same(ab_c, a_bc);
  EXPECT_EQ(ab_c.count, 9);
  EXPECT_EQ(ab_c.max, 1'000'000);
}

TEST(Registry, GetOrCreateReturnsStableReferences) {
  Registry reg;
  Counter& c1 = reg.counter("mt_test_total");
  Counter& c2 = reg.counter("mt_test_total");
  EXPECT_EQ(&c1, &c2);
  c1.add(3);
  c2.inc();
  EXPECT_EQ(c1.value(), 4);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  reg.counter("mt_test_total");
  EXPECT_THROW(reg.histogram("mt_test_total"), std::logic_error);
  EXPECT_THROW(reg.gauge("mt_test_total"), std::logic_error);
}

TEST(Registry, SnapshotSortedByName) {
  Registry reg;
  reg.counter("mt_b");
  reg.gauge("mt_a").set(7);
  reg.histogram("mt_c").record(1);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "mt_a");
  EXPECT_EQ(snap[0].value, 7);
  EXPECT_EQ(snap[1].name, "mt_b");
  EXPECT_EQ(snap[2].name, "mt_c");
  EXPECT_EQ(snap[2].hist.count, 1);
}

TEST(MergeSnapshots, SumsByNameAndInsertsMissingSorted) {
  Registry r1, r2;
  r1.counter("mt_x_total").add(2);
  r1.histogram("mt_h").record(8);
  r2.counter("mt_x_total").add(5);
  r2.histogram("mt_h").record(1024);
  r2.gauge("mt_only_second").set(9);

  auto total = r1.snapshot();
  merge_snapshots(total, r2.snapshot());
  ASSERT_EQ(total.size(), 3u);
  EXPECT_EQ(total[0].name, "mt_h");
  EXPECT_EQ(total[0].hist.count, 2);
  EXPECT_EQ(total[0].hist.max, 1024);
  EXPECT_EQ(total[1].name, "mt_only_second");
  EXPECT_EQ(total[1].value, 9);
  EXPECT_EQ(total[2].name, "mt_x_total");
  EXPECT_EQ(total[2].value, 7);
}

// The TSan-ridden stress case: N threads hammer M counters and a shared
// histogram through the registry while a reader snapshots concurrently.
// Weak consistency is allowed while writers run; after join every count
// must be bit-exact.
TEST(Registry, ConcurrentRecordingIsExactAfterJoin) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kMetrics = 4;
  constexpr int kIters = 4000;

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg] {
      // Cache the references once (the intended idiom), then record hot.
      std::vector<Counter*> counters;
      for (int m = 0; m < kMetrics; ++m) {
        counters.push_back(&reg.counter("mt_c" + std::to_string(m)));
      }
      Histogram& h = reg.histogram("mt_shared_ns");
      for (int i = 0; i < kIters; ++i) {
        for (auto* c : counters) c->inc();
        h.record(i % 1024);
      }
    });
  }
  // Concurrent reader: merged reads must be torn-free and monotone-safe
  // (never exceed what was recorded); values are otherwise unasserted.
  std::thread reader([&reg] {
    for (int i = 0; i < 50; ++i) {
      for (const auto& m : reg.snapshot()) {
        if (m.kind == MetricSnapshot::Kind::kCounter) {
          EXPECT_LE(m.value, std::int64_t{kThreads} * kIters);
        }
      }
      std::this_thread::yield();
    }
  });
  for (auto& w : writers) w.join();
  reader.join();

  for (int m = 0; m < kMetrics; ++m) {
    EXPECT_EQ(reg.counter("mt_c" + std::to_string(m)).value(),
              std::int64_t{kThreads} * kIters);
  }
  const auto s = reg.histogram("mt_shared_ns").snapshot();
  EXPECT_EQ(s.count, std::int64_t{kThreads} * kIters);
  EXPECT_EQ(s.max, 1023);
}

TEST(TraceRing, DropsOldestAndCountsDrops) {
  TraceRing ring(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    SpanRecord r;
    r.span_id = i;
    ring.push(r);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6);
  const auto got = ring.drain();
  ASSERT_EQ(got.size(), 4u);
  // Oldest-first: the four survivors are the newest pushes, in order.
  EXPECT_EQ(got[0].span_id, 7u);
  EXPECT_EQ(got[3].span_id, 10u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 6);  // drops are cumulative, not per-drain
}

TEST(TraceRing, CapacityZeroIsInert) {
  TraceRing ring(0);
  ring.push(SpanRecord{});
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.drain().empty());
  // A scope over a zero-capacity sink degrades to no-ops end to end.
  IdSource ids;
  TraceScope scope(&ring, &ids, 1);
  EXPECT_FALSE(scope.active());
  EXPECT_EQ(scope.add(Stage::kExec, 0, 10), 0u);
}

// Concurrency (TSan): writers racing a full ring never block and never
// lose accounting — records retained + records dropped == records pushed.
TEST(TraceRing, ConcurrentOverflowNeverBlocks) {
  constexpr std::size_t kCap = 64;
  constexpr int kThreads = 6;
  constexpr int kPushes = 500;
  TraceRing ring(kCap);
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&ring, t] {
      for (int i = 0; i < kPushes; ++i) {
        SpanRecord r;
        r.trace_id = static_cast<std::uint64_t>(t);
        ring.push(r);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(ring.size(), kCap);
  EXPECT_EQ(ring.dropped(),
            std::int64_t{kThreads} * kPushes - std::int64_t{kCap});
}

TEST(TraceScope, BuffersSpansAndFlushesOnDestruction) {
  TraceRing ring(16);
  IdSource ids;
  {
    TraceScope scope(&ring, &ids, ids.next());
    Span outer(scope, Stage::kQueue);
    const auto parent = outer.end();
    scope.add(Stage::kExec, 5, 9, parent, 3);
    EXPECT_EQ(ring.size(), 0u);  // nothing lands until the flush
  }
  const auto got = ring.drain();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].stage, Stage::kQueue);
  EXPECT_EQ(got[1].stage, Stage::kExec);
  EXPECT_EQ(got[1].parent_span, got[0].span_id);
  EXPECT_EQ(got[1].batch_size, 3);
  EXPECT_EQ(got[0].trace_id, got[1].trace_id);
  EXPECT_NE(got[0].span_id, got[1].span_id);
}

}  // namespace
}  // namespace mt::obs

namespace mt::runtime {
namespace {

using mt::testing::occupy_worker;
using mt::testing::random_dense;

ServerOptions obs_opts() {
  ServerOptions o;
  o.num_workers = 2;
  o.queue_capacity = 32;
  o.accel.num_pes = 32;
  o.accel.pe_buffer_bytes = 64 * 4;
  o.obs.trace_ring_capacity = 4096;
  return o;
}

Request spmv_request(MatrixHandle a, const std::vector<value_t>& x) {
  Request r;
  r.kernel = Kernel::kSpMV;
  r.a = a;
  r.vec = x;
  return r;
}

TEST(ServerObs, MetricsTextCoversEverySubsystem) {
  Server srv(obs_opts());
  const auto h =
      srv.register_matrix(encode(random_dense(48, 40, 0.05, 7), Format::kCSR));
  const std::vector<value_t> x(40, 1.0f);
  for (int i = 0; i < 3; ++i) (void)srv.submit(spmv_request(h, x)).get();

  const auto text = srv.metrics_text();
  // Serving counters (the ServerCounters view) and latency histograms.
  EXPECT_NE(text.find("mt_serve_requests_total 3"), std::string::npos);
  EXPECT_NE(text.find("mt_serve_queue_wait_ns_count 3"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  // Both caches, with hit/miss/eviction/size series.
  EXPECT_NE(text.find("mt_plan_cache_hits_total 2"), std::string::npos);
  EXPECT_NE(text.find("mt_plan_cache_evictions_total 0"), std::string::npos);
  EXPECT_NE(text.find("mt_conversion_cache_bytes"), std::string::npos);
  EXPECT_NE(text.find("mt_conversion_cache_evictions_total"),
            std::string::npos);
  // Queue, thread width.
  EXPECT_NE(text.find("mt_queue_depth 0"), std::string::npos);
  EXPECT_NE(text.find("mt_kernel_threads"), std::string::npos);
  // Per-kernel x format x tier exec histograms and per-plan accumulators.
  EXPECT_NE(text.find("mt_exec_ns{kernel=\""), std::string::npos);
  EXPECT_NE(text.find("tier=\""), std::string::npos);
  EXPECT_NE(text.find("mt_plan_exec_ns{plan=\""), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);

  // The JSON twin exposes the same names with quantiles pre-extracted.
  const auto json = srv.metrics_json();
  EXPECT_NE(json.find("\"mt_serve_requests_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  // ServerCounters is a view over the registry: the legacy snapshot and
  // the exposition read the same cells.
  const auto snap = srv.metrics_snapshot();
  for (const auto& m : snap) {
    if (m.name == "mt_serve_requests_total") {
      EXPECT_EQ(m.value, srv.counters().completed);
    }
  }
}

TEST(ServerObs, DisabledMetricsStillServeCountersAndText) {
  auto o = obs_opts();
  o.obs.metrics = false;
  o.obs.trace_ring_capacity = 0;
  Server srv(o);
  const auto h =
      srv.register_matrix(encode(random_dense(32, 32, 0.1, 9), Format::kCSR));
  const std::vector<value_t> x(32, 1.0f);
  const auto resp = srv.submit(spmv_request(h, x)).get();
  EXPECT_EQ(resp.stats.trace_id, 0u);  // tracing off: no ids assigned
  EXPECT_EQ(srv.counters().completed, 1);
  EXPECT_TRUE(srv.drain_trace().empty());
  const auto text = srv.metrics_text();
  EXPECT_NE(text.find("mt_serve_requests_total 1"), std::string::npos);
  // No histogram series when metrics are off (the always-on counter
  // mt_serve_queue_wait_ns_total remains; the histogram's bucket/count
  // series must not).
  EXPECT_EQ(text.find("mt_serve_queue_wait_ns_bucket"), std::string::npos);
  EXPECT_EQ(text.find("mt_serve_queue_wait_ns_count"), std::string::npos);
  EXPECT_EQ(text.find("mt_exec_ns{"), std::string::npos);
}

TEST(ServerObs, PlanLatencySeriesAreBoundedUnderChurn) {
  // Every distinct operand is a distinct plan. Past kMaxPlanSeries
  // fingerprints, plans share one overflow series instead of growing the
  // registry by one histogram each.
  auto o = obs_opts();
  o.num_workers = 1;
  o.obs.trace_ring_capacity = 0;
  Server srv(o);
  const std::size_t n_plans = Server::kMaxPlanSeries + 76;
  const std::vector<value_t> x(8, 1.0f);
  for (std::size_t i = 0; i < n_plans; ++i) {
    const auto h = srv.register_matrix(
        encode(random_dense(8, 8, 0.5, 1000 + i), Format::kCSR));
    (void)srv.submit(spmv_request(h, x)).get();
  }
  EXPECT_EQ(srv.plan_cache().misses(), static_cast<std::int64_t>(n_plans));

  std::size_t series = 0;
  std::int64_t labeled_count = 0;
  std::int64_t overflow_count = -1;
  for (const auto& m : srv.metrics_snapshot()) {
    if (m.name.rfind("mt_plan_exec_ns{", 0) != 0) continue;
    ++series;
    if (m.name == "mt_plan_exec_ns{plan=\"overflow\"}") {
      overflow_count = m.hist.count;
    } else {
      labeled_count += m.hist.count;
      EXPECT_EQ(m.hist.count, 1) << m.name;
    }
  }
  EXPECT_EQ(series, Server::kMaxPlanSeries + 1);
  EXPECT_EQ(labeled_count, static_cast<std::int64_t>(Server::kMaxPlanSeries));
  EXPECT_EQ(overflow_count,
            static_cast<std::int64_t>(n_plans - Server::kMaxPlanSeries));
}

TEST(ServerObs, TraceCoversStagesUnderOneId) {
  Server srv(obs_opts());
  const auto h =
      srv.register_matrix(encode(random_dense(48, 40, 0.05, 7), Format::kCSR));
  const std::vector<value_t> x(40, 1.0f);
  const auto resp = srv.submit(spmv_request(h, x)).get();
  ASSERT_NE(resp.stats.trace_id, 0u);

  const auto spans = srv.drain_trace();
  std::set<obs::Stage> stages;
  for (const auto& s : spans) {
    if (s.trace_id != resp.stats.trace_id) continue;
    stages.insert(s.stage);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  EXPECT_TRUE(stages.contains(obs::Stage::kQueue));
  EXPECT_TRUE(stages.contains(obs::Stage::kPlan));
  EXPECT_TRUE(stages.contains(obs::Stage::kConvert));
  EXPECT_TRUE(stages.contains(obs::Stage::kExec));
  EXPECT_TRUE(srv.drain_trace().empty());  // drain cleared the ring
}

TEST(ServerObs, FusedGroupSpanIsPartitionedByMemberExecSlices) {
  auto o = obs_opts();
  o.num_workers = 1;  // one drain stream => deterministic window
  o.batch.policy = BatchPolicy::kWindow;
  o.batch.window = 16;
  Server srv(o);
  // Density 0.05 => SAGE plans SpMV onto CSR (a coalescible ACF).
  const auto h =
      srv.register_matrix(encode(random_dense(64, 48, 0.05, 31), Format::kCSR));
  const auto slow_a =
      srv.register_matrix(encode(random_dense(800, 800, 0.08, 32), Format::kCSR));
  const auto slow_b =
      srv.register_matrix(encode(random_dense(800, 800, 0.08, 33), Format::kCSR));

  constexpr int kMembers = 5;
  std::vector<value_t> x(48, 0.5f);
  auto occupier = occupy_worker(srv, slow_a, slow_b);
  std::vector<std::future<Response>> futs;
  futs.reserve(kMembers);
  for (int i = 0; i < kMembers; ++i) {
    futs.push_back(srv.submit(spmv_request(h, x)));
  }
  (void)occupier.get();

  std::set<std::uint64_t> member_traces;
  for (auto& f : futs) {
    const auto resp = f.get();
    ASSERT_TRUE(resp.stats.batched);
    ASSERT_EQ(resp.stats.batch_size, kMembers);
    member_traces.insert(resp.stats.trace_id);
  }
  ASSERT_EQ(member_traces.size(), static_cast<std::size_t>(kMembers));

  const auto spans = srv.drain_trace();
  const obs::SpanRecord* group = nullptr;
  for (const auto& s : spans) {
    if (s.stage == obs::Stage::kGroup && s.batch_size == kMembers) {
      ASSERT_EQ(group, nullptr) << "exactly one fused launch expected";
      group = &s;
    }
  }
  ASSERT_NE(group, nullptr);

  // Member exec slices: one per request, linked to the group span, each
  // on its own trace — and together they exactly partition the group
  // interval (durations sum to the group's duration).
  std::int64_t slice_sum = 0;
  int slices = 0;
  std::set<std::uint64_t> slice_traces;
  for (const auto& s : spans) {
    if (s.stage != obs::Stage::kExec || s.parent_span != group->span_id) {
      continue;
    }
    ++slices;
    slice_sum += s.duration_ns();
    slice_traces.insert(s.trace_id);
    EXPECT_GE(s.start_ns, group->start_ns);
    EXPECT_LE(s.end_ns, group->end_ns);
  }
  EXPECT_EQ(slices, kMembers);
  EXPECT_EQ(slice_sum, group->duration_ns());
  EXPECT_EQ(slice_traces, member_traces);

  // The scatter stage is accounted to the group too.
  int scatters = 0;
  for (const auto& s : spans) {
    if (s.stage == obs::Stage::kScatter && s.batch_size == kMembers) {
      ++scatters;
    }
  }
  EXPECT_EQ(scatters, 1);
}

TEST(ShardedObs, AggregatesMetricsAndTagsTraceShards) {
  ShardedServerOptions so;
  so.num_shards = 2;
  so.shard = obs_opts();
  so.shard.num_workers = 1;
  ShardedServer srv(so);

  std::vector<MatrixHandle> hs;
  for (int i = 0; i < 4; ++i) {
    hs.push_back(srv.register_matrix(
        encode(random_dense(40, 40, 0.08, 50 + i), Format::kCSR)));
  }
  const std::vector<value_t> x(40, 1.0f);
  std::vector<std::future<Response>> futs;
  futs.reserve(hs.size());
  for (const auto& h : hs) futs.push_back(srv.submit(spmv_request(h, x)));
  std::set<std::uint64_t> traces;
  for (auto& f : futs) traces.insert(f.get().stats.trace_id);
  ASSERT_EQ(traces.size(), hs.size());

  // Fleet text: per-shard series merged by name, router series appended.
  const auto text = srv.metrics_text();
  EXPECT_NE(text.find("mt_serve_requests_total 4"), std::string::npos);
  EXPECT_NE(text.find("mt_router_shards 2"), std::string::npos);
  EXPECT_NE(text.find("mt_router_routing_failures_total 0"),
            std::string::npos);
  EXPECT_NE(text.find("mt_exec_ns{kernel=\""), std::string::npos);

  const auto snap = srv.metrics_snapshot();
  for (const auto& m : snap) {
    if (m.name == "mt_serve_requests_total") {
      EXPECT_EQ(m.value, srv.counters().completed);
    }
    if (m.name == "mt_serve_queue_wait_ns") {
      EXPECT_EQ(m.hist.count, 4);  // histogram buckets merged across shards
    }
  }

  // Traces: every record tagged with a real shard; each request's id has
  // both a route span (deposited by the router) and its stage spans, all
  // on one shard's ring.
  const auto spans = srv.drain_trace();
  ASSERT_FALSE(spans.empty());
  std::map<std::uint64_t, std::set<obs::Stage>> by_trace;
  std::map<std::uint64_t, std::set<int>> shards_of;
  for (const auto& s : spans) {
    ASSERT_GE(s.shard, 0);
    ASSERT_LT(s.shard, so.num_shards);
    by_trace[s.trace_id].insert(s.stage);
    shards_of[s.trace_id].insert(s.shard);
  }
  for (const auto id : traces) {
    ASSERT_TRUE(by_trace.contains(id));
    EXPECT_TRUE(by_trace[id].contains(obs::Stage::kRoute));
    EXPECT_TRUE(by_trace[id].contains(obs::Stage::kQueue));
    EXPECT_TRUE(by_trace[id].contains(obs::Stage::kExec));
    EXPECT_EQ(shards_of[id].size(), 1u) << "one trace, one ring";
  }
}

}  // namespace
}  // namespace mt::runtime
