// Serving-runtime demo: the client/server flow in ~80 lines.
//
//   1. Start a Server (worker pool + plan cache + conversion cache).
//   2. Register sparse operands once; get stable handles back.
//   3. Submit requests from the "client" side and read Response futures.
//   4. Watch the caches work: the first request of a workload pays the
//      SAGE search and the MCF->ACF conversion, repeats pay neither.
//   5. Fire a burst of SpMVs at one operand: the batcher coalesces
//      whatever piles up at the queue head into single SpMM launches.
//   6. Scale out: a ShardedServer spreads operands over multiple Server
//      shards (consistent hashing; the handle encodes its shard), routes
//      each request to its owner, and runs cross-shard SpGEMM pairs on
//      the first operand's shard via zero-copy replication.
//   7. Watch the telemetry: each section ends with the relevant slice of
//      Server::metrics_text() (Prometheus-style exposition), the burst
//      section walks its own trace spans, and the fleet section shows
//      the router-aggregated view.
//
// Build & run:  cmake --build build && ./build/examples/serve_demo
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/router.hpp"
#include "runtime/server.hpp"
#include "workloads/synth.hpp"

namespace {

// Prints the lines of a metrics_text() exposition that contain `filter`
// (every line when filter is empty), indented under a caption.
void print_metrics(const std::string& text, const char* filter,
                   const char* caption) {
  std::printf("  [metrics] %s\n", caption);
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (*filter != '\0' && line.find(filter) == std::string::npos) continue;
    std::printf("    %s\n", line.c_str());
  }
}

}  // namespace

int main() {
  using namespace mt;
  using namespace mt::runtime;

  ServerOptions opts;
  opts.num_workers = 2;
  opts.accel.num_pes = 64;
  opts.accel.pe_buffer_bytes = 128 * 4;
  opts.obs.trace_ring_capacity = 1024;  // keep spans for the burst section
  Server server(opts);
  std::printf("server up: %d workers, queue capacity %zu\n",
              opts.num_workers, opts.queue_capacity);

  // Register a 96x96 sparse matrix stored in ZVC (a memory-compact MCF the
  // accelerator cannot consume directly — conversion is mandatory).
  const auto a_coo = synth_coo_matrix(96, 96, 370, /*seed=*/1);
  const auto a = server.register_matrix(convert(AnyMatrix(a_coo), Format::kZVC));
  std::printf("registered matrix handle %llu (ZVC, %lld nnz)\n",
              static_cast<unsigned long long>(a.id),
              static_cast<long long>(a_coo.nnz()));

  // --- SpMV twice: miss then hit ---
  Request r;
  r.kernel = Kernel::kSpMV;
  r.a = a;
  r.vec.assign(96, 1.0f);
  for (int i = 0; i < 2; ++i) {
    const auto resp = server.submit(r).get();
    const auto& y = std::get<std::vector<value_t>>(resp.result);
    std::printf("SpMV #%d: y[0]=%.3f  %s\n", i + 1, y[0],
                resp.stats.describe().c_str());
  }
  print_metrics(server.metrics_text(), "mt_serve_plan_",
                "the second request was a plan-cache hit:");

  // --- An SpMM on the same operand reuses its cached CSR rep for SAGE ---
  Request mm;
  mm.kernel = Kernel::kSpMM;
  mm.a = a;
  mm.dense_b = synth_coo_matrix(96, 16, 96 * 16, /*seed=*/2).to_dense();
  const auto mresp = server.submit(mm).get();
  std::printf("SpMM:    %s\n", mresp.stats.describe().c_str());
  std::printf("         SAGE chose %s\n",
              server.plan_for(mm)->choice.describe().c_str());
  print_metrics(server.metrics_text(), "mt_exec_ns_count",
                "per-kernel/format/tier exec histograms so far:");

  // --- A burst of SpMVs: the batcher coalesces what piles up ---
  // Occupy the workers with a chunky SpGEMM, then fire same-workload
  // SpMVs; they accumulate at the queue head and the next drain coalesces
  // them into one SpMM launch (the `batch` field in the stats line).
  const auto big = synth_coo_matrix(600, 600, 14400, /*seed=*/3);
  const auto g = server.register_matrix(convert(AnyMatrix(big), Format::kCSR));
  Request slow;
  slow.kernel = Kernel::kSpGEMM;
  slow.a = g;
  slow.b = g;
  // One occupier per worker, each handed over before the next submit so a
  // single worker's drain window cannot swallow both.
  std::vector<std::future<Response>> burst;
  auto occupier1 = server.submit(slow);
  while (server.queue_depth() > 0) std::this_thread::yield();
  auto occupier2 = server.submit(slow);
  while (server.queue_depth() > 0) std::this_thread::yield();
  for (int i = 0; i < 12; ++i) burst.push_back(server.submit(r));
  (void)occupier1.get();
  (void)occupier2.get();
  std::uint64_t burst_trace = 0;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    const auto resp = burst[i].get();
    if (i == 0 || i + 1 == burst.size()) {
      std::printf("burst #%zu: %s\n", i + 1, resp.stats.describe().c_str());
    }
    if (i == 0) burst_trace = resp.stats.trace_id;
  }
  // Walk the first burst request's trace: queue wait, then its exec slice
  // inside the fused-group launch (parented spans share the group's id).
  std::printf("  [trace] spans of burst #1 (trace %llu):\n",
              static_cast<unsigned long long>(burst_trace));
  for (const auto& s : server.drain_trace()) {
    if (s.trace_id != burst_trace) continue;
    std::printf("    %-7s %8.1f us%s\n", std::string(obs::name_of(s.stage)).c_str(),
                static_cast<double>(s.duration_ns()) / 1e3,
                s.parent_span != 0 ? "  (in fused group)" : "");
  }
  print_metrics(server.metrics_text(), "mt_serve_batch",
                "coalescing counters:");

  // --- Aggregate counters ---
  const auto c = server.counters();
  std::printf(
      "\ncounters: %lld served, plan %lld/%lld hit/miss, conversion "
      "%lld/%lld hit/miss\n",
      static_cast<long long>(c.completed), static_cast<long long>(c.plan_hits),
      static_cast<long long>(c.plan_misses),
      static_cast<long long>(c.conversion_hits),
      static_cast<long long>(c.conversion_misses));
  std::printf("plan cache: %zu plans, conversion cache: %zu reps\n",
              server.plan_cache().size(), server.conversion_cache().size());
  std::printf("batching:  %lld fused launches served %lld requests "
              "(avg batch %.1f)\n",
              static_cast<long long>(c.batches),
              static_cast<long long>(c.batched_requests),
              c.avg_batch_size());
  // The full exposition: everything above plus caches, queue, and latency
  // histograms, in one scrape-able dump.
  print_metrics(server.metrics_text(), "",
                "full metrics_text() exposition:");

  server.stop();
  std::printf("server stopped cleanly\n");

  // --- Sharded routing: the same API over four Server shards ---
  ShardedServerOptions sopts;
  sopts.num_shards = 4;
  sopts.shard.num_workers = 1;
  sopts.shard.accel = opts.accel;
  // Per-shard cache budgets keep every shard bounded under operand churn
  // (cost-aware LRU: hot/expensive conversions survive pressure).
  sopts.shard.caches.conversion_limits.max_entries = 64;
  sopts.shard.caches.plan_limits.max_entries = 128;
  ShardedServer fleet(sopts);
  std::printf("\nsharded: %d shards x %d worker(s)\n", fleet.num_shards(),
              sopts.shard.num_workers);

  std::vector<MatrixHandle> handles;
  for (int i = 0; i < 8; ++i) {
    const auto coo = synth_coo_matrix(96, 96, 370, /*seed=*/10 + i);
    handles.push_back(
        fleet.register_matrix(convert(AnyMatrix(coo), Format::kCSR)));
  }
  int owned[4] = {0, 0, 0, 0};
  for (const auto& h : handles) ++owned[fleet.shard_of(h)];
  std::printf("placement: %d/%d/%d/%d operands per shard\n", owned[0],
              owned[1], owned[2], owned[3]);

  std::vector<std::future<Response>> fleet_futs;
  Request fr;
  fr.kernel = Kernel::kSpMV;
  fr.vec.assign(96, 1.0f);
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& h : handles) {
      fr.a = h;
      fleet_futs.push_back(fleet.submit(fr));
    }
  }
  for (auto& f : fleet_futs) (void)f.get();

  // A cross-shard pair: executes on the first operand's shard, with the
  // second operand's representation shared over (never copied).
  Request pair;
  pair.kernel = Kernel::kSpGEMM;
  pair.a = handles[0];
  pair.b = handles[1];
  const auto presp = fleet.submit(pair).get();
  std::printf("cross-shard SpGEMM (shard %d x shard %d): %s\n",
              fleet.shard_of(handles[0]), fleet.shard_of(handles[1]),
              presp.stats.describe().c_str());

  const auto fc = fleet.counters();
  std::printf("fleet counters: %lld served, plan %lld/%lld hit/miss, "
              "queue depth %zu\n",
              static_cast<long long>(fc.completed),
              static_cast<long long>(fc.plan_hits),
              static_cast<long long>(fc.plan_misses), fleet.queue_depth());
  // Router aggregation: per-shard series merged by name (counters and
  // histogram buckets add, gauges sum into fleet totals) plus the
  // router's own mt_router_* series.
  print_metrics(fleet.metrics_text(), "_total",
                "fleet-wide counter series (all shards merged):");
  print_metrics(fleet.metrics_text(), "mt_router_",
                "router series:");
  fleet.stop();
  std::printf("fleet stopped cleanly\n");
  return 0;
}
