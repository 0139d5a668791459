// servebench — end-to-end serving benchmark of the mt runtime.
//
//   servebench --workload <steady_mix|operand_churn|device_auto> --seed N
//              --seconds S --trace <0|1> [--commit SHA] [--trace-out FILE]
//
// One run: set the server up several times (median = setup_s), then drive
// the last one through an open loop at a low and a high fixed rate and a
// closed-loop saturation phase, check a sample of outputs, and print every
// metric with its unit. --trace 1 additionally records a span tree per
// request and replays each layer's public calls, and reports the
// per-layer metrics instead of the end-to-end ones. The last stdout line
// is the result object; the line before it (SERVEBENCH_DETAIL) carries
// every metric, sample counts and provenance.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <tuple>

#include <malloc.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "check.hpp"
#include "common/simd.hpp"
#include "common/threads.hpp"
#include "replay.hpp"
#include "traffic.hpp"
#include "workloads/synth.hpp"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using mt::runtime::now_ns;

// Share of the run's --seconds each traffic phase gets (split over
// kRounds rounds).
constexpr double kLowShare = 0.40;
constexpr double kHighShare = 0.35;
constexpr double kSaturationShare = 0.25;
constexpr int kSetups = 7;
constexpr int kRounds = 6;
constexpr int kClosedWindow = 16;  // closed-loop outstanding requests
constexpr std::size_t kTraceRecords = 20000;
// Latency quantiles are taken per chunk of kChunk consecutive requests (so
// each chunk's p99 has 10 samples beyond it) and the median across chunks
// is reported; throughput is the median over one-second windows. Medians
// over sub-windows keep a transient stall of the host from deciding a
// run's figures.
constexpr std::size_t kChunk = 1000;
constexpr std::size_t kMaxChunks = 8;
// Medians need fewer samples per chunk; more chunks steady their median.
constexpr std::size_t kMedianChunk = 200;
constexpr std::size_t kMaxMedianChunks = 32;
constexpr int kServerNice = 10;
// A run whose sender, through no backpressure of the server's, was more
// than kLateNs late on more than this share of its sends did not offer the
// load it claims; it is flagged invalid (detail line, stderr, and
// steadiness.py), apart from the output check's verdict. Timer wake-ups on
// a shared 4-vCPU virtual machine alone make 1-6% of sends late, and that
// lateness is charged to latency from the due time.
constexpr double kMaxLateShare = 0.10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "servebench: " << why
            << "\nusage: servebench --workload <steady_mix|operand_churn|"
               "device_auto> --seed N --seconds S --trace <0|1> "
               "[--commit SHA] [--trace-out FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown argument " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// The first kernel calls of a process run far slower than steady state
// while the OpenMP team settles (milliseconds per call instead of
// microseconds). Run kernels until calls are fast and stay fast, so no
// timed phase pays it.
void warm_kernel_threads() {
  mt::set_num_threads(std::max(1, mt::hardware_threads() / 2));
  const auto a = mt::convert(
      mt::AnyMatrix(mt::synth_coo_matrix(1024, 1024, 10'000, 7)),
      Format::kCSR);
  const std::vector<value_t> x(1024, 1.0f);
  const auto start = now_ns();
  int fast = 0;
  while (fast < 300 && now_ns() - start < 8'000'000'000LL) {
    const auto t0 = now_ns();
    (void)mt::exec::spmv(a, x);
    fast = now_ns() - t0 < 500'000 ? fast + 1 : 0;
  }
  mt::set_num_threads(0);
}

// Returns freed heap to the system, then restarts the kernel's
// resident-set high-water mark (VmHWM), so a round's peak is what serving
// that round needed, not what earlier set-ups left in the allocator.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

// (steal, total) jiffies of all CPUs from /proc/stat.
std::pair<double, double> cpu_steal_total() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double v = 0.0, total = 0.0, steal = 0.0;
  for (int i = 0; i < 8 && f >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::int64_t snapshot_value(const std::vector<mt::obs::MetricSnapshot>& s,
                            const std::string& name) {
  for (const auto& m : s) {
    if (m.name == name) return m.value;
  }
  return 0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Exact p50 and (when the sample supports it) p99 of `s` into `ms`.
void quantiles(MetricSet& ms, const std::string& p50, const std::string& p99,
               Samples s, double scale, const std::string& unit,
               std::vector<std::string>& unsupported) {
  const auto n = static_cast<long long>(s.count());
  ms.set(p50, s.quantile(0.5) * scale, unit, n);
  if (s.supports(0.99)) {
    ms.set(p99, s.quantile(0.99) * scale, unit, n);
  } else {
    ms.set(p99, 0.0, unit, n);
    unsupported.push_back(p99);
  }
}

// p50 and p99 as medians over consecutive chunks (in send order) of each
// chunk's quantile. With fewer than kChunk samples the p99 is unsupported
// (0).
void chunked_quantiles(MetricSet& ms, const std::string& p50,
                       const std::string& p99,
                       std::vector<std::pair<std::int64_t, double>> by_due,
                       std::vector<std::string>& unsupported) {
  std::sort(by_due.begin(), by_due.end());
  const std::size_t n = by_due.size();
  // Median across consecutive chunks of the chunks' q-quantiles.
  const auto chunked = [&](double q, std::size_t size, std::size_t most) {
    const std::size_t chunks = std::clamp<std::size_t>(n / size, 1, most);
    Samples per_chunk;
    for (std::size_t c = 0; c < chunks; ++c) {
      Samples chunk;
      for (std::size_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) {
        chunk.add(by_due[i].second);
      }
      per_chunk.add(chunk.quantile(q));
    }
    return per_chunk.quantile(0.5);
  };
  const auto count = static_cast<long long>(n);
  ms.set(p50, chunked(0.5, kMedianChunk, kMaxMedianChunks), "us", count);
  if (n >= kChunk) {
    ms.set(p99, chunked(0.99, kChunk, kMaxChunks), "us", count);
  } else {
    ms.set(p99, 0.0, "us", count);
    unsupported.push_back(p99);
  }
}

using PlanKey = std::tuple<int, std::uint64_t, std::uint64_t, std::uint64_t>;

PlanKey key_of(Kernel k, std::uint64_t a, std::uint64_t b, std::uint64_t x) {
  return {static_cast<int>(k), a, b, x};
}

// Request span tree per record: the request (submit -> future ready) with
// its ServeStats stages laid out as children.
void write_trace(const std::string& path, const std::vector<const Rec*>& recs) {
  std::ofstream f(path);
  if (!f) {
    std::cerr << "servebench: cannot write trace file " << path << "\n";
    return;
  }
  // At most kTraceRecords request trees, evenly spread over the run.
  const std::size_t stride = std::max<std::size_t>(1, recs.size() / kTraceRecords);
  std::int64_t id = 0;
  for (std::size_t i = 0; i < recs.size(); i += stride) {
    const Rec* r = recs[i];
    const auto& s = r->stats;
    std::int64_t t = r->submit;
    std::string kids;
    const auto child = [&](const char* name, std::int64_t dur) {
      if (!kids.empty()) kids += ",";
      kids += "[\"" + std::string(name) + "\"," + std::to_string(t) + "," +
              std::to_string(t + dur) + "]";
      t += dur;
    };
    child("queue", s.queue_wait_ns);
    child("plan", s.plan_ns);
    child("convert", s.convert_ns);
    const bool device = s.dispatch.backend != mt::exec::BackendKind::kCpu;
    const auto exec = s.batched ? s.exec_ns * s.batch_size : s.exec_ns;
    const auto exec_start = t;
    child("exec", exec);
    if (device) {
      // The claim wait overlaps the tail of the device execution.
      t = exec_start + exec - s.device_wait_ns;
      child("device_wait", s.device_wait_ns);
    }
    f << "{\"id\":" << ++id << ",\"phase\":" << r->phase << ",\"kernel\":\""
      << mt::name_of(r->kernel) << "\",\"due\":" << r->due
      << ",\"start\":" << r->submit << ",\"end\":" << r->ready
      << ",\"batch\":" << s.batch_size << ",\"cold\":" << (r->cold ? 1 : 0)
      << ",\"children\":[" << kids << "]}\n";
  }
}

int run(const Args& args) {
  auto wl = make_workload(args.workload, args.seed);
  if (!wl) usage("unknown workload " + args.workload);
  warm_kernel_threads();

  RegistryLog log;
  Samples setup_s;
  std::unique_ptr<Target> target;
  std::exception_ptr setup_error;
  // Server threads (workers, their kernel thread teams, device ring
  // workers) inherit the nice value of the thread that constructs the
  // server. Building it from a thread at kServerNice keeps the load
  // generator's sends on time when kernel teams occupy every core.
  std::thread setup_thread([&] {
    try {
      setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)),
                  kServerNice);
      for (int k = 0; k < kSetups; ++k) {
        if (target) {
          wl->teardown(*target, log);
          target->stop();
          target.reset();
        }
        const auto t0 = now_ns();
        target = wl->make_target();
        wl->setup(*target, log);
        setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
      }
    } catch (...) {
      setup_error = std::current_exception();
    }
  });
  setup_thread.join();
  if (setup_error) std::rethrow_exception(setup_error);
  Target& t = *target;
  const std::int64_t kernel_threads = t.kernel_threads();

  Sampler sampler(wl->check_every, args.seed ^ 0xC0FFEE);
  // The three phases run as kRounds interleaved rounds, so a stretch of
  // host interference lands in a few sub-windows of every phase (and the
  // medians below pass over it) instead of in all of one phase.
  const double s = args.seconds / kRounds;
  PhaseOut low, high, sat;
  Samples round_rss_mb;  // each round's resident-set high-water mark
  std::int64_t sat_completed = 0, sat_batched = 0, sat_batches = 0;
  const auto cpu_before = cpu_steal_total();
  for (int r = 0; r < kRounds; ++r) {
    const auto seed = args.seed * 1000 + static_cast<std::uint64_t>(r) * 10;
    reset_peak_rss();
    low.append(open_loop(t, *wl, log, wl->low_rps, s * kLowShare, seed + 1, 1,
                         sampler));
    high.append(open_loop(t, *wl, log, wl->high_rps, s * kHighShare, seed + 2,
                          2, sampler));
    const auto before = t.counters();
    sat.append(closed_loop(t, *wl, log, kClosedWindow,
                           s * kSaturationShare, seed + 3, 3, sampler));
    const auto after = t.counters();
    sat_completed += after.completed - before.completed;
    sat_batched += after.batched_requests - before.batched_requests;
    sat_batches += after.batches - before.batches;
    round_rss_mb.add(peak_rss_mb());
  }
  // Share of this VM's CPU time the host gave to others during traffic.
  const auto cpu_after = cpu_steal_total();
  const double steal_share = ratio(cpu_after.first - cpu_before.first,
                                   cpu_after.second - cpu_before.second);

  MetricSet e2e;
  std::vector<std::string> unsupported;
  e2e.set("setup_s", setup_s.quantile(0.5), "s",
          static_cast<long long>(setup_s.count()));
  Samples rates;
  for (const double r : sat.window_rates) rates.add(r);
  e2e.set("throughput_rps", rates.quantile(0.5), "1/s",
          sat.completed_in_window);
  std::int64_t slo_met = 0;
  for (const auto* ph : {&low, &high}) {
    std::vector<std::pair<std::int64_t, double>> lat;
    for (const auto& r : ph->recs) {
      if (!r.ok) continue;
      const auto l = static_cast<double>(r.ready - r.due);
      lat.emplace_back(r.due, l * 1e-3);
      if (ph == &high && l <= wl->slo_us * 1e3) ++slo_met;
    }
    const std::string sfx = ph == &low ? ".low" : ".high";
    chunked_quantiles(e2e, "lat_p50_us" + sfx, "lat_p99_us" + sfx,
                      std::move(lat), unsupported);
  }
  e2e.set("slo_attain.high",
          ratio(static_cast<double>(slo_met),
                static_cast<double>(high.attempted)),
          "ratio", high.attempted);
  Samples cold = log.cold_ns;
  for (const auto* ph : {&low, &high, &sat}) {
    for (const auto& r : ph->recs) {
      if (r.ok && r.cold) cold.add(static_cast<double>(r.ready - r.reg_start));
    }
  }
  quantiles(e2e, "cold_p50_us", "cold_p99_us", cold, 1e-3, "us", unsupported);
  e2e.set("peak_rss_mb", round_rss_mb.quantile(0.5), "MB",
          static_cast<long long>(round_rss_mb.count()));

  // Generator honesty over the open-loop phases.
  Samples lag = low.lag_ns;
  lag.append(high.lag_ns);
  const double late_share =
      ratio(static_cast<double>(low.late + high.late),
            static_cast<double>(lag.count()));
  // Lateness the server's bounded queue imposed is the server's answer to
  // the offered load (and is charged to latency from the due time); only
  // the remainder is the generator falling behind.
  const double backpressure_share =
      ratio(static_cast<double>(low.late_backpressure + high.late_backpressure),
            static_cast<double>(lag.count()));
  const bool loadgen_valid = late_share - backpressure_share <= kMaxLateShare;

  // Plans of the workload's live request shapes (cache hits; after the
  // timed phases).
  std::vector<PlannedShape> planned;
  std::map<PlanKey, mt::runtime::PlanCache::PlanPtr> plans;
  MetricSet layer;
  if (args.trace) {
    for (auto& sh : wl->shapes()) {
      PlannedShape ps;
      ps.plan = t.plan_for(sh.req);
      plans[key_of(sh.tmpl.kernel, sh.req.a.id, sh.req.b.id, sh.req.x.id)] =
          ps.plan;
      ps.shape = std::move(sh);
      planned.push_back(std::move(ps));
    }
  }

  const auto metrics_now = t.metrics_snapshot();
  if (args.trace) {
    std::vector<const Rec*> all, open;
    for (const auto* ph : {&low, &high, &sat}) {
      for (const auto& r : ph->recs) {
        if (!r.ok) continue;
        all.push_back(&r);
        if (ph != &sat) open.push_back(&r);
      }
    }
    Samples qwait;
    for (const auto& r : high.recs) {
      if (r.ok) qwait.add(static_cast<double>(r.stats.queue_wait_ns));
    }
    quantiles(layer, "queue.wait_p50_us", "queue.wait_p99_us", qwait, 1e-3,
              "us", unsupported);

    layer.set("batcher.batched_fraction",
              ratio(static_cast<double>(sat_batched),
                    static_cast<double>(sat_completed)),
              "ratio");
    layer.set("batcher.avg_batch_size",
              ratio(static_cast<double>(sat_batched),
                    static_cast<double>(sat_batches)),
              "count");

    Samples plan_ns, conv_ns, unaccounted, dwait, mop, pc_share, cold_pc_share;
    std::map<Kernel, Samples> exec_ns;
    double plan_hits = 0, conv_hits = 0, conv_total = 0, device = 0;
    double modeled_sum = 0;
    for (const Rec* r : all) {
      const auto& st = r->stats;
      plan_ns.add(static_cast<double>(st.plan_ns));
      const auto pc = static_cast<double>(st.plan_ns + st.convert_ns);
      pc_share.add(ratio(pc, static_cast<double>(r->ready - r->submit)));
      if (r->cold) {
        cold_pc_share.add(ratio(pc, static_cast<double>(r->ready - r->reg_start)));
      }
      conv_ns.add(static_cast<double>(st.convert_ns));
      exec_ns[r->kernel].add(static_cast<double>(st.exec_ns));
      plan_hits += st.plan_cache_hit ? 1 : 0;
      conv_hits += st.conversion_hits;
      conv_total += st.conversion_hits + st.conversion_misses;
      const bool on_device = st.dispatch.backend != mt::exec::BackendKind::kCpu;
      if (on_device) {
        ++device;
        dwait.add(static_cast<double>(st.device_wait_ns));
      }
      const auto exec_full = st.batched ? st.exec_ns * st.batch_size : st.exec_ns;
      unaccounted.add(static_cast<double>(
          (r->ready - r->submit) -
          (st.queue_wait_ns + st.plan_ns + st.convert_ns + exec_full)));
      const auto it = plans.find(key_of(r->kernel, r->a, r->b, r->x));
      if (it != plans.end()) {
        const auto& p = *it->second;
        const double predicted = on_device ? p.device_cost_ns : p.cpu_cost_ns;
        if (predicted > 0) mop.add(static_cast<double>(st.exec_ns) / predicted);
      }
    }
    for (const Rec* r : open) {
      if (r->stats.dispatch.backend != mt::exec::BackendKind::kCpu) {
        modeled_sum += static_cast<double>(r->stats.device_ns);
      }
    }
    const auto n_all = static_cast<double>(all.size());
    quantiles(layer, "plan.p50_us", "plan.p99_us", plan_ns, 1e-3, "us",
              unsupported);
    layer.set("plan_cache.hit_ratio", ratio(plan_hits, n_all), "ratio");
    quantiles(layer, "convert.p50_us", "convert.p99_us", conv_ns, 1e-3, "us",
              unsupported);
    layer.set("conv_cache.hit_ratio", ratio(conv_hits, conv_total), "ratio");
    for (const Kernel k : {Kernel::kSpMV, Kernel::kSpMM, Kernel::kSpGEMM,
                           Kernel::kMTTKRP, Kernel::kSpTTM}) {
      auto& smp = exec_ns[k];
      layer.set("exec." + lower(mt::name_of(k)) + ".p50_us",
                smp.quantile(0.5) / 1e3, "us",
                static_cast<long long>(smp.count()));
    }
    layer.set("device.wait_p50_us", dwait.quantile(0.5) / 1e3, "us",
              static_cast<long long>(dwait.count()));
    layer.set("device.jobs_ratio", ratio(device, n_all), "ratio");
    const auto* ring = t.device_ring();
    layer.set("ring.peak_in_flight",
              ring != nullptr ? static_cast<double>(ring->stats().peak_in_flight)
                              : 0.0,
              "count");
    layer.set("mint.modeled_ns_sum", modeled_sum, "ns");
    layer.set("obs.series_count", static_cast<double>(metrics_now.size()),
              "count");
    const auto reuses = static_cast<double>(
        snapshot_value(metrics_now, "mt_arena_reuses_total"));
    const auto fresh = static_cast<double>(
        snapshot_value(metrics_now, "mt_arena_fresh_allocs_total"));
    layer.set("arena.reuse_ratio", ratio(reuses, reuses + fresh), "ratio");
    layer.set("stage.unaccounted_p50_us", unaccounted.quantile(0.5) / 1e3,
              "us", static_cast<long long>(unaccounted.count()));
    layer.set("stage.plan_convert_share_p50", pc_share.quantile(0.5), "ratio",
              static_cast<long long>(pc_share.count()));
    layer.set("cold.plan_convert_share_p50", cold_pc_share.quantile(0.5),
              "ratio", static_cast<long long>(cold_pc_share.count()));
    layer.set("plan.measured_over_predicted_p50", mop.quantile(0.5), "ratio",
              static_cast<long long>(mop.count()));
    layer.set("loadgen.lag_p99_us", lag.quantile(0.99) / 1e3, "us",
              static_cast<long long>(lag.count()));
    layer.set("loadgen.late_share", late_share, "ratio");

    replay_layers(planned, wl->server_options(), layer);
    if (!args.trace_out.empty()) write_trace(args.trace_out, all);
  }

  const CheckReport check = check_outputs(sampler.items());
  wl->teardown(t, log);
  t.stop();
  if (args.trace) {
    layer.set("registry.register_p50_us", log.register_ns.quantile(0.5) / 1e3,
              "us", static_cast<long long>(log.register_ns.count()));
    layer.set("registry.evict_p50_us", log.evict_ns.quantile(0.5) / 1e3, "us",
              static_cast<long long>(log.evict_ns.count()));
  }

  const std::int64_t attempted = low.attempted + high.attempted + sat.attempted;
  const std::int64_t failed =
      low.failed + high.failed + sat.failed + check.failures();
  const bool correct = failed == 0;

  // Detail line: every metric with sample counts, plus provenance.
  std::string detail = "{\"workload\": " + json_str(wl->name()) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + json_number(args.seconds) +
                       ", \"trace\": " + (args.trace ? "true" : "false");
  detail += ", \"provenance\": {\"commit\": " + json_str(args.commit) +
            ", \"nproc\": " + std::to_string(mt::hardware_threads()) +
            ", \"kernel_threads\": " + std::to_string(kernel_threads) +
            ", \"simd_tier\": " +
            json_str(mt::simd_enabled() ? "avx2" : "scalar") +
            ", \"build_type\": " + json_str(SERVEBENCH_BUILD_TYPE) + "}";
  detail += ", \"offered\": {\"low_rps\": " + json_number(wl->low_rps) +
            ", \"high_rps\": " + json_number(wl->high_rps) +
            ", \"slo_us\": " + json_number(wl->slo_us) +
            ", \"closed_window\": " + std::to_string(kClosedWindow) + "}";
  detail += ", \"host\": {\"steal_share\": " + json_number(steal_share) + "}";
  detail += ", \"loadgen\": {\"lag_p50_us\": " +
            json_number(lag.quantile(0.5) / 1e3) +
            ", \"lag_p99_us\": " + json_number(lag.quantile(0.99) / 1e3) +
            ", \"late_share\": " + json_number(late_share) +
            ", \"backpressure_share\": " + json_number(backpressure_share) +
            ", \"valid\": " + (loadgen_valid ? "true" : "false") + "}";
  detail += ", \"requests\": {\"low\": " + std::to_string(low.attempted) +
            ", \"high\": " + std::to_string(high.attempted) +
            ", \"saturation\": " + std::to_string(sat.attempted) +
            ", \"failed\": " + std::to_string(failed) +
            ", \"fail_ratio\": " +
            json_number(ratio(static_cast<double>(failed),
                              static_cast<double>(attempted))) +
            "}";
  detail += ", \"check\": {\"checked\": " + std::to_string(check.checked) +
            ", \"bitwise_mismatches\": " +
            std::to_string(check.bitwise_mismatches) +
            ", \"reference_mismatches\": " +
            std::to_string(check.reference_mismatches) +
            ", \"worst_reference_error\": " +
            json_number(check.worst_reference_error) + "}";
  std::string unsup;
  for (const auto& u : unsupported) unsup += (unsup.empty() ? "" : ", ") + json_str(u);
  detail += ", \"p99_unsupported\": [" + unsup + "]";
  std::vector<Metric> all_metrics = e2e.all();
  for (const auto& m : layer.all()) all_metrics.push_back(m);
  detail += ", \"metrics\": " + metrics_json(all_metrics, true) + "}";

  std::cout << "servebench " << wl->name() << " seed " << args.seed << ": "
            << attempted << " requests, " << failed << " failed, "
            << check.checked << " outputs checked\n";
  if (!high.first_error.empty() || !low.first_error.empty() ||
      !sat.first_error.empty()) {
    std::cerr << "servebench: request failure: "
              << (low.first_error + high.first_error + sat.first_error)
              << "\n";
  }
  if (!check.first_problem.empty()) {
    std::cerr << "servebench: output check failed: " << check.first_problem
              << "\n";
  }
  if (!loadgen_valid) {
    std::cerr << "servebench: run invalid: the load generator itself sent "
              << (late_share - backpressure_share) * 100.0
              << "% of requests more than 1 ms late\n";
  }
  std::cout << "SERVEBENCH_DETAIL " << detail << "\n";
  const auto& reported = args.trace ? layer.all() : e2e.all();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(reported, false) << "}"
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    return servebench::run(servebench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 1;
  }
}
