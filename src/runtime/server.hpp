// Concurrent serving runtime — a stateful server in front of the exec
// engine (paper north star: amortize per-request setup across a stream of
// requests, SimBricks-style client/server shape).
//
//   clients                                        workers
//   submit(Request) ──► bounded MPMC queue ──► batcher ──► worker pool
//        │                                       │             │
//        └── future<Response>                    │             ▼
//                                                │         exec engine
//                                                │             │
//                  (drains up to batch_window    │   ├── plan cache (SAGE
//                   requests, coalesces SpMV →   │   │   once per workload)
//                   SpMM and fuses same-plan     │   └── conversion cache
//                   SpMM — runtime/batcher.hpp)  │       (operand ACF reps,
//                                                        shared read-only)
//
// Operands are registered up front and referred to by stable handles;
// their contents are immutable for the handle's lifetime (that contract
// is what lets handle ids key both caches). Each request resolves a Plan
// (memoized SAGE decision), borrows the operand's converted representation
// from the conversion cache, and runs the kernel natively through the
// exec engine's const-ref entry points. Results return through futures
// together with a ServeStats record; aggregate counters feed benches.
//
// Every backend configuration serves through one window pipeline
// (Server::serve_window): group the drained window by route and fuse
// key, dispatch its device-ring jobs, then complete the groups in
// arrival order. A CPU-only server is the case where nothing is
// dispatched to a ring.
//
// Thread policy (see common/threads.hpp): with more than one worker the
// server joins a process-wide thread budget that caps the OpenMP kernel
// width to hardware_threads() / (total workers across all live servers),
// so kernel teams x workers never oversubscribe the machine even with
// overlapping Server lifetimes; the pre-cap setting is restored when the
// last capping server stops.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "accel/config.hpp"
#include "common/thread_annotations.hpp"
#include "energy/energy_model.hpp"
#include "exec/backend.hpp"
#include "exec/device_ring.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/batcher.hpp"
#include "runtime/conversion_cache.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/stats.hpp"

namespace mt::runtime {

struct MatrixHandle {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

struct TensorHandle {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

// One unit of work. Which fields matter depends on the kernel:
//   kSpMV            a + vec
//   kGemm / kSpMM    a + dense_b, or a + b (both registered/sparse)
//   kSpGEMM          a + b
//   kSpTTM           x + dense_b (the factor U)
//   kMTTKRP          x + dense_b + dense_c
struct Request {
  Kernel kernel = Kernel::kSpMV;
  MatrixHandle a;              // sparse/registered matrix operand
  MatrixHandle b;              // second registered operand (pair kernels)
  TensorHandle x;              // tensor operand (tensor kernels)
  std::vector<value_t> vec;    // SpMV input vector
  DenseMatrix dense_b;         // dense factor (SpMM B / SpTTM U / MTTKRP B)
  DenseMatrix dense_c;         // MTTKRP C
  // Trace identity (obs/trace.hpp). 0 = assign at admission; the
  // ShardedServer router pre-assigns so one id follows a request across
  // its shard hop. Ignored when tracing is off.
  std::uint64_t trace_id = 0;
};

// Exactly the exec layer's job-output variant — SpMV -> vector,
// GEMM/SpMM/MTTKRP -> DenseMatrix, SpGEMM -> CsrMatrix, SpTTM ->
// DenseTensor3 — so a backend's JobResult::output moves into a Response
// without repacking.
using Result = exec::JobOutput;

struct Response {
  Result result;
  ServeStats stats;
};

// Telemetry switches (src/obs). The always-on baseline — the
// ServerCounters sums behind Server::counters() — is not gated here; it
// predates this layer and benches depend on it. These knobs govern the
// *extra* instrumentation:
//
//   metrics   latency histograms (queue wait, per-kernel x format x tier
//             exec time) and per-plan accumulators. Hot-path cost per
//             request: a handful of relaxed atomic adds on per-thread
//             shards (obs/metrics.hpp).
//   tracing   per-request stage spans into a bounded ring
//             (trace_ring_capacity > 0). Spans are derived from the
//             stage timestamps the server already measures, so the cost
//             is one short lock + a few copies per request, not extra
//             clock reads.
struct ObsOptions {
  bool metrics = true;
  std::size_t trace_ring_capacity = 0;  // records kept; 0 = tracing off
};

// Cache capacity budgets (cache_policy.hpp). They default unbounded;
// bounded caches shed cost-aware-LRU victims past the budget. A zero
// budget is the bypass — every request searches (plans) or re-converts
// (representations) and nothing is stored — which bench_serve uses to
// measure the no-cache path. Under a ShardedServer these bound each
// shard, which is what keeps operand churn safe at fleet scale.
struct CacheSettings {
  CacheOptions plan_limits;
  CacheOptions conversion_limits;
};

// Request batching at the queue head (see runtime/batcher.hpp): kWindow
// lets each worker drain up to `window` queued requests and coalesce
// same-workload SpMV/SpMM/GEMM into one fused kernel; kOff is the
// one-request-one-kernel path.
struct BatchSettings {
  BatchPolicy policy = BatchPolicy::kWindow;
  int window = 8;
};

// How requests pick between the host kernels and the configured device
// backend. Routing happens at plan resolution, so it is part of the plan
// key: the same workload routed to different substrates is two plans.
enum class BackendPolicy : std::uint8_t {
  kForce,  // every request executes on BackendOptions::backend
  kAuto,   // per request: the substrate with the cheaper priced envelope
           // (exec::Backend::price on the flops estimate) wins. Requires
           // a device backend — with none configured there is nothing to
           // route between.
};

// Which execution substrate serves requests (exec/backend.hpp) and how.
//
//   backend   kCpu routes every request through the host kernel library
//             (the default, and the only fused/coalesced path). kSim and
//             kMint build that device backend at server start; `policy`
//             decides which requests route to it; plans gain the backend
//             dimension and are priced on both substrates.
//   async     device jobs go through a bounded submission ring
//             (exec/device_ring.hpp): each serving worker submits its
//             whole drained window before claiming any completion, so one
//             worker keeps up to `window` device jobs in flight instead
//             of blocking inside each kernel call. Requires a device
//             backend.
//   dual_run  every device result is cross-checked against the CPU
//             backend on the same job; a relative error above
//             dual_run_tolerance fails the request (and shows up in
//             mt_serve_dual_run_mismatches_total). The tolerance covers
//             SimBackend's fp32 K-tile reassociation (tests/test_backend
//             documents the bound); mint results are bit-identical.
//   simulate_latency  MintBackend only: run() occupies the modeled
//             offload latency (bounded by max_simulated_latency_ns) so
//             async overlap is physically observable even on one core.
struct BackendOptions {
  exec::BackendKind backend = exec::BackendKind::kCpu;
  BackendPolicy policy = BackendPolicy::kForce;
  bool async = false;
  std::size_t ring_slots = 32;  // descriptor-queue bound
  int ring_workers = 2;         // device-side executor threads
  bool dual_run = false;
  double dual_run_tolerance = 5e-4;
  bool simulate_latency = false;
  std::int64_t max_simulated_latency_ns = 2'000'000;
};

struct ServerOptions {
  int num_workers = 2;
  std::size_t queue_capacity = 64;
  CacheSettings caches;
  BatchSettings batch;
  BackendOptions backend;
  // Set by ShardedServer on its shards: join the process-wide kernel
  // thread budget even with a single worker, so N single-worker shards
  // count as N concurrent kernel callers (a lone 1-worker Server has
  // nothing to share with and skips the registry).
  bool shard_member = false;
  AccelConfig accel = AccelConfig::paper_default();
  EnergyParams energy;
  // Telemetry (src/obs): histograms/per-plan accumulators and request
  // tracing. Defaults keep metrics on (the ≥0.95x overhead budget is
  // checked by bench_serve) and tracing off.
  ObsOptions obs;

};

class Server {
 public:
  // Plan-key fingerprints that get their own mt_plan_exec_ns{plan="<hex>"}
  // series; every later plan records into mt_plan_exec_ns{plan="overflow"},
  // so operand churn cannot grow the registry without bound.
  static constexpr std::size_t kMaxPlanSeries = 1024;

  explicit Server(ServerOptions opts = {});
  ~Server();  // stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // --- Operand registry (callable concurrently with serving) ---

  // Registers an operand in whatever MCF it arrives in; the returned
  // handle is stable for the server's lifetime and never reused. The
  // operand's contents are immutable once registered.
  MatrixHandle register_matrix(AnyMatrix m);
  TensorHandle register_tensor(AnyTensor t);

  // Registers an operand that already lives behind a shared immutable
  // representation, without copying it. The router's cross-shard
  // replication path uses this: the same underlying bytes serve as the
  // source on the home shard and the replica on the executing shard.
  MatrixHandle adopt_matrix(ConversionCache::MatrixPtr m);

  // The registered source representation behind `h` (shared, zero-copy);
  // throws std::invalid_argument if the handle is unknown or evicted.
  ConversionCache::MatrixPtr matrix_source(MatrixHandle h) const;

  // Unregisters the operand and purges its cache entries. In-flight
  // requests already holding its representations finish normally;
  // requests that name the handle afterwards fail (via their future).
  void evict(MatrixHandle h);
  void evict(TensorHandle h);

  // --- Serving ---

  // Enqueues the request (blocking while the queue is full — bounded-queue
  // backpressure) and returns the future carrying the Response. Errors
  // (unknown handle, shape mismatch, stopped server) surface as exceptions
  // on the future.
  std::future<Response> submit(Request r);

  // Resolves (and, caches enabled, memoizes) the plan for `r` without
  // executing it — warmup and tests use this to learn run_a/run_b.
  PlanCache::PlanPtr plan_for(const Request& r);

  // --- Model lifecycle ---

  // Swaps the accelerator/energy model future requests plan against and
  // eagerly retires the superseded fingerprint's cached plans (they could
  // never be hit again — the fingerprint is part of every device-backend
  // plan key). Returns the retired plans broken down by backend.
  // Retirement is backend-partitioned: CPU-backend plans are keyed on
  // kHostModel because CpuBackend pricing never reads the device model,
  // so a device-model swap retires zero of them — they stay cached and
  // keep hitting. (Their SAGE format choice therefore stays pinned at
  // first resolution; re-tuning formats from measured latency is the
  // ROADMAP's adaptive-planning item.) Callable while serving: in-flight
  // requests finish under whichever model they resolved.
  RetireCounts update_model(const AccelConfig& accel,
                            const EnergyParams& energy);

  // Drops every cached plan priced against `model_fingerprint`; returns
  // the per-backend retire counts. update_model calls this for the old
  // model; it is public so external bookkeeping can retire fingerprints
  // it knows are stale. retire_plans(kHostModel) is a no-op by design
  // (see PlanCache::retire).
  RetireCounts retire_plans(std::uint64_t model_fingerprint);

  // Fingerprint of the model currently used for planning.
  std::uint64_t model_fingerprint() const;

  // --- Observability / lifecycle ---

  CountersSnapshot counters() const { return counters_.snapshot(); }
  // Requests admitted but not yet drained by a worker (operators watch it
  // for backpressure). It reads 0 as soon as a worker pops a window's
  // first request, before the window is complete, so it cannot tell a
  // test that a worker is busy: tests/serving_testing.hpp waits for the
  // worker's plan lookup instead.
  //
  // Consistency contract: the value is an atomic snapshot of THIS queue
  // (taken under the queue mutex — never a torn read), but it is stale
  // the instant it returns. Aggregators summing depths across shards
  // (ShardedServer::queue_depth) therefore see a weakly-consistent sum:
  // each addend was exact at its own read point, while the total may
  // correspond to no single global instant. That is the strongest
  // guarantee available without a stop-the-world lock over every shard,
  // and it is monotonic-safe for the real uses — tests that wait for 0
  // on an idle server, and operators watching backpressure trends.
  std::size_t queue_depth() const { return queue_.size(); }
  const PlanCache& plan_cache() const { return plans_; }
  const ConversionCache& conversion_cache() const { return reps_; }
  // The options as given at construction.
  const ServerOptions& options() const { return opts_; }
  // The async submission ring, or null unless a device backend with
  // backend.async is configured. Exposed for its RingStats (the in-flight
  // high-water mark the async acceptance gates on).
  const exec::DeviceRing* device_ring() const { return ring_.get(); }

  // Full telemetry snapshot: every registry metric (counters and the
  // ObsOptions::metrics histograms) plus pull-based gauges sampled now —
  // cache hit/miss/eviction/entries/bytes, queue depth/capacity,
  // kernel-thread width, trace-ring drops. Merged shard reads carry the
  // obs/metrics.hpp weak-consistency contract; the pulled gauges carry
  // queue_depth()'s (each exact at its own read point, jointly from no
  // single instant).
  std::vector<obs::MetricSnapshot> metrics_snapshot() const;
  // The snapshot rendered for scraping (obs/export.hpp).
  std::string metrics_text() const;
  std::string metrics_json() const;

  // Drains the trace ring (oldest-first) — empty when tracing is off.
  std::vector<obs::SpanRecord> drain_trace() { return trace_ring_.drain(); }
  const obs::TraceRing& trace_ring() const { return trace_ring_; }

  // Router hooks (ShardedServer): pre-assign trace ids from this shard's
  // id source and deposit router-side spans (the route stage) into this
  // shard's ring, so every record of one trace drains from one place.
  obs::IdSource& trace_ids() { return trace_ids_; }
  void push_span(const obs::SpanRecord& r) { trace_ring_.push(r); }

  // Closes intake, drains queued requests, joins workers, restores the
  // kernel-thread setting. Idempotent; the destructor calls it.
  void stop();

 private:
  struct Item {
    Request req;
    std::promise<Response> promise;
    std::int64_t enqueue_ns = 0;
  };

  // One coherent read of the live planning model. Each serving window
  // takes one snapshot and uses it for every member's route, plan key
  // and SAGE search, so a concurrent update_model() can never cache a
  // plan priced under one fingerprint but keyed under another.
  struct ModelSnapshot {
    AccelConfig accel;
    EnergyParams energy;
    std::uint64_t fingerprint = 0;
  };

  // One request's serving state for its window's pass. A window's Slots
  // are sized once, so a submitted job's operand pointers (into its Slot)
  // stay valid until the ticket is claimed — the ring's lifetime contract.
  struct Slot {
    exec::BackendKind route = exec::BackendKind::kCpu;
    bool done = false;  // already failed; later stages skip it
    std::int64_t start_ns = 0;  // queue wait ends here
    Response resp;
    PlanCache::PlanPtr plan;
    ConversionCache::MatrixPtr rep_a, rep_b;
    ConversionCache::TensorPtr rep_x;
    // The backend job, operand pointers borrowed from the reps above and
    // the request body. On the CPU backend a coalescible SpMV stages its
    // vector as a width-1 SpMM factor — the bit-stable twin of the fused
    // path — in `staged_b`; `unstack` marks the result for column-0
    // extraction.
    exec::Job job;
    DenseMatrix staged_b;
    bool unstack = false;
    // Set once the job is on the device ring: completing it is a claim.
    exec::DeviceRing::Ticket ticket = exec::DeviceRing::kInvalidTicket;
  };

  void worker_loop();
  // The one serving pipeline, for every backend configuration:
  //   group     route every request under one model snapshot and
  //             partition the window with the backend-aware fuse key
  //             (runtime/batcher.hpp); device-routed requests never fuse;
  //   dispatch  resolve, convert and submit every ring-routed request
  //             before anything is claimed or run on this worker;
  //   complete  walk the groups in first-arrival order: a multi-member
  //             host group runs one fused launch, every other request
  //             runs here or is claimed from the ring.
  // Every request ends in complete() or fail(). A CPU-only server is the
  // case where nothing routes to the ring.
  void serve_window(std::vector<Item>& window);
  // Starts serving a request: its queue wait ends now, and its plan
  // resolves under the window's snapshot and the route picked at grouping.
  void begin(Item& item, Slot& slot, const ModelSnapshot& model);
  // Conversion + job assembly under slot.plan (see Slot::job). The job
  // also borrows `model`, which SimBackend reads while it runs.
  void stage_job(const Request& req, Slot& slot, const ModelSnapshot& model);
  // Runs the staged job on its backend — or claims it from the ring — and
  // moves its output and exec accounting into slot.resp.
  void run_job(Slot& slot);
  // One request to completion: begins it unless the dispatch stage or its
  // group's leader already did, stages and runs (or claims) its job.
  void run_request(Item& item, Slot& slot, const ModelSnapshot& model);
  // A multi-member host group: only the leader resolves the plan, the
  // members' payloads gather into one wide factor for a single SpMM
  // launch, and each member gets its column block back.
  void run_fused(std::vector<Item>& window, std::vector<Slot>& slots,
                 const std::vector<std::size_t>& members,
                 const ModelSnapshot& model);
  // The completion tail every response takes: queue-wait histogram, trace
  // replay, counters, then the promise. fail() is the error twin.
  void complete(Item& item, Response resp, std::int64_t start_ns);
  void fail(Item& item, std::exception_ptr e);
  // Replays a served request's stage intervals (already measured into its
  // ServeStats) as trace spans: queue -> plan -> convert -> exec laid
  // end-to-end from `start_ns`. One ring lock per request, zero extra
  // clock reads.
  void record_trace(std::int64_t enqueue_ns, std::int64_t start_ns,
                    const ServeStats& s);
  // The exec-time histogram for this dispatch
  // (mt_exec_ns{kernel=..,format=..,tier=..}), cached per combination so
  // the steady state is one atomic pointer load. Null when metrics off.
  obs::Histogram* exec_hist(const exec::Dispatch& d);
  BatchItem batch_item_for(const Request& r) const;
  // Dual-run cross-check: replays `job` on the CPU backend and compares
  // outputs (exec::max_rel_error); records the check and throws when the
  // divergence exceeds opts_.backend.dual_run_tolerance.
  void dual_run_check(const exec::Job& job, const exec::JobResult& device);
  // Coarse useful-MAC estimate of `r` (2 * nnz * width style) feeding
  // exec::PricingInput — a relative scale for ranking backends, not an
  // absolute prediction.
  std::int64_t flops_for(const Request& r) const;
  ModelSnapshot model_snapshot() const;
  PlanCache::PlanPtr resolve_plan(const Request& r, ServeStats& s,
                                  const ModelSnapshot& model,
                                  exec::BackendKind route);
  // `key` is key_for(r, route, model), built once by resolve_plan.
  PlanCache::PlanPtr compute_plan(const Request& r, ServeStats& s,
                                  const ModelSnapshot& model,
                                  const PlanKey& key);
  // Which substrate serves `r`: kForce pins every request to the
  // configured backend; kAuto compares the host and device price
  // envelopes (flops estimate only — routing runs before any SAGE
  // search, so it must stay O(1) per request). A request is routed once,
  // under the same snapshot its plan key and SAGE search use, so routing
  // and pricing can never straddle an update_model().
  exec::BackendKind route_backend(const Request& r,
                                  const ModelSnapshot& model) const;
  PlanKey key_for(const Request& r, exec::BackendKind route,
                  const ModelSnapshot& model) const;

  ConversionCache::MatrixPtr matrix_src(std::uint64_t id) const;
  ConversionCache::TensorPtr tensor_src(std::uint64_t id) const;
  bool operand_registered(std::uint64_t id) const;
  ConversionCache::MatrixPtr matrix_rep(MatrixHandle h, Format f,
                                        ServeStats& s);
  ConversionCache::TensorPtr tensor_rep(TensorHandle h, Format f,
                                        ServeStats& s);
  // Counts one representation lookup into `s` and re-purges operand `id`
  // if it was evicted while its lookup missed.
  void count_rep(std::uint64_t id, bool hit, ServeStats& s);
  // The latency accumulator of the plan keyed `key` (kMaxPlanSeries).
  obs::Histogram& plan_latency(const PlanKey& key) MT_EXCLUDES(plan_series_mu_);

  ServerOptions opts_;

  // Live planning model. Starts as opts_.accel/opts_.energy and may be
  // swapped by update_model(); guarded so planning threads never read a
  // half-updated config. opts_ itself stays immutable after construction.
  mutable SharedMutex model_mu_;
  AccelConfig accel_ MT_GUARDED_BY(model_mu_);
  EnergyParams energy_ MT_GUARDED_BY(model_mu_);
  // sage::plan_fingerprint(accel_, energy_)
  std::uint64_t fingerprint_ MT_GUARDED_BY(model_mu_) = 0;

  std::atomic<std::uint64_t> next_id_{1};
  mutable SharedMutex reg_mu_;
  std::unordered_map<std::uint64_t, ConversionCache::MatrixPtr> matrices_
      MT_GUARDED_BY(reg_mu_);
  std::unordered_map<std::uint64_t, ConversionCache::TensorPtr> tensors_
      MT_GUARDED_BY(reg_mu_);

  // Telemetry. Declared before counters_: ServerCounters is a view over
  // registry_ and binds its counters at construction.
  obs::Registry registry_;
  obs::IdSource trace_ids_;
  obs::TraceRing trace_ring_;
  // Cached registry references so the hot path never re-does a name
  // lookup: the queue-wait histogram (null = ObsOptions::metrics off) and
  // one lazily-bound slot per (kernel, ran-format, backend x tier) exec
  // histogram. Benign create race: both racers get the same registry
  // object.
  obs::Histogram* queue_wait_hist_ = nullptr;
  // Plan fingerprint -> its mt_plan_exec_ns series (at most
  // kMaxPlanSeries entries; a re-derived plan rebinds its own series).
  Mutex plan_series_mu_;
  std::unordered_map<std::uint64_t, obs::Histogram*> plan_series_
      MT_GUARDED_BY(plan_series_mu_);
  std::array<std::atomic<obs::Histogram*>,
             kAllKernels.size() * kAllFormats.size() * exec::kNumTierSlots>
      exec_hists_ = {};

  PlanCache plans_;
  ConversionCache reps_;
  ServerCounters counters_;

  // Execution substrates. cpu_backend_ always exists (the host kernel
  // library behind the exec free functions); device_backend_ only when
  // opts_.backend.backend names a device; ring_ only when backend.async
  // is also set. Declared before the queue/workers so serving threads
  // never outlive them; stop() still tears down in the explicit order
  // queue close -> join workers -> ring stop.
  std::unique_ptr<exec::Backend> cpu_backend_;
  std::unique_ptr<exec::Backend> device_backend_;
  std::unique_ptr<exec::DeviceRing> ring_;

  MpmcQueue<Item> queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
  bool capped_threads_ = false;
};

}  // namespace mt::runtime
