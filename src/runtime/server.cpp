#include "runtime/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/threads.hpp"
#include "obs/export.hpp"
#include "sage/plan_key.hpp"

namespace mt::runtime {

namespace {

// Whether a host SpMV planned onto `acf` runs as its width-1 SpMM twin,
// the kernel its fused group launches (so its bits never depend on
// batch timing).
bool spmv_runs_as_spmm(Format acf) {
  return coalescible_spmv_format(acf) && exec::has_native(Kernel::kSpMM, acf);
}

// Plan-fingerprint label for the per-plan latency accumulators
// (mt_plan_exec_ns{plan="<hex>"}).
std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const CooTensor3& as_coo(const AnyTensor& t) {
  const auto* coo = std::get_if<CooTensor3>(&t);
  MT_ENSURE(coo != nullptr, "SAGE input representation must be COO");
  return *coo;
}

// Process-wide kernel-thread budget shared by every live multi-worker
// server and every ShardedServer shard (single-worker shards join via
// ServerOptions::shard_member): the cap is hardware / (total workers
// across servers), so the "workers x kernel width never oversubscribes"
// invariant holds even with overlapping Server lifetimes. The pre-cap
// override is saved once and restored when the last capping server stops.
class ThreadCapRegistry {
 public:
  void acquire(int workers) MT_EXCLUDES(mu_) {
    LockGuard lk(mu_);
    if (servers_ == 0) {
      saved_override_ = num_threads_override();
      baseline_ = num_threads();
    }
    ++servers_;
    total_workers_ += workers;
    apply();
  }

  void release(int workers) MT_EXCLUDES(mu_) {
    LockGuard lk(mu_);
    --servers_;
    total_workers_ -= workers;
    if (servers_ == 0) {
      set_num_threads(saved_override_);
    } else {
      apply();
    }
  }

  static ThreadCapRegistry& instance() {
    static ThreadCapRegistry r;
    return r;
  }

 private:
  void apply() MT_REQUIRES(mu_) {
    const int cap = std::max(1, hardware_threads() / total_workers_);
    set_num_threads(std::min(cap, baseline_));
  }

  Mutex mu_;
  int servers_ MT_GUARDED_BY(mu_) = 0;
  int total_workers_ MT_GUARDED_BY(mu_) = 0;
  int saved_override_ MT_GUARDED_BY(mu_) = 0;
  int baseline_ MT_GUARDED_BY(mu_) = 1;  // solo kernel width before any cap
};

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      accel_(opts_.accel),
      energy_(opts_.energy),
      fingerprint_(plan_fingerprint(opts_.accel, opts_.energy)),
      trace_ring_(opts_.obs.trace_ring_capacity),
      plans_(opts_.caches.plan_limits),
      reps_(opts_.caches.conversion_limits),
      counters_(registry_),
      queue_(opts_.queue_capacity) {
  MT_REQUIRE(opts_.num_workers >= 1, "server needs at least one worker");
  MT_REQUIRE(opts_.batch.window >= 1, "batch window must be at least 1");
  cpu_backend_ = exec::make_backend(exec::BackendKind::kCpu);
  if (opts_.backend.backend != exec::BackendKind::kCpu) {
    exec::MintBackendOptions mo;
    mo.simulate_latency = opts_.backend.simulate_latency;
    mo.max_simulated_latency_ns = opts_.backend.max_simulated_latency_ns;
    device_backend_ = exec::make_backend(opts_.backend.backend, mo);
    if (opts_.backend.async) {
      exec::RingOptions ro;
      ro.slots = opts_.backend.ring_slots;
      ro.workers = opts_.backend.ring_workers;
      ring_ = std::make_unique<exec::DeviceRing>(*device_backend_, ro);
    }
  } else {
    MT_REQUIRE(!opts_.backend.async && !opts_.backend.dual_run,
               "async submission and dual-run need a device backend");
    MT_REQUIRE(opts_.backend.policy == BackendPolicy::kForce,
               "auto backend routing needs a device backend to route to");
  }
  if (opts_.obs.metrics) {
    queue_wait_hist_ = &registry_.histogram("mt_serve_queue_wait_ns");
  }
  if (opts_.num_workers > 1 || opts_.shard_member) {
    ThreadCapRegistry::instance().acquire(opts_.num_workers);
    capped_threads_ = true;
  }
  workers_.reserve(static_cast<std::size_t>(opts_.num_workers));
  for (int i = 0; i < opts_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

// NOLINTNEXTLINE(bugprone-exception-escape): stop() only closes the queue
// and joins workers; neither path throws in practice, and a destructor
// that deadlocked instead of joining would be strictly worse.
Server::~Server() { stop(); }

void Server::stop() {
  if (stopped_.exchange(true)) return;
  queue_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Workers claim every ticket they submitted before exiting, so by here
  // the ring is idle; stop it after the joins so no claim ever races a
  // drained ring.
  if (ring_ != nullptr) ring_->stop();
  if (capped_threads_) ThreadCapRegistry::instance().release(opts_.num_workers);
}

// --- Registry ---

MatrixHandle Server::register_matrix(AnyMatrix m) {
  return adopt_matrix(std::make_shared<const AnyMatrix>(std::move(m)));
}

MatrixHandle Server::adopt_matrix(ConversionCache::MatrixPtr m) {
  MT_REQUIRE(m != nullptr, "cannot adopt a null matrix representation");
  const auto id = next_id_.fetch_add(1, std::memory_order_relaxed);
  LockGuard lk(reg_mu_);
  matrices_.emplace(id, std::move(m));
  return {id};
}

ConversionCache::MatrixPtr Server::matrix_source(MatrixHandle h) const {
  MT_REQUIRE(h.valid(), "handle names no matrix operand");
  return matrix_src(h.id);
}

TensorHandle Server::register_tensor(AnyTensor t) {
  const auto id = next_id_.fetch_add(1, std::memory_order_relaxed);
  auto rep = std::make_shared<const AnyTensor>(std::move(t));
  LockGuard lk(reg_mu_);
  tensors_.emplace(id, std::move(rep));
  return {id};
}

void Server::evict(MatrixHandle h) {
  {
    LockGuard lk(reg_mu_);
    matrices_.erase(h.id);
  }
  reps_.evict(h.id);
  plans_.evict_operand(h.id);
}

void Server::evict(TensorHandle h) {
  {
    LockGuard lk(reg_mu_);
    tensors_.erase(h.id);
  }
  reps_.evict(h.id);
  plans_.evict_operand(h.id);
}

ConversionCache::MatrixPtr Server::matrix_src(std::uint64_t id) const {
  SharedLock lk(reg_mu_);
  auto it = matrices_.find(id);
  MT_REQUIRE(it != matrices_.end(), "unknown or evicted matrix handle");
  return it->second;
}

ConversionCache::TensorPtr Server::tensor_src(std::uint64_t id) const {
  SharedLock lk(reg_mu_);
  auto it = tensors_.find(id);
  MT_REQUIRE(it != tensors_.end(), "unknown or evicted tensor handle");
  return it->second;
}

bool Server::operand_registered(std::uint64_t id) const {
  SharedLock lk(reg_mu_);
  return matrices_.contains(id) || tensors_.contains(id);
}

// --- Representation resolution ---

ConversionCache::MatrixPtr Server::matrix_rep(MatrixHandle h, Format f,
                                              ServeStats& s) {
  MT_REQUIRE(h.valid(), "request names no matrix operand");
  bool hit = false;
  auto rep = reps_.matrix(h.id, f, matrix_src(h.id), &hit);
  count_rep(h.id, hit, s);
  return rep;
}

ConversionCache::TensorPtr Server::tensor_rep(TensorHandle h, Format f,
                                              ServeStats& s) {
  MT_REQUIRE(h.valid(), "request names no tensor operand");
  bool hit = false;
  auto rep = reps_.tensor(h.id, f, tensor_src(h.id), &hit);
  count_rep(h.id, hit, s);
  return rep;
}

void Server::count_rep(std::uint64_t id, bool hit, ServeStats& s) {
  ++(hit ? s.conversion_hits : s.conversion_misses);
  // evict() may have purged the cache between our registry lookup and the
  // insert; ids are never reused, so re-purge rather than leak an
  // unreachable entry. (evict erases the registry before purging, so if
  // the id is still registered here, its purge cannot have missed us.) A
  // bypassed cache inserted nothing.
  if (!hit && !reps_.bypass() && !operand_registered(id)) reps_.evict(id);
}

// --- Model lifecycle ---

RetireCounts Server::update_model(const AccelConfig& accel,
                                  const EnergyParams& energy) {
  std::uint64_t old = 0;
  {
    LockGuard lk(model_mu_);
    const auto next = plan_fingerprint(accel, energy);
    if (next == fingerprint_) return {};  // same model: nothing to retire
    old = fingerprint_;
    accel_ = accel;
    energy_ = energy;
    fingerprint_ = next;
  }
  // Device-backend plans for the old fingerprint can never be hit again
  // (the fingerprint is part of their key); reclaim them instead of
  // leaking dead entries. CPU-backend plans are keyed on kHostModel and
  // survive — their pricing never read the device model.
  return plans_.retire(old);
}

RetireCounts Server::retire_plans(std::uint64_t model_fingerprint) {
  return plans_.retire(model_fingerprint);
}

std::uint64_t Server::model_fingerprint() const {
  SharedLock lk(model_mu_);
  return fingerprint_;
}

Server::ModelSnapshot Server::model_snapshot() const {
  SharedLock lk(model_mu_);
  return {accel_, energy_, fingerprint_};
}

// --- Planning ---

exec::BackendKind Server::route_backend(const Request& r,
                                        const ModelSnapshot& model) const {
  if (device_backend_ == nullptr) return exec::BackendKind::kCpu;
  if (opts_.backend.policy == BackendPolicy::kForce) {
    return opts_.backend.backend;
  }
  // kAuto: the cheaper priced envelope wins. Pricing on the flops
  // estimate alone (no SAGE CostBreakdown — none exists before the
  // search) keeps routing O(1); the device's fixed offload overhead
  // (e.g. MintBackend's PCIe latency floor) is what sends small
  // workloads to the host.
  exec::PricingInput pin;
  pin.kernel = r.kernel;
  pin.flops = flops_for(r);
  pin.accel = &model.accel;
  pin.energy = &model.energy;
  const double host_ns = cpu_backend_->price(pin).ns;
  const double device_ns = device_backend_->price(pin).ns;
  return device_ns < host_ns ? opts_.backend.backend
                             : exec::BackendKind::kCpu;
}

PlanKey Server::key_for(const Request& r, exec::BackendKind route,
                        const ModelSnapshot& model) const {
  PlanKey k;
  k.kernel = r.kernel;
  k.backend = route;
  // CPU-backend plans are model-independent (CpuBackend::price never
  // reads the device AccelConfig/EnergyParams), so they key on the
  // kHostModel sentinel: a device-model swap retires none of them.
  k.model = k.backend == exec::BackendKind::kCpu ? kHostModel
                                                 : model.fingerprint;
  if (is_tensor_kernel(r.kernel)) {
    k.a = r.x.id;
    k.width = r.dense_b.cols();
  } else {
    k.a = r.a.id;
    k.b = r.b.id;
    switch (r.kernel) {
      case Kernel::kSpMV: k.width = 1; break;
      case Kernel::kGemm:
      case Kernel::kSpMM:
        k.width = r.b.valid() ? 0 : r.dense_b.cols();
        break;
      default: break;
    }
  }
  return k;
}

PlanCache::PlanPtr Server::compute_plan(const Request& r, ServeStats& s,
                                        const ModelSnapshot& model,
                                        const PlanKey& key) {
  const AccelConfig& accel = model.accel;
  const EnergyParams& energy = model.energy;
  auto plan = std::make_shared<Plan>();
  plan->kernel = r.kernel;
  plan->backend = key.backend;
  switch (r.kernel) {
    case Kernel::kGemm:
      // Dense x Dense is the only native GEMM; no search needed.
      plan->run_a = plan->run_b = Format::kDense;
      break;
    case Kernel::kSpMV: {
      const auto a = matrix_rep(r.a, Format::kCSR, s);
      plan->choice =
          sage_select_spmm_dense_b(std::get<CsrMatrix>(*a), 1, accel, energy);
      plan->run_a = exec::runnable(Kernel::kSpMV, plan->choice.acf_a);
      break;
    }
    case Kernel::kSpMM: {
      const auto a = matrix_rep(r.a, Format::kCSR, s);
      if (r.b.valid()) {
        const auto b = matrix_rep(r.b, Format::kCSR, s);
        plan->choice = sage_select_matmul(std::get<CsrMatrix>(*a),
                                          std::get<CsrMatrix>(*b), accel,
                                          energy);
        // Plan onto the pair the engine runs natively, so serving never
        // pays its per-call conversion fallback.
        std::tie(plan->run_a, plan->run_b) =
            exec::runnable_pair(plan->choice.acf_a, plan->choice.acf_b);
      } else {
        plan->choice = sage_select_spmm_dense_b(
            std::get<CsrMatrix>(*a), r.dense_b.cols(), accel, energy);
        plan->run_a = exec::runnable(Kernel::kSpMM, plan->choice.acf_a);
        // The factor arrives dense in the request body and is consumed
        // dense; only registered operands go through the conversion cache.
        plan->run_b = Format::kDense;
      }
      break;
    }
    case Kernel::kSpGEMM: {
      const auto a = matrix_rep(r.a, Format::kCSR, s);
      const auto b = matrix_rep(r.b, Format::kCSR, s);
      // Priced for the stats/describe; the engine's native SpGEMM pair is
      // CSR x CSR, so that is what the server executes and caches.
      plan->choice = sage_select_matmul(std::get<CsrMatrix>(*a),
                                        std::get<CsrMatrix>(*b), accel,
                                        energy);
      plan->run_a = plan->run_b = Format::kCSR;
      break;
    }
    case Kernel::kSpTTM:
    case Kernel::kMTTKRP: {
      const auto x = tensor_rep(r.x, Format::kCOO, s);
      plan->tensor_choice =
          sage_select_tensor(as_coo(*x), r.dense_b.cols(), r.kernel,
                             accel, energy);
      plan->run_a = exec::runnable(r.kernel, plan->tensor_choice.acf_t);
      break;
    }
  }
  // The backend dimension: price the workload on the host and (when one
  // is configured) the device, and stamp which substrate executes it.
  // The SAGE CostBreakdown of the winning combination — where a search
  // ran — is the device envelope; plain GEMM prices on the MAC estimate.
  {
    exec::PricingInput pin;
    pin.kernel = r.kernel;
    pin.flops = flops_for(r);
    if (is_tensor_kernel(r.kernel)) {
      pin.sage_cost = &plan->tensor_choice.cost;
    } else if (r.kernel != Kernel::kGemm) {
      pin.sage_cost = &plan->choice.cost;
    }
    pin.accel = &accel;
    pin.energy = &energy;
    plan->cpu_cost_ns = cpu_backend_->price(pin).ns;
    if (device_backend_ != nullptr) {
      plan->device_cost_ns = device_backend_->price(pin).ns;
      plan->modeled_device_ns =
          static_cast<std::int64_t>(std::llround(plan->device_cost_ns));
    }
  }
  if (opts_.obs.metrics) plan->latency = &plan_latency(key);
  return plan;
}

obs::Histogram& Server::plan_latency(const PlanKey& key) {
  // Labeled by the plan key's fingerprint. Re-deriving an evicted plan
  // rebinds the same histogram, so a plan's measured distribution survives
  // cache churn — exactly what the adaptive planner wants to learn from.
  const auto fp = static_cast<std::uint64_t>(PlanKeyHash{}(key));
  LockGuard lk(plan_series_mu_);
  if (const auto it = plan_series_.find(fp); it != plan_series_.end()) {
    return *it->second;
  }
  if (plan_series_.size() >= kMaxPlanSeries) {
    return registry_.histogram("mt_plan_exec_ns{plan=\"overflow\"}");
  }
  auto& h = registry_.histogram("mt_plan_exec_ns{plan=\"" + hex64(fp) + "\"}");
  plan_series_.emplace(fp, &h);
  return h;
}

PlanCache::PlanPtr Server::resolve_plan(const Request& r, ServeStats& s,
                                        const ModelSnapshot& model,
                                        exec::BackendKind route) {
  const auto t0 = now_ns();
  // One key per request: the routing decision, the cached entry, and the
  // latency-accumulator label all see the same backend and model.
  const PlanKey key = key_for(r, route, model);
  bool hit = false;
  auto plan = plans_.get_or_compute(
      key, [&] { return compute_plan(r, s, model, key); }, &hit);
  s.plan_cache_hit = hit;
  // Same evict race as in count_rep: un-publish a plan inserted for an
  // operand that was concurrently evicted, or under a fingerprint that
  // update_model() concurrently retired (the entry is internally
  // consistent either way — key and pricing share one snapshot — this is
  // memory hygiene, not correctness). A bypassed cache inserted nothing.
  if (!hit && !plans_.bypass()) {
    if (key.a != 0 && !operand_registered(key.a)) {
      plans_.evict_operand(key.a);
    }
    if (key.b != 0 && !operand_registered(key.b)) {
      plans_.evict_operand(key.b);
    }
    // kHostModel-keyed (CPU) plans are never stale: no model swap can
    // invalidate them, so only device-fingerprint keys get the check.
    if (key.model != kHostModel && key.model != model_fingerprint()) {
      plans_.retire(key.model);
    }
  }
  s.plan_ns = now_ns() - t0;
  return plan;
}

PlanCache::PlanPtr Server::plan_for(const Request& r) {
  ServeStats scratch;
  const ModelSnapshot model = model_snapshot();
  return resolve_plan(r, scratch, model, route_backend(r, model));
}

// --- Serving ---

std::future<Response> Server::submit(Request r) {
  Item item;
  item.req = std::move(r);
  if (item.req.trace_id == 0 && trace_ring_.capacity() > 0) {
    item.req.trace_id = trace_ids_.next();
  }
  item.enqueue_ns = now_ns();
  auto fut = item.promise.get_future();
  if (!queue_.push(std::move(item))) {
    // push() returning false leaves the moved-from argument untouched
    // (the queue was closed before any mutation), so the promise is
    // still ours to fail.
    // NOLINTNEXTLINE(bugprone-use-after-move)
    item.promise.set_exception(std::make_exception_ptr(
        std::runtime_error("server is stopped; request rejected")));
  }
  return fut;
}

void Server::dual_run_check(const exec::Job& job,
                            const exec::JobResult& device) {
  const exec::JobResult host = cpu_backend_->run(job);
  const double err = exec::max_rel_error(host.output, device.output);
  const bool ok = err <= opts_.backend.dual_run_tolerance;
  counters_.record_dual_run(ok);
  if (!ok) {
    throw std::runtime_error(
        "dual-run mismatch: device output diverges from the host kernels "
        "(max relative error " +
        std::to_string(err) + ")");
  }
}

std::int64_t Server::flops_for(const Request& r) const {
  switch (r.kernel) {
    case Kernel::kSpMV:
      return 2 * nnz_of(*matrix_src(r.a.id));
    case Kernel::kGemm:
    case Kernel::kSpMM: {
      const auto a = matrix_src(r.a.id);
      const auto width = static_cast<std::int64_t>(
          r.b.valid() ? cols_of(*matrix_src(r.b.id)) : r.dense_b.cols());
      return 2 * nnz_of(*a) * width;
    }
    case Kernel::kSpGEMM: {
      const auto a = matrix_src(r.a.id);
      const auto b = matrix_src(r.b.id);
      // Expected MACs of the product: nnz(A) times B's average row fill.
      const auto rows_b =
          std::max<std::int64_t>(1, static_cast<std::int64_t>(rows_of(*b)));
      return 2 * nnz_of(*a) *
             std::max<std::int64_t>(1, nnz_of(*b) / rows_b);
    }
    case Kernel::kSpTTM:
    case Kernel::kMTTKRP:
      return 2 * nnz_of(*tensor_src(r.x.id)) *
             static_cast<std::int64_t>(r.dense_b.cols());
  }
  return 0;
}

// --- The serving pipeline: group -> dispatch -> complete ---

void Server::worker_loop() {
  std::vector<Item> window;
  while (auto item = queue_.pop()) {
    window.clear();
    window.push_back(std::move(*item));
    if (opts_.batch.policy == BatchPolicy::kWindow && opts_.batch.window > 1) {
      // Extend the window with whatever is already queued — never wait
      // for more traffic; an idle queue means a window of one.
      queue_.try_pop_n(window,
                       static_cast<std::size_t>(opts_.batch.window - 1));
    }
    serve_window(window);
  }
}

void Server::serve_window(std::vector<Item>& window) {
  // One snapshot per window: every member's route and plan key read the
  // same model, and submitted jobs point into it until they are claimed.
  const ModelSnapshot model = model_snapshot();
  // Sized once, so a submitted job's pointers into its Slot stay stable.
  std::vector<Slot> slots(window.size());
  const auto drop = [&](std::size_t i) {
    fail(window[i], std::current_exception());
    slots[i].done = true;
  };

  // Group. Device-routed requests never fuse (the fused gather/scatter
  // twin is a host-kernel bit contract), and the routed backend is part
  // of the fuse key, so no group crosses a substrate. A request that
  // fails to route keeps its default, unfusible meta.
  std::vector<BatchItem> meta(window.size());
  for (std::size_t i = 0; i < window.size(); ++i) {
    try {
      slots[i].route = route_backend(window[i].req, model);
    } catch (...) {
      drop(i);
      continue;
    }
    meta[i] = batch_item_for(window[i].req);
    meta[i].backend = slots[i].route;
    if (slots[i].route != exec::BackendKind::kCpu) meta[i].fusible = false;
  }
  const auto groups = form_batches(meta);

  // Dispatch. Every ring-routed job is submitted before anything is
  // claimed or run on this worker, so one worker keeps up to a window of
  // device jobs in flight; the ring bounds only queued descriptors, so
  // submit-all-then-claim-all cannot deadlock.
  if (ring_ != nullptr) {
    for (std::size_t i = 0; i < window.size(); ++i) {
      Slot& slot = slots[i];
      if (slot.done || slot.route == exec::BackendKind::kCpu) continue;
      try {
        begin(window[i], slot, model);
        stage_job(window[i].req, slot, model);
        slot.ticket = ring_->submit(slot.job);
        if (slot.ticket == exec::DeviceRing::kInvalidTicket) {
          throw std::runtime_error(
              "server is stopping; device ring rejected the job");
        }
      } catch (...) {
        drop(i);
      }
    }
  }

  // Complete, in first-arrival group order: that keeps per-handle FIFO
  // completion across the host/device split. Host work runs here while
  // submitted jobs are still on the device. A fused group only ever holds
  // host-routed requests that routed without error.
  for (const auto& group : groups) {
    if (group.fused && group.members.size() > 1) {
      run_fused(window, slots, group.members, model);
      continue;
    }
    for (const auto i : group.members) {
      if (!slots[i].done) run_request(window[i], slots[i], model);
    }
  }
}

void Server::begin(Item& item, Slot& slot, const ModelSnapshot& model) {
  slot.start_ns = now_ns();
  ServeStats& s = slot.resp.stats;
  s.queue_wait_ns = slot.start_ns - item.enqueue_ns;
  s.trace_id = item.req.trace_id;
  slot.plan = resolve_plan(item.req, s, model, slot.route);
}

void Server::stage_job(const Request& req, Slot& slot,
                       const ModelSnapshot& model) {
  const Plan& plan = *slot.plan;
  ServeStats& s = slot.resp.stats;
  const auto t_conv = now_ns();
  if (is_tensor_kernel(req.kernel)) {
    slot.rep_x = tensor_rep(req.x, plan.run_a, s);
  } else {
    slot.rep_a = matrix_rep(req.a, plan.run_a, s);
    if (req.b.valid()) slot.rep_b = matrix_rep(req.b, plan.run_b, s);
  }
  s.convert_ns = now_ns() - t_conv;

  exec::Job& job = slot.job;
  job.kernel = req.kernel;
  job.modeled_ns = plan.modeled_device_ns;
  // SimBackend reads the config while it runs; the window's snapshot
  // outlives every job of the window.
  job.accel = &model.accel;
  job.energy = &model.energy;
  job.a = slot.rep_a.get();
  job.x = slot.rep_x.get();
  switch (req.kernel) {
    case Kernel::kSpMV:
      if (plan.backend == exec::BackendKind::kCpu &&
          spmv_runs_as_spmm(plan.run_a)) {
        // CPU backend only: coalescible plans serve through the SpMM twin
        // as a width-1 column stack — exactly the coalesced path with one
        // member — so response bits never depend on batch timing, in
        // every kernel tier. (The SIMD SpMV row kernel reduces 8 lanes in
        // a tree and would otherwise round differently from the twin.)
        // Device backends take the SpMV job as-is: device-routed requests
        // never fuse, so there is no batch-timing bit contract to keep,
        // and the sim lowers SpMV to a k x 1 matmul anyway.
        slot.staged_b = exec::stack_columns({&req.vec});
        slot.unstack = true;
        job.kernel = Kernel::kSpMM;
        job.dense_b = &slot.staged_b;
      } else {
        job.vec = &req.vec;
      }
      break;
    case Kernel::kGemm:
    case Kernel::kSpMM:
      if (slot.rep_b != nullptr) {
        job.b = slot.rep_b.get();
      } else {
        job.dense_b = &req.dense_b;
      }
      break;
    case Kernel::kSpGEMM:
      MT_REQUIRE(slot.rep_b != nullptr,
                 "SpGEMM needs two registered operands");
      job.b = slot.rep_b.get();
      break;
    case Kernel::kSpTTM:
      job.dense_b = &req.dense_b;
      break;
    case Kernel::kMTTKRP:
      job.dense_b = &req.dense_b;
      job.dense_c = &req.dense_c;
      break;
  }
}

void Server::run_job(Slot& slot) {
  ServeStats& s = slot.resp.stats;
  const bool device = slot.plan->backend != exec::BackendKind::kCpu;
  const bool claimed = slot.ticket != exec::DeviceRing::kInvalidTicket;
  const auto t_exec = now_ns();
  exec::JobResult jr;
  if (claimed) {
    jr = ring_->wait(slot.ticket);
    s.device_wait_ns = now_ns() - t_exec;
  } else {
    jr = (device ? device_backend_ : cpu_backend_)->run(slot.job);
  }
  if (device && opts_.backend.dual_run) dual_run_check(slot.job, jr);
  s.dispatch = jr.dispatch;
  s.device_ns = jr.device_ns;
  if (slot.unstack) {
    slot.resp.result = exec::column_of(std::get<DenseMatrix>(jr.output), 0);
  } else {
    slot.resp.result = std::move(jr.output);
  }
  // A claimed job reports its device-side wall time; a run on this
  // worker, the worker's.
  s.exec_ns = claimed ? jr.run_ns : now_ns() - t_exec;
  if (slot.plan->latency != nullptr) slot.plan->latency->record(s.exec_ns);
  if (auto* h = exec_hist(s.dispatch)) h->record(s.exec_ns);
}

void Server::run_request(Item& item, Slot& slot,
                         const ModelSnapshot& model) {
  try {
    if (slot.plan == nullptr) begin(item, slot, model);
    if (slot.ticket == exec::DeviceRing::kInvalidTicket) {
      stage_job(item.req, slot, model);
    }
    run_job(slot);
    complete(item, std::move(slot.resp), slot.start_ns);
  } catch (...) {
    fail(item, std::current_exception());
  }
}

void Server::run_fused(std::vector<Item>& window, std::vector<Slot>& slots,
                       const std::vector<std::size_t>& members,
                       const ModelSnapshot& model) {
  Item& lead = window[members.front()];
  Slot& ls = slots[members.front()];
  try {
    // Only the leader resolves: the members share one workload key, so a
    // resolution failure (unknown/evicted handle) is every member's.
    begin(lead, ls, model);
    const Plan& plan = *ls.plan;
    const bool is_spmv = lead.req.kernel == Kernel::kSpMV;
    if (is_spmv && !spmv_runs_as_spmm(plan.run_a)) {
      // No provably bit-identical SpMM twin for this plan's ACF: serve
      // the leader under the stats that already paid the resolution, then
      // the rest one by one (their resolutions hit the now-cached plan).
      for (const auto i : members) run_request(window[i], slots[i], model);
      return;
    }
    ServeStats& lstats = ls.resp.stats;
    const auto start = ls.start_ns;  // group start: queue wait ends here
    const auto t_conv = now_ns();
    const auto rep_a = matrix_rep(lead.req.a, plan.run_a, lstats);
    lstats.convert_ns = now_ns() - t_conv;

    // Gather: one wide dense factor from the members' payloads.
    const index_t width = is_spmv ? 1 : lead.req.dense_b.cols();
    DenseMatrix fused_b;
    if (is_spmv) {
      std::vector<const std::vector<value_t>*> cols;
      cols.reserve(members.size());
      for (const auto i : members) cols.push_back(&window[i].req.vec);
      fused_b = exec::stack_columns(cols);
    } else {
      std::vector<const DenseMatrix*> blocks;
      blocks.reserve(members.size());
      for (const auto i : members) blocks.push_back(&window[i].req.dense_b);
      fused_b = exec::concat_columns(blocks);
    }

    const auto t_exec = now_ns();
    exec::Dispatch dispatch;
    const DenseMatrix fused_c = exec::spmm(*rep_a, fused_b, &dispatch);
    const auto exec_end = now_ns();
    const auto exec_ns = exec_end - t_exec;
    // Histograms see the launch, not the members: one fused kernel is one
    // latency sample (the per-request counters still amortize below).
    if (ls.plan->latency != nullptr) ls.plan->latency->record(exec_ns);
    if (auto* eh = exec_hist(dispatch)) eh->record(exec_ns);

    // Scatter: build every response before completing any promise, so a
    // failure anywhere still fails the whole group uniformly.
    const int n = static_cast<int>(members.size());
    for (std::size_t j = 0; j < members.size(); ++j) {
      const Item& it = window[members[j]];
      Response& resp = slots[members[j]].resp;
      ServeStats& s = resp.stats;
      // The leader's stats carry the real plan/convert accounting.
      // Followers were absorbed by its resolution — a cache hit when the
      // plan cache is on, a freeride (not a hit) when it is bypassed, so
      // bypass-mode counters still read zero hits.
      if (j > 0) s.plan_cache_hit = !plans_.bypass();
      s.queue_wait_ns = start - it.enqueue_ns;
      s.trace_id = it.req.trace_id;
      s.batched = true;
      s.batch_size = n;
      s.dispatch = dispatch;
      s.exec_ns = exec_ns / n;  // amortized slice: sums stay meaningful
      const auto j_idx = static_cast<index_t>(j);
      if (is_spmv) {
        resp.result = exec::column_of(fused_c, j_idx);
      } else {
        resp.result = exec::column_block(fused_c, j_idx * width, width);
      }
    }
    // Trace: plan/convert on the leader's trace, one group span covering
    // the fused launch, and per-member exec slices that exactly partition
    // the group interval (slice j is [t_exec + j*exec_ns/n,
    // t_exec + (j+1)*exec_ns/n)) and link to it via parent_span — each
    // member's slice lives on that member's own trace id, so following
    // any one request's trace leads to the launch it shared.
    if (trace_ring_.capacity() > 0 && lead.req.trace_id != 0) {
      obs::TraceScope scope(&trace_ring_, &trace_ids_, lead.req.trace_id);
      scope.add(obs::Stage::kPlan, start, start + lstats.plan_ns);
      scope.add(obs::Stage::kConvert, start + lstats.plan_ns,
                start + lstats.plan_ns + lstats.convert_ns);
      const auto group =
          scope.add(obs::Stage::kGroup, t_exec, exec_end, 0, n);
      for (std::size_t j = 0; j < members.size(); ++j) {
        const Item& it = window[members[j]];
        const auto jj = static_cast<std::int64_t>(j);
        scope.add_for(it.req.trace_id, obs::Stage::kQueue, it.enqueue_ns,
                      start);
        scope.add_for(it.req.trace_id, obs::Stage::kExec,
                      t_exec + jj * exec_ns / n,
                      t_exec + (jj + 1) * exec_ns / n, group, n);
      }
      scope.add(obs::Stage::kScatter, exec_end, now_ns(), 0, n);
    }
    // Count before completing any promise: a client that observes its
    // future ready must also observe the batch in the counters.
    counters_.record_batch(n);
    for (const auto i : members) {
      complete(window[i], std::move(slots[i].resp), start);
    }
  } catch (...) {
    const auto e = std::current_exception();
    for (const auto i : members) fail(window[i], e);
  }
}

void Server::complete(Item& item, Response resp, std::int64_t start_ns) {
  if (queue_wait_hist_ != nullptr) {
    queue_wait_hist_->record(resp.stats.queue_wait_ns);
  }
  // A fused member's spans were recorded with its group's.
  if (!resp.stats.batched) record_trace(item.enqueue_ns, start_ns, resp.stats);
  // Count before completing the promise: a client that observes its
  // future ready must also observe it in the counters.
  counters_.record(resp.stats);
  item.promise.set_value(std::move(resp));
}

void Server::fail(Item& item, std::exception_ptr e) {
  counters_.record_failure();
  item.promise.set_exception(std::move(e));
}

void Server::record_trace(std::int64_t enqueue_ns, std::int64_t start_ns,
                          const ServeStats& s) {
  if (trace_ring_.capacity() == 0 || s.trace_id == 0) return;
  obs::TraceScope scope(&trace_ring_, &trace_ids_, s.trace_id);
  scope.add(obs::Stage::kQueue, enqueue_ns, start_ns);
  // The serve path runs plan -> convert -> exec back to back, so laying
  // the measured durations end to end reconstructs the real intervals.
  auto t = start_ns;
  scope.add(obs::Stage::kPlan, t, t + s.plan_ns);
  t += s.plan_ns;
  scope.add(obs::Stage::kConvert, t, t + s.convert_ns);
  t += s.convert_ns;
  scope.add(obs::Stage::kExec, t, t + s.exec_ns, 0, s.batch_size);
}

obs::Histogram* Server::exec_hist(const exec::Dispatch& d) {
  if (!opts_.obs.metrics) return nullptr;
  const auto k = static_cast<std::size_t>(d.kernel);
  const auto f = static_cast<std::size_t>(d.ran_a);
  const auto t = exec::tier_slot(d.backend, d.tier);
  auto& slot =
      exec_hists_[(k * kAllFormats.size() + f) * exec::kNumTierSlots + t];
  auto* h = slot.load(std::memory_order_acquire);
  if (h == nullptr) {
    // CPU runs keep the historical "scalar"/"avx2" label values; device
    // backends add "sim"/"mint" under the same label key, so existing
    // scrapes of mt_exec_ns series stay stable.
    std::string name = "mt_exec_ns{kernel=\"";
    name += name_of(d.kernel);
    name += "\",format=\"";
    name += name_of(d.ran_a);
    name += "\",tier=\"";
    name += exec::tier_label(d.backend, d.tier);
    name += "\"}";
    h = &registry_.histogram(name);
    slot.store(h, std::memory_order_release);
  }
  return h;
}

BatchItem Server::batch_item_for(const Request& r) const {
  BatchItem b;
  b.kernel = r.kernel;
  switch (r.kernel) {
    case Kernel::kSpMV:
      b.a = r.a.id;
      b.rows = static_cast<index_t>(r.vec.size());
      b.width = 1;
      b.fusible = true;
      break;
    case Kernel::kGemm:
    case Kernel::kSpMM:
      b.a = r.a.id;
      b.b = r.b.id;
      if (!r.b.valid()) {
        // Dense factors concatenate column-wise; registered-pair SpMM
        // has no dense payload to fuse and passes through.
        b.rows = r.dense_b.rows();
        b.width = r.dense_b.cols();
        b.fusible = true;
      }
      break;
    case Kernel::kSpGEMM:
      b.a = r.a.id;
      b.b = r.b.id;
      break;
    case Kernel::kSpTTM:
    case Kernel::kMTTKRP:
      b.x = r.x.id;
      break;
  }
  return b;
}

// --- Exposition ---

std::vector<obs::MetricSnapshot> Server::metrics_snapshot() const {
  auto snap = registry_.snapshot();
  // Pull-based series: levels owned by their structures (caches, queue),
  // sampled only here so steady-state serving never maintains them.
  // Counters among them (hits, evictions) are monotone at the source, so
  // the exported series is monotone too.
  std::vector<obs::MetricSnapshot> pulled;
  const auto add = [&pulled](const char* name, std::int64_t v,
                             obs::MetricSnapshot::Kind kind) {
    obs::MetricSnapshot m;
    m.name = name;
    m.kind = kind;
    m.value = v;
    pulled.push_back(std::move(m));
  };
  const auto counter = [&add](const char* name, std::int64_t v) {
    add(name, v, obs::MetricSnapshot::Kind::kCounter);
  };
  const auto gauge = [&add](const char* name, std::int64_t v) {
    add(name, v, obs::MetricSnapshot::Kind::kGauge);
  };
  counter("mt_plan_cache_hits_total", plans_.hits());
  counter("mt_plan_cache_misses_total", plans_.misses());
  counter("mt_plan_cache_evictions_total", plans_.evictions());
  gauge("mt_plan_cache_entries", static_cast<std::int64_t>(plans_.size()));
  counter("mt_conversion_cache_hits_total", reps_.hits());
  counter("mt_conversion_cache_misses_total", reps_.misses());
  counter("mt_conversion_cache_evictions_total", reps_.evictions());
  gauge("mt_conversion_cache_entries",
        static_cast<std::int64_t>(reps_.size()));
  gauge("mt_conversion_cache_bytes",
        static_cast<std::int64_t>(reps_.bytes()));
  gauge("mt_queue_depth", static_cast<std::int64_t>(queue_.size()));
  gauge("mt_queue_capacity",
        static_cast<std::int64_t>(opts_.queue_capacity));
  gauge("mt_workers", opts_.num_workers);
  gauge("mt_kernel_threads", num_threads());
  counter("mt_trace_dropped_total", trace_ring_.dropped());
  gauge("mt_trace_buffered_spans",
        static_cast<std::int64_t>(trace_ring_.size()));
  if (ring_ != nullptr) {
    // Async device ring levels. mt_device_inflight_peak is the high-water
    // mark of submitted-but-uncompleted jobs — the series the ">1 in
    // flight per worker" acceptance reads.
    const auto rs = ring_->stats();
    gauge("mt_device_ring_slots", static_cast<std::int64_t>(ring_->slots()));
    gauge("mt_device_ring_workers", ring_->workers());
    gauge("mt_device_inflight", rs.in_flight);
    gauge("mt_device_inflight_peak", rs.peak_in_flight);
    counter("mt_device_jobs_submitted_total", rs.submitted);
    counter("mt_device_jobs_completed_total", rs.completed);
  }
  obs::merge_snapshots(snap, pulled);
  return snap;
}

std::string Server::metrics_text() const {
  return obs::metrics_text(metrics_snapshot());
}

std::string Server::metrics_json() const {
  return obs::metrics_json(metrics_snapshot());
}

}  // namespace mt::runtime
