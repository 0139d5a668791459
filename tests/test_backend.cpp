// Pluggable execution backends (exec/backend.hpp), the async device
// submission ring (exec/device_ring.hpp), and their serving integration:
// mint bit-identity with the CPU kernels, CPU-vs-sim dual-run agreement
// on all six kernels, ring ticket/backpressure/drain semantics, the
// server's async device path keeping >1 job in flight per worker, and
// the serving pipeline's one failure tail on mixed host/device windows.
//
// Tolerance note (the dual-run contract): SimBackend lowers every kernel
// to tiled fp32 A*B matmuls inside the simulator's single-tile envelope,
// accumulating K-tile partial products in tile order. That reassociates
// the K-reduction relative to the CPU kernels — the same few-ULP-per-term
// divergence the SIMD tier's lane trees show in test_simd. With value_t =
// float (eps ~ 1.2e-7) and reductions of tens-to-hundreds of terms, the
// observed relative error is ~1e-6..1e-5; the checks (and the server's
// default BackendOptions::dual_run_tolerance) use 5e-4 — decades above
// any legitimate reassociation, decades below a real defect (~1e-1).
// MintBackend runs the CPU kernels themselves, so its bound is exactly 0.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "convert/convert.hpp"
#include "exec/backend.hpp"
#include "exec/device_ring.hpp"
#include "exec/exec.hpp"
#include "runtime/server.hpp"
#include "serving_testing.hpp"
#include "testing.hpp"

namespace {

using namespace mt;
using runtime::Request;
using runtime::Response;
using runtime::Server;
using runtime::ServerOptions;
using mt::testing::occupy_worker;
using mt::testing::random_dense;
using mt::testing::random_tensor;

constexpr double kSimTolerance = 5e-4;  // see the tolerance note above

// Seeded operand set covering all six kernels, plus a Job builder wiring
// the right fields per kernel (the borrowed-pointer convention of
// exec::Job). Members outlive every Job built from them.
struct Operands {
  DenseMatrix a_dense = random_dense(40, 32, 0.3, 11);
  DenseMatrix b_dense = random_dense(32, 40, 0.25, 12);
  AnyMatrix a_csr = encode(a_dense, Format::kCSR);
  AnyMatrix b_csr = encode(b_dense, Format::kCSR);
  AnyMatrix a_plain = encode(a_dense, Format::kDense);
  DenseMatrix factor = random_dense(32, 8, 1.0, 13);
  std::vector<value_t> vec = std::vector<value_t>(32, 0.5f);
  DenseTensor3 x_dense = random_tensor(9, 11, 8, 0.2, 14);
  AnyTensor x_csf = encode(x_dense, Format::kCSF);
  DenseMatrix u = random_dense(8, 6, 1.0, 15);      // SpTTM factor (z x r)
  DenseMatrix kb = random_dense(11, 5, 1.0, 16);    // MTTKRP B (y x r)
  DenseMatrix kc = random_dense(8, 5, 1.0, 17);     // MTTKRP C (z x r)

  Operands() {
    for (std::size_t i = 0; i < vec.size(); ++i) {
      vec[i] = 0.125f * static_cast<float>(i % 7) - 0.25f;
    }
  }

  exec::Job job(Kernel k) const {
    exec::Job j;
    j.kernel = k;
    switch (k) {
      case Kernel::kSpMV:
        j.a = &a_csr;
        j.vec = &vec;
        break;
      case Kernel::kGemm:
        j.a = &a_plain;
        j.dense_b = &factor;
        break;
      case Kernel::kSpMM:
        // The unified entry point: a second compressed operand, the shape
        // that used to be a separate SpMM special case.
        j.a = &a_csr;
        j.b = &b_csr;
        break;
      case Kernel::kSpGEMM:
        j.a = &a_csr;
        j.b = &b_csr;
        break;
      case Kernel::kSpTTM:
        j.x = &x_csf;
        j.dense_b = &u;
        break;
      case Kernel::kMTTKRP:
        j.x = &x_csf;
        j.dense_b = &kb;
        j.dense_c = &kc;
        break;
    }
    return j;
  }
};

constexpr Kernel kSixKernels[] = {Kernel::kGemm,   Kernel::kSpMM,
                                  Kernel::kSpGEMM, Kernel::kSpMV,
                                  Kernel::kSpTTM,  Kernel::kMTTKRP};

// --- Backend x tier labeling (the obs series contract) ---

TEST(BackendTier, CpuLabelsKeepPreBackendSeriesNames) {
  using exec::BackendKind;
  using exec::ExecTier;
  // The pre-backend mt_exec_ns{...,tier=...} values were "scalar"/"avx2";
  // the backend dimension must not rename them.
  EXPECT_EQ(exec::tier_label(BackendKind::kCpu, ExecTier::kScalar), "scalar");
  EXPECT_EQ(exec::tier_label(BackendKind::kCpu, ExecTier::kSimd), "avx2");
  EXPECT_EQ(exec::tier_label(BackendKind::kSim, ExecTier::kDevice), "sim");
  EXPECT_EQ(exec::tier_label(BackendKind::kMint, ExecTier::kDevice), "mint");
}

TEST(BackendTier, SlotsAreDenseAndDistinct) {
  using exec::BackendKind;
  using exec::ExecTier;
  const std::size_t slots[] = {
      exec::tier_slot(BackendKind::kCpu, ExecTier::kScalar),
      exec::tier_slot(BackendKind::kCpu, ExecTier::kSimd),
      exec::tier_slot(BackendKind::kSim, ExecTier::kDevice),
      exec::tier_slot(BackendKind::kMint, ExecTier::kDevice)};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LT(slots[i], exec::kNumTierSlots);
    for (std::size_t j = i + 1; j < 4; ++j) EXPECT_NE(slots[i], slots[j]);
  }
}

// --- Direct backend runs: mint bit-identity, sim tolerance ---

TEST(BackendFactory, KindsRoundTrip) {
  for (auto k : {exec::BackendKind::kCpu, exec::BackendKind::kSim,
                 exec::BackendKind::kMint}) {
    EXPECT_EQ(exec::make_backend(k)->kind(), k);
  }
}

TEST(BackendMint, BitIdenticalToCpuOnAllSixKernels) {
  const Operands ops;
  const auto cpu = exec::make_backend(exec::BackendKind::kCpu);
  const auto mint = exec::make_backend(exec::BackendKind::kMint);
  for (Kernel k : kSixKernels) {
    auto j = ops.job(k);
    j.modeled_ns = 1234;
    const auto want = cpu->run(j);
    const auto got = mint->run(j);
    EXPECT_EQ(exec::max_rel_error(want.output, got.output), 0.0)
        << name_of(k);
    EXPECT_EQ(got.dispatch.backend, exec::BackendKind::kMint) << name_of(k);
    EXPECT_EQ(got.dispatch.tier, exec::ExecTier::kDevice) << name_of(k);
    // Mint reports the job's modeled offload latency as its device time.
    EXPECT_EQ(got.device_ns, 1234) << name_of(k);
    EXPECT_EQ(want.device_ns, 0) << name_of(k);
  }
}

TEST(BackendSim, DualRunAgreesWithCpuOnAllSixKernels) {
  const Operands ops;
  const auto cpu = exec::make_backend(exec::BackendKind::kCpu);
  const auto sim = exec::make_backend(exec::BackendKind::kSim);
  for (Kernel k : kSixKernels) {
    const auto j = ops.job(k);
    const auto want = cpu->run(j);
    const auto got = sim->run(j);
    const double err = exec::max_rel_error(want.output, got.output);
    EXPECT_LE(err, kSimTolerance) << name_of(k);
    EXPECT_EQ(got.dispatch.backend, exec::BackendKind::kSim) << name_of(k);
    EXPECT_EQ(got.dispatch.tier, exec::ExecTier::kDevice) << name_of(k);
    // The simulator's cycle count at the model clock: always > 0 for a
    // job that did any work.
    EXPECT_GT(got.device_ns, 0) << name_of(k);
  }
}

TEST(BackendCompare, MaxRelErrorDetectsShapeAndTypeMismatch) {
  const auto inf = std::numeric_limits<double>::infinity();
  const exec::JobOutput v3 = std::vector<value_t>{1.0f, 2.0f, 3.0f};
  const exec::JobOutput v2 = std::vector<value_t>{1.0f, 2.0f};
  const exec::JobOutput m = DenseMatrix(2, 2);
  EXPECT_EQ(exec::max_rel_error(v3, v3), 0.0);
  EXPECT_EQ(exec::max_rel_error(v3, v2), inf);
  EXPECT_EQ(exec::max_rel_error(v3, m), inf);
  exec::JobOutput off = std::vector<value_t>{1.0f, 2.0f, 3.5f};
  // |3.0 - 3.5| / 3.5: mixed absolute/relative with max(1,|x|,|y|) scale.
  EXPECT_NEAR(exec::max_rel_error(v3, off), 0.5 / 3.5, 1e-9);
}

TEST(BackendPricing, CostsArePositiveAndScaleWithWork) {
  exec::PricingInput in;
  in.kernel = Kernel::kSpMM;
  in.flops = 1'000'000;
  const auto cpu = exec::make_backend(exec::BackendKind::kCpu);
  const auto sim = exec::make_backend(exec::BackendKind::kSim);
  const auto mint = exec::make_backend(exec::BackendKind::kMint);
  const auto c1 = cpu->price(in);
  EXPECT_GT(c1.ns, 0.0);
  EXPECT_GT(c1.energy_j, 0.0);
  EXPECT_GT(sim->price(in).ns, 0.0);
  EXPECT_GT(mint->price(in).ns, 0.0);
  in.flops *= 4;
  EXPECT_GT(cpu->price(in).ns, c1.ns);
}

// --- DeviceRing unit tests ---

// Gate-controlled stub: run() parks until open() so tests can hold jobs
// "on the device" and observe queue backpressure and in-flight depth
// deterministically.
class GateBackend final : public exec::Backend {
 public:
  exec::BackendKind kind() const override { return exec::BackendKind::kMint; }

  exec::JobResult run(const exec::Job& job) const override {
    std::unique_lock<std::mutex> lk(mu_);
    ++started_;
    started_cv_.notify_all();
    open_cv_.wait(lk, [&] { return open_; });
    exec::JobResult r;
    r.output = std::vector<value_t>{static_cast<value_t>(job.modeled_ns)};
    r.dispatch.backend = exec::BackendKind::kMint;
    r.dispatch.tier = exec::ExecTier::kDevice;
    return r;
  }

  exec::BackendCost price(const exec::PricingInput&) const override {
    return {};
  }

  void open() {
    std::lock_guard<std::mutex> lk(mu_);
    open_ = true;
    open_cv_.notify_all();
  }

  void wait_started(int n) const {
    std::unique_lock<std::mutex> lk(mu_);
    started_cv_.wait(lk, [&] { return started_ >= n; });
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable started_cv_, open_cv_;
  mutable bool open_ = false;
  mutable int started_ = 0;
};

class ThrowBackend final : public exec::Backend {
 public:
  exec::BackendKind kind() const override { return exec::BackendKind::kMint; }
  exec::JobResult run(const exec::Job&) const override {
    throw std::runtime_error("device fault");
  }
  exec::BackendCost price(const exec::PricingInput&) const override {
    return {};
  }
};

exec::Job tagged_job(std::int64_t tag) {
  exec::Job j;
  j.modeled_ns = tag;
  return j;
}

value_t tag_of(const exec::JobResult& r) {
  return std::get<std::vector<value_t>>(r.output).at(0);
}

TEST(DeviceRing, TicketsAreMonotonicFromOneAndClaimsMatchJobs) {
  GateBackend dev;
  exec::DeviceRing ring(dev, {.slots = 8, .workers = 2});
  std::vector<exec::DeviceRing::Ticket> tickets;
  for (int i = 0; i < 5; ++i) tickets.push_back(ring.submit(tagged_job(i)));
  dev.open();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(tickets[static_cast<std::size_t>(i)],
              static_cast<exec::DeviceRing::Ticket>(i + 1));
    const auto r = ring.wait(tickets[static_cast<std::size_t>(i)]);
    EXPECT_EQ(tag_of(r), static_cast<value_t>(i));
    EXPECT_GE(r.run_ns, 0);  // stamped by the ring's device-side clock
  }
  const auto s = ring.stats();
  EXPECT_EQ(s.submitted, 5);
  EXPECT_EQ(s.completed, 5);
  EXPECT_EQ(s.in_flight, 0);
}

TEST(DeviceRing, SubmitAllThenClaimAllOutrunsTheSlotCount) {
  // Backpressure bounds only the descriptor queue: one submitter may post
  // far more jobs than slots before claiming any, because executing and
  // completed-unclaimed jobs do not hold slots.
  const auto mint = exec::make_backend(exec::BackendKind::kMint);
  exec::DeviceRing ring(*mint, {.slots = 1, .workers = 1});
  const Operands ops;
  std::vector<exec::DeviceRing::Ticket> tickets;
  for (int i = 0; i < 8; ++i) tickets.push_back(ring.submit(ops.job(Kernel::kSpMV)));
  const auto want = mint->run(ops.job(Kernel::kSpMV));
  for (auto t : tickets) {
    const auto r = ring.wait(t);
    EXPECT_EQ(exec::max_rel_error(want.output, r.output), 0.0);
  }
  const auto rs = ring.stats();
  EXPECT_EQ(rs.submitted, 8);
  // The slot bound holds: at most 1 queued + 1 executing ever coexist.
  EXPECT_LE(rs.peak_in_flight, 2);
}

TEST(DeviceRing, BackpressureBlocksSubmitUntilASlotFrees) {
  GateBackend dev;
  exec::DeviceRing ring(dev, {.slots = 2, .workers = 1});
  // First job occupies the worker (gate closed); two more fill the queue.
  ring.submit(tagged_job(1));
  dev.wait_started(1);
  ring.submit(tagged_job(2));
  ring.submit(tagged_job(3));
  std::atomic<bool> accepted{false};
  std::thread blocked([&] {
    ring.submit(tagged_job(4));  // must block: both slots are held
    accepted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(accepted.load());
  EXPECT_EQ(ring.stats().in_flight, 3);  // 1 executing + 2 queued
  dev.open();
  blocked.join();
  EXPECT_TRUE(accepted.load());
  for (exec::DeviceRing::Ticket t = 1; t <= 4; ++t) (void)ring.wait(t);
  EXPECT_GE(ring.stats().peak_in_flight, 3);
}

TEST(DeviceRing, PeakInFlightSeesConcurrentDeviceWorkers) {
  GateBackend dev;
  exec::DeviceRing ring(dev, {.slots = 4, .workers = 2});
  ring.submit(tagged_job(1));
  ring.submit(tagged_job(2));
  dev.wait_started(2);  // both device workers hold a job simultaneously
  EXPECT_GE(ring.stats().in_flight, 2);
  dev.open();
  (void)ring.wait(1);
  (void)ring.wait(2);
  EXPECT_GE(ring.stats().peak_in_flight, 2);
}

TEST(DeviceRing, StopDrainsAcceptedTicketsAndClosesIntake) {
  const auto mint = exec::make_backend(exec::BackendKind::kMint);
  exec::DeviceRing ring(*mint, {.slots = 8, .workers = 1});
  const Operands ops;
  std::vector<exec::DeviceRing::Ticket> tickets;
  for (int i = 0; i < 3; ++i) tickets.push_back(ring.submit(ops.job(Kernel::kSpMV)));
  ring.stop();
  // Every accepted ticket still claims its result after stop().
  for (auto t : tickets) {
    const auto r = ring.wait(t);
    EXPECT_TRUE(std::holds_alternative<std::vector<value_t>>(r.output));
  }
  // Intake is closed: the job is not accepted.
  EXPECT_EQ(ring.submit(ops.job(Kernel::kSpMV)),
            exec::DeviceRing::kInvalidTicket);
  // Claims are one-shot: a drained ring reports the double claim.
  EXPECT_THROW((void)ring.wait(tickets[0]), std::invalid_argument);
}

TEST(DeviceRing, NeverIssuedTicketsThrow) {
  const auto mint = exec::make_backend(exec::BackendKind::kMint);
  exec::DeviceRing ring(*mint, {.slots = 2, .workers = 1});
  exec::JobResult out;
  EXPECT_THROW((void)ring.try_poll(exec::DeviceRing::kInvalidTicket, &out),
               std::invalid_argument);
  EXPECT_THROW((void)ring.try_poll(99, &out), std::invalid_argument);
  EXPECT_THROW((void)ring.wait(7), std::invalid_argument);
}

TEST(DeviceRing, TryPollReportsInFlightThenDelivers) {
  GateBackend dev;
  exec::DeviceRing ring(dev, {.slots = 2, .workers = 1});
  const auto t = ring.submit(tagged_job(42));
  dev.wait_started(1);
  exec::JobResult out;
  EXPECT_FALSE(ring.try_poll(t, &out));  // still on the device
  dev.open();
  while (!ring.try_poll(t, &out)) std::this_thread::yield();
  EXPECT_EQ(tag_of(out), 42.0f);
}

TEST(DeviceRing, StopMidSubmitAllLeavesUnadmittedJobsInvalid) {
  GateBackend dev;
  exec::DeviceRing ring(dev, {.slots = 1, .workers = 1});
  const auto t1 = ring.submit(tagged_job(1));
  dev.wait_started(1);             // job 1 executing
  const auto t2 = ring.submit(tagged_job(2));  // the only slot is held
  std::vector<exec::DeviceRing::Ticket> batch;
  std::thread submitter([&] {
    // A window posted job by job, as the server's dispatch stage does.
    for (const int tag : {3, 4}) {
      batch.push_back(ring.submit(tagged_job(tag)));
    }
  });
  // Let the submitter park on backpressure, then stop the ring while it
  // waits. stop() wakes it before any slot frees, so neither window job
  // is admitted (the second finds intake already closed); stop() itself
  // blocks joining the gated worker until open() lets the accepted jobs
  // drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread stopper([&] { ring.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  dev.open();
  stopper.join();
  submitter.join();
  ASSERT_EQ(batch.size(), 2u);
  for (auto t : batch) EXPECT_EQ(t, exec::DeviceRing::kInvalidTicket);
  // Accepted tickets still drain and claim after the stop.
  EXPECT_EQ(tag_of(ring.wait(t1)), 1.0f);
  EXPECT_EQ(tag_of(ring.wait(t2)), 2.0f);
  EXPECT_EQ(ring.stats().submitted, 2);
}

TEST(DeviceRing, DeviceFaultsRethrowAtClaim) {
  const ThrowBackend dev;
  exec::DeviceRing ring(dev, {.slots = 2, .workers = 1});
  const auto t = ring.submit(tagged_job(1));
  EXPECT_THROW((void)ring.wait(t), std::runtime_error);
  EXPECT_EQ(ring.stats().completed, 1);  // a faulted job still completes
}

// --- Grouped ServerOptions ---

TEST(ServerOptionsGroups, AsyncAndDualRunRequireADeviceBackend) {
  ServerOptions o;
  o.backend.async = true;  // backend.backend left at kCpu
  EXPECT_THROW(Server srv(o), std::invalid_argument);
  ServerOptions o2;
  o2.backend.dual_run = true;
  EXPECT_THROW(Server srv2(o2), std::invalid_argument);
}

// --- Server integration: device backends, async ring, dual-run ---

ServerOptions device_opts(exec::BackendKind kind) {
  ServerOptions o;
  o.num_workers = 1;
  o.queue_capacity = 32;
  o.batch.window = 16;
  o.accel.num_pes = 32;
  o.accel.pe_buffer_bytes = 64 * 4;
  o.backend.backend = kind;
  return o;
}

Request spmv_request(runtime::MatrixHandle a, const std::vector<value_t>& x) {
  Request r;
  r.kernel = Kernel::kSpMV;
  r.a = a;
  r.vec = x;
  return r;
}

TEST(ServerBackend, BlockingMintServesBitIdenticalResults) {
  auto o = device_opts(exec::BackendKind::kMint);
  Server srv(o);
  const auto a_dense = random_dense(48, 40, 0.1, 21);
  const auto h = srv.register_matrix(encode(a_dense, Format::kCSR));
  std::vector<value_t> x(40, 0.25f);

  const auto plan = srv.plan_for(spmv_request(h, x));
  EXPECT_EQ(plan->backend, exec::BackendKind::kMint);
  EXPECT_GT(plan->cpu_cost_ns, 0.0);
  EXPECT_GT(plan->device_cost_ns, 0.0);
  EXPECT_EQ(plan->modeled_device_ns,
            static_cast<std::int64_t>(std::llround(plan->device_cost_ns)));

  const auto resp = srv.submit(spmv_request(h, x)).get();
  // Mint runs the CPU kernels on the plan's repaired ACF rep: bit-equal
  // to a direct engine call on that format.
  const auto want = exec::spmv(encode(a_dense, plan->run_a), x);
  EXPECT_EQ(std::get<std::vector<value_t>>(resp.result), want);
  EXPECT_EQ(resp.stats.dispatch.backend, exec::BackendKind::kMint);
  EXPECT_EQ(resp.stats.dispatch.tier, exec::ExecTier::kDevice);
  EXPECT_EQ(resp.stats.device_ns, plan->modeled_device_ns);
  EXPECT_EQ(srv.device_ring(), nullptr);  // blocking path: no ring

  const auto c = srv.counters();
  EXPECT_EQ(c.device_jobs, 1);
  EXPECT_EQ(c.dual_run_checks, 0);
}

TEST(ServerBackend, DualRunSimAgreesOnEveryKernelKind) {
  auto o = device_opts(exec::BackendKind::kSim);
  o.backend.dual_run = true;  // default tolerance covers sim (see header)
  Server srv(o);
  const auto a_dense = random_dense(40, 32, 0.15, 22);
  const auto b_dense = random_dense(32, 40, 0.15, 23);
  const auto ha = srv.register_matrix(encode(a_dense, Format::kCSR));
  const auto hb = srv.register_matrix(encode(b_dense, Format::kCSR));
  const auto hd = srv.register_matrix(encode(a_dense, Format::kDense));
  const auto hx = srv.register_tensor(encode(random_tensor(9, 11, 8, 0.2, 24),
                                             Format::kCSF));

  std::vector<Request> reqs;
  reqs.push_back(spmv_request(ha, std::vector<value_t>(32, 0.5f)));
  {
    Request r;
    r.kernel = Kernel::kSpMM;
    r.a = ha;
    r.dense_b = random_dense(32, 8, 1.0, 25);
    reqs.push_back(std::move(r));
  }
  {
    Request r;
    r.kernel = Kernel::kGemm;
    r.a = hd;
    r.dense_b = random_dense(32, 8, 1.0, 26);
    reqs.push_back(std::move(r));
  }
  {
    Request r;
    r.kernel = Kernel::kSpGEMM;
    r.a = ha;
    r.b = hb;
    reqs.push_back(std::move(r));
  }
  {
    Request r;
    r.kernel = Kernel::kSpTTM;
    r.x = hx;
    r.dense_b = random_dense(8, 6, 1.0, 27);
    reqs.push_back(std::move(r));
  }
  {
    Request r;
    r.kernel = Kernel::kMTTKRP;
    r.x = hx;
    r.dense_b = random_dense(11, 5, 1.0, 28);
    r.dense_c = random_dense(8, 5, 1.0, 29);
    reqs.push_back(std::move(r));
  }

  for (auto& r : reqs) {
    const auto resp = srv.submit(std::move(r)).get();  // throws on mismatch
    EXPECT_EQ(resp.stats.dispatch.backend, exec::BackendKind::kSim);
  }
  const auto c = srv.counters();
  EXPECT_EQ(c.completed, static_cast<std::int64_t>(reqs.size()));
  EXPECT_EQ(c.dual_run_checks, static_cast<std::int64_t>(reqs.size()));
  EXPECT_EQ(c.dual_run_mismatches, 0);
  EXPECT_EQ(c.failed, 0);
}

TEST(ServerBackend, DualRunMismatchFailsTheRequest) {
  auto o = device_opts(exec::BackendKind::kSim);
  o.backend.dual_run = true;
  // An unsatisfiable tolerance turns every check into a mismatch: the
  // deterministic way to exercise the failure path (sim's real error may
  // legitimately be 0 on tiny reductions).
  o.backend.dual_run_tolerance = -1.0;
  Server srv(o);
  const auto h = srv.register_matrix(
      encode(random_dense(32, 24, 0.2, 31), Format::kCSR));
  auto fut = srv.submit(spmv_request(h, std::vector<value_t>(24, 1.0f)));
  EXPECT_THROW((void)fut.get(), std::runtime_error);
  const auto c = srv.counters();
  EXPECT_EQ(c.dual_run_checks, 1);
  EXPECT_EQ(c.dual_run_mismatches, 1);
  EXPECT_EQ(c.failed, 1);
}

TEST(ServerBackend, AsyncRingKeepsManyDeviceJobsInFlightPerWorker) {
  auto o = device_opts(exec::BackendKind::kMint);
  o.backend.async = true;
  o.backend.ring_slots = 32;
  o.backend.ring_workers = 2;
  // Occupy the modeled latency on the "device": that wall-clock is what
  // the submit-all-then-claim-all window overlaps.
  o.backend.simulate_latency = true;
  Server srv(o);
  ASSERT_NE(srv.device_ring(), nullptr);
  EXPECT_EQ(srv.device_ring()->slots(), 32u);
  EXPECT_EQ(srv.device_ring()->workers(), 2);

  const auto a_dense = random_dense(64, 48, 0.1, 41);
  const auto h = srv.register_matrix(encode(a_dense, Format::kCSR));
  const auto hs_a = srv.register_matrix(
      encode(random_dense(400, 400, 0.05, 42), Format::kCSR));
  const auto hs_b = srv.register_matrix(
      encode(random_dense(400, 400, 0.05, 43), Format::kCSR));

  std::vector<std::vector<value_t>> xs;
  for (int i = 0; i < 8; ++i) {
    std::vector<value_t> x(48);
    for (index_t k = 0; k < 48; ++k) {
      x[static_cast<std::size_t>(k)] =
          0.125f * static_cast<float>((k + i) % 9) - 0.25f;
    }
    xs.push_back(std::move(x));
  }
  const auto plan = srv.plan_for(spmv_request(h, xs[0]));

  // Stage the burst behind the occupied worker; the next drained window
  // holds all eight requests, and the async path submits the whole window
  // into the ring before claiming the first completion.
  auto occupier = occupy_worker(srv, hs_a, hs_b);
  std::vector<std::future<Response>> futs;
  for (auto& x : xs) futs.push_back(srv.submit(spmv_request(h, x)));
  (void)occupier.get();

  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto resp = futs[i].get();
    const auto want = exec::spmv(encode(a_dense, plan->run_a), xs[i]);
    EXPECT_EQ(std::get<std::vector<value_t>>(resp.result), want) << i;
    EXPECT_EQ(resp.stats.dispatch.backend, exec::BackendKind::kMint) << i;
    EXPECT_GT(resp.stats.device_ns, 0) << i;
    EXPECT_GE(resp.stats.device_wait_ns, 0) << i;
  }

  // The acceptance gate: one serving worker demonstrably held more than
  // one device job in flight.
  const auto rs = srv.device_ring()->stats();
  EXPECT_GT(rs.peak_in_flight, 1);
  EXPECT_EQ(rs.submitted, 9);  // occupier + 8 staged requests
  EXPECT_EQ(rs.completed, 9);

  const auto c = srv.counters();
  EXPECT_EQ(c.device_jobs, 9);
  const auto text = srv.metrics_text();
  EXPECT_NE(text.find("mt_device_inflight_peak"), std::string::npos);
  EXPECT_NE(text.find("mt_device_ring_slots"), std::string::npos);
  EXPECT_NE(text.find("mt_device_jobs_submitted_total"), std::string::npos);
  EXPECT_NE(text.find("tier=\"mint\""), std::string::npos);
}

TEST(ServerBackend, AsyncRingStopsCleanlyWithServerStop) {
  auto o = device_opts(exec::BackendKind::kMint);
  o.backend.async = true;
  o.backend.ring_workers = 1;
  Server srv(o);
  const auto h = srv.register_matrix(
      encode(random_dense(32, 24, 0.2, 51), Format::kCSR));
  auto fut = srv.submit(spmv_request(h, std::vector<value_t>(24, 1.0f)));
  (void)fut.get();
  srv.stop();  // joins workers, then stops the ring; idempotent
  srv.stop();
  EXPECT_EQ(srv.device_ring()->stats().in_flight, 0);
}

// Multi-client mixed-kernel traffic through the async mint ring — the
// TSan target (this suite carries the `concurrency` ctest label): server
// workers, ring workers, and client threads all touch the ring, the
// caches, and the counters concurrently.
TEST(ServerBackendStress, AsyncMintMixedTrafficStaysCoherent) {
  auto o = device_opts(exec::BackendKind::kMint);
  o.num_workers = 2;
  o.queue_capacity = 64;
  o.batch.window = 8;
  o.backend.async = true;
  o.backend.ring_slots = 16;
  o.backend.ring_workers = 2;
  o.backend.simulate_latency = true;
  o.backend.max_simulated_latency_ns = 200'000;  // keep the test quick
  Server srv(o);

  const auto a_dense = random_dense(48, 40, 0.1, 61);
  const auto ha = srv.register_matrix(encode(a_dense, Format::kCSR));
  const auto factor = random_dense(40, 6, 1.0, 62);
  const std::vector<value_t> x(40, 0.5f);
  const auto spmv_plan = srv.plan_for(spmv_request(ha, x));
  const auto want_spmv = exec::spmv(encode(a_dense, spmv_plan->run_a), x);

  Request mm;
  mm.kernel = Kernel::kSpMM;
  mm.a = ha;
  mm.dense_b = factor;
  const auto spmm_plan = srv.plan_for(mm);
  const auto want_spmm =
      exec::spmm(encode(a_dense, spmm_plan->run_a), factor);

  constexpr int kClients = 3;
  constexpr int kPerClient = 16;
  std::vector<std::thread> clients;
  std::atomic<int> bad{0};
  for (int cidx = 0; cidx < kClients; ++cidx) {
    clients.emplace_back([&, cidx] {
      for (int i = 0; i < kPerClient; ++i) {
        const bool mv = ((cidx + i) % 2) == 0;
        Request r;
        if (mv) {
          r = spmv_request(ha, x);
        } else {
          r.kernel = Kernel::kSpMM;
          r.a = ha;
          r.dense_b = factor;
        }
        const auto resp = srv.submit(std::move(r)).get();
        if (mv) {
          if (std::get<std::vector<value_t>>(resp.result) != want_spmv) ++bad;
        } else {
          if (!(std::get<DenseMatrix>(resp.result) == want_spmm)) ++bad;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);

  const auto c = srv.counters();
  EXPECT_EQ(c.completed, kClients * kPerClient);
  EXPECT_EQ(c.device_jobs, kClients * kPerClient);
  EXPECT_EQ(c.failed, 0);
  const auto rs = srv.device_ring()->stats();
  EXPECT_EQ(rs.submitted, kClients * kPerClient);
  EXPECT_EQ(rs.completed, rs.submitted);
  EXPECT_EQ(rs.in_flight, 0);
}

// --- Auto backend routing + partitioned plan retirement ---

// kAuto with the mint backend: routing compares priced envelopes, and
// MintBackend's PCIe latency floor (10us per job) is the deterministic
// lever — tiny workloads stay on the host, chunky ones clear the floor
// and go to the device. (SimBackend's fallback price has no such floor,
// so these tests pin mint.)
ServerOptions auto_opts() {
  auto o = device_opts(exec::BackendKind::kMint);
  o.backend.policy = runtime::BackendPolicy::kAuto;
  return o;
}

TEST(ServerBackendAuto, RoutesByPricedEnvelopePerRequest) {
  Server srv(auto_opts());
  const auto small_dense = random_dense(48, 40, 0.1, 71);
  const auto big_dense = random_dense(400, 400, 0.05, 72);
  const auto hs = srv.register_matrix(encode(small_dense, Format::kCSR));
  const auto hb = srv.register_matrix(encode(big_dense, Format::kCSR));

  // ~400 flops: CPU's 2us dispatch beats mint's 10us PCIe floor.
  const std::vector<value_t> x(40, 0.5f);
  const auto cpu_plan = srv.plan_for(spmv_request(hs, x));
  EXPECT_EQ(cpu_plan->backend, exec::BackendKind::kCpu);

  // ~128k flops: 64us of host arithmetic dwarfs the offload floor.
  Request mm;
  mm.kernel = Kernel::kSpMM;
  mm.a = hb;
  mm.dense_b = random_dense(400, 8, 1.0, 73);
  const auto dev_plan = srv.plan_for(mm);
  EXPECT_EQ(dev_plan->backend, exec::BackendKind::kMint);

  // Served dispatches agree with the routed plans.
  const auto r1 = srv.submit(spmv_request(hs, x)).get();
  EXPECT_EQ(r1.stats.dispatch.backend, exec::BackendKind::kCpu);
  Request mm2 = mm;
  const auto r2 = srv.submit(std::move(mm2)).get();
  EXPECT_EQ(r2.stats.dispatch.backend, exec::BackendKind::kMint);
  EXPECT_EQ(srv.counters().device_jobs, 1);
}

TEST(ServerBackendAuto, DeviceModelSwapLeavesHostPlansCached) {
  auto o = auto_opts();
  Server srv(o);
  const auto small_dense = random_dense(48, 40, 0.1, 74);
  const auto big_dense = random_dense(400, 400, 0.05, 75);
  const auto hs = srv.register_matrix(encode(small_dense, Format::kCSR));
  const auto hb = srv.register_matrix(encode(big_dense, Format::kCSR));
  const std::vector<value_t> x(40, 0.5f);
  Request mm;
  mm.kernel = Kernel::kSpMM;
  mm.a = hb;
  mm.dense_b = random_dense(400, 8, 1.0, 76);

  // One CPU-routed plan (keyed on kHostModel) and one mint-routed plan
  // (keyed on the device-model fingerprint).
  (void)srv.plan_for(spmv_request(hs, x));
  Request mm_warm = mm;
  (void)srv.plan_for(mm_warm);
  EXPECT_EQ(srv.plan_cache().size(), 2u);
  const auto hits_before = srv.plan_cache().hits();

  // Swap only the device model: a bigger accelerator re-prices every
  // device plan but cannot invalidate host plans, which never read it.
  auto accel = o.accel;
  accel.num_pes = 64;
  const auto retired = srv.update_model(accel, o.energy);
  EXPECT_EQ(retired.total(), 1u);
  EXPECT_EQ(retired.of(exec::BackendKind::kMint), 1u);
  EXPECT_EQ(retired.of(exec::BackendKind::kCpu), 0u);
  EXPECT_EQ(srv.plan_cache().size(), 1u);

  // The surviving host plan serves the next request as a cache hit...
  const auto r1 = srv.submit(spmv_request(hs, x)).get();
  EXPECT_TRUE(r1.stats.plan_cache_hit);
  EXPECT_EQ(srv.plan_cache().hits(), hits_before + 1);
  // ...while the retired device plan re-prices against the new model.
  Request mm_replan = mm;
  const auto r2 = srv.submit(std::move(mm_replan)).get();
  EXPECT_FALSE(r2.stats.plan_cache_hit);
  EXPECT_EQ(r2.stats.dispatch.backend, exec::BackendKind::kMint);
}

TEST(ServerBackendAuto, MixedTrafficNeverFusesAcrossBackendsAndMatchesUnbatched) {
  // The batching acceptance gate: mixed CPU/device traffic through a
  // batching kAuto server (async ring, whole windows submitted before any
  // claim)
  // must be bit-identical to the same traffic through a batching-off
  // server, and no fused launch may span backends.
  auto batched_o = auto_opts();
  batched_o.backend.async = true;
  batched_o.backend.ring_slots = 16;
  batched_o.backend.ring_workers = 2;
  Server batched(batched_o);
  auto off_o = auto_opts();
  off_o.batch.policy = runtime::BatchPolicy::kOff;
  Server unbatched(off_o);

  // Identical operand sets on both servers (deterministic seeds).
  const auto a_dense = random_dense(48, 40, 0.12, 81);
  const auto b_dense = random_dense(40, 48, 0.12, 82);
  const auto big_a = random_dense(400, 400, 0.05, 83);
  const auto big_b = random_dense(400, 400, 0.05, 84);
  const auto x_dense = random_tensor(9, 11, 8, 0.2, 85);
  const auto factor_small = random_dense(40, 6, 1.0, 86);
  const auto factor_big = random_dense(400, 8, 1.0, 87);
  const auto u = random_dense(8, 6, 1.0, 88);
  const auto kb = random_dense(11, 5, 1.0, 89);
  const auto kc = random_dense(8, 5, 1.0, 90);
  const std::vector<value_t> x(40, 0.5f);

  struct Handles {
    runtime::MatrixHandle ha, hb, hd, hba, hbb;
    runtime::TensorHandle hx;
  };
  const auto reg = [&](Server& s) {
    Handles h;
    h.ha = s.register_matrix(encode(a_dense, Format::kCSR));
    h.hb = s.register_matrix(encode(b_dense, Format::kCSR));
    h.hd = s.register_matrix(encode(a_dense, Format::kDense));
    h.hba = s.register_matrix(encode(big_a, Format::kCSR));
    h.hbb = s.register_matrix(encode(big_b, Format::kCSR));
    h.hx = s.register_tensor(encode(x_dense, Format::kCSF));
    return h;
  };

  // All six kernels small (CPU-routed under kAuto), a fusible run of
  // SpMVs on one handle, and repeated big SpMMs (mint-routed, same fuse
  // key — the backend dimension must keep them out of any fused launch).
  const auto traffic = [&](const Handles& h) {
    std::vector<Request> reqs;
    for (int i = 0; i < 3; ++i) reqs.push_back(spmv_request(h.ha, x));
    Request r;
    r.kernel = Kernel::kSpMM;
    r.a = h.ha;
    r.dense_b = factor_small;
    reqs.push_back(r);
    r = {};
    r.kernel = Kernel::kGemm;
    r.a = h.hd;
    r.dense_b = factor_small;
    reqs.push_back(r);
    r = {};
    r.kernel = Kernel::kSpGEMM;
    r.a = h.ha;
    r.b = h.hb;
    reqs.push_back(r);
    r = {};
    r.kernel = Kernel::kSpTTM;
    r.x = h.hx;
    r.dense_b = u;
    reqs.push_back(r);
    r = {};
    r.kernel = Kernel::kMTTKRP;
    r.x = h.hx;
    r.dense_b = kb;
    r.dense_c = kc;
    reqs.push_back(r);
    for (int i = 0; i < 2; ++i) {
      r = {};
      r.kernel = Kernel::kSpMM;
      r.a = h.hba;
      r.dense_b = factor_big;
      reqs.push_back(r);
    }
    return reqs;
  };

  const auto bh = reg(batched);
  const auto uh = reg(unbatched);

  // Stage the whole burst behind the batching server's occupied worker so
  // it drains as one mixed window through the serving pipeline.
  auto occupier = occupy_worker(batched, bh.hba, bh.hbb);
  std::vector<std::future<Response>> bf;
  for (auto& r : traffic(bh)) bf.push_back(batched.submit(std::move(r)));
  (void)occupier.get();

  std::vector<std::future<Response>> uf;
  for (auto& r : traffic(uh)) uf.push_back(unbatched.submit(std::move(r)));

  ASSERT_EQ(bf.size(), uf.size());
  for (std::size_t i = 0; i < bf.size(); ++i) {
    const auto got = bf[i].get();
    const auto want = uf[i].get();
    // Bit-identity with batching off, on every kernel kind.
    EXPECT_EQ(exec::max_rel_error(want.result, got.result), 0.0) << i;
    EXPECT_EQ(got.stats.dispatch.backend, want.stats.dispatch.backend) << i;
    // No fused launch ever spans backends: everything batched ran on the
    // host (device items enter form_batches with fusible = false).
    if (got.stats.batched) {
      EXPECT_EQ(got.stats.dispatch.backend, exec::BackendKind::kCpu) << i;
    }
    // The two big SpMMs share a fuse key but route to mint: never fused.
    if (got.stats.dispatch.backend != exec::BackendKind::kCpu) {
      EXPECT_FALSE(got.stats.batched) << i;
      EXPECT_EQ(got.stats.batch_size, 1) << i;
    }
  }
  const auto bc = batched.counters();
  EXPECT_EQ(bc.failed, 0);
  // occupier (big SpGEMM) + 2 big SpMMs routed to the device; the six
  // small requests stayed on the host.
  EXPECT_EQ(bc.device_jobs, 3);
  EXPECT_EQ(unbatched.counters().device_jobs, 2);
}

// The serving pipeline's one fail() tail on the device-capable path: a
// kAuto window mixing fusible host SpMVs, device-routed SpMMs claimed from
// the async ring, and one request naming an evicted handle fails exactly
// that request. Every other response matches batching-off serving bit for
// bit, and requests on one handle complete in submission order.
TEST(ServerBackendAuto, EvictedHandleFailsOnlyItsRequestInAMixedWindow) {
  auto batched_o = auto_opts();
  batched_o.backend.async = true;
  batched_o.backend.ring_slots = 16;
  batched_o.backend.ring_workers = 2;
  Server batched(batched_o);
  auto off_o = auto_opts();
  off_o.batch.policy = runtime::BatchPolicy::kOff;
  Server unbatched(off_o);

  const auto small = random_dense(48, 40, 0.12, 101);
  const auto big = random_dense(400, 400, 0.05, 102);
  const auto big_b = random_dense(400, 400, 0.05, 103);
  const auto factor = random_dense(400, 8, 1.0, 104);
  const std::vector<value_t> x(40, 0.5f);
  // Host SpMVs on `hs` interleaved with device SpMMs on `hb`.
  const auto traffic = [&](runtime::MatrixHandle hs,
                           runtime::MatrixHandle hb) {
    std::vector<Request> reqs;
    for (int i = 0; i < 4; ++i) {
      reqs.push_back(spmv_request(hs, x));
      Request r;
      r.kernel = Kernel::kSpMM;
      r.a = hb;
      r.dense_b = factor;
      reqs.push_back(std::move(r));
    }
    return reqs;
  };

  const auto hs = batched.register_matrix(encode(small, Format::kCSR));
  const auto hb = batched.register_matrix(encode(big, Format::kCSR));
  const auto hbb = batched.register_matrix(encode(big_b, Format::kCSR));
  const auto he = batched.register_matrix(encode(small, Format::kCSR));
  batched.evict(he);
  auto reqs = traffic(hs, hb);
  constexpr std::size_t kBad = 3;
  reqs.insert(reqs.begin() + kBad, spmv_request(he, x));
  std::vector<std::uint64_t> handle_of;
  for (const auto& r : reqs) handle_of.push_back(r.a.id);

  // Stage the burst behind the occupied worker so it drains as one window.
  auto occupier = occupy_worker(batched, hb, hbb);
  std::vector<std::future<Response>> bf;
  for (auto& r : reqs) bf.push_back(batched.submit(std::move(r)));
  (void)occupier.get();

  // Per-handle completion order: wait newest-first; once a request is
  // ready, every earlier request on its handle must be ready too.
  for (std::size_t j = bf.size(); j-- > 0;) {
    bf[j].wait();
    for (std::size_t i = 0; i < j; ++i) {
      if (handle_of[i] != handle_of[j]) continue;
      EXPECT_EQ(bf[i].wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << i << " completed after " << j;
    }
  }

  const auto us = unbatched.register_matrix(encode(small, Format::kCSR));
  const auto ub = unbatched.register_matrix(encode(big, Format::kCSR));
  std::vector<std::future<Response>> uf;
  for (auto& r : traffic(us, ub)) uf.push_back(unbatched.submit(std::move(r)));
  ASSERT_EQ(bf.size(), uf.size() + 1);
  for (std::size_t i = 0, k = 0; i < bf.size(); ++i) {
    if (i == kBad) {
      EXPECT_THROW((void)bf[i].get(), std::invalid_argument);
      continue;
    }
    const auto got = bf[i].get();
    const auto want = uf[k++].get();
    EXPECT_EQ(exec::max_rel_error(want.result, got.result), 0.0) << i;
    EXPECT_EQ(got.stats.dispatch.backend, want.stats.dispatch.backend) << i;
  }
  const auto bc = batched.counters();
  EXPECT_EQ(bc.failed, 1);
  // The window really mixed substrates: the occupier and the four big
  // SpMMs went to the device, the SpMVs stayed on the host.
  EXPECT_EQ(bc.device_jobs, 5);
  EXPECT_EQ(unbatched.counters().failed, 0);
}

// --- The dual-run alerting alias counter ---

TEST(ServerBackend, DualRunMismatchAlertCounterInBothExpositionFormats) {
  auto o = device_opts(exec::BackendKind::kSim);
  o.backend.dual_run = true;
  o.backend.dual_run_tolerance = -1.0;  // every check mismatches
  Server srv(o);
  // Bound at construction: the alias reads 0 before any traffic, so an
  // alert rule on its rate never sees a missing series.
  EXPECT_NE(srv.metrics_text().find("mt_dual_run_mismatches_total 0"),
            std::string::npos);
  const auto h = srv.register_matrix(
      encode(random_dense(32, 24, 0.2, 91), Format::kCSR));
  auto fut = srv.submit(spmv_request(h, std::vector<value_t>(24, 1.0f)));
  EXPECT_THROW((void)fut.get(), std::runtime_error);
  EXPECT_NE(srv.metrics_text().find("mt_dual_run_mismatches_total 1"),
            std::string::npos);
  EXPECT_NE(srv.metrics_json().find("mt_dual_run_mismatches_total"),
            std::string::npos);
  // The alias tracks the mt_serve_-prefixed series the snapshot reports.
  EXPECT_EQ(srv.counters().dual_run_mismatches, 1);
}

// Concurrent windows from many submitters, each posting its whole window
// job by job before claiming any (the server's dispatch pattern) — the
// TSan target for ring admission: per-job submits interleave with slot
// backpressure, worker drain, and claims from every submitter thread.
TEST(ServerBackendStress, ConcurrentSubmitAllWindowsStayCoherent) {
  const auto mint = exec::make_backend(exec::BackendKind::kMint);
  exec::DeviceRing ring(*mint, {.slots = 8, .workers = 2});
  const Operands ops;
  const auto want = mint->run(ops.job(Kernel::kSpMV));
  constexpr int kSubmitters = 4;
  constexpr int kWindows = 4;
  constexpr int kWindowSize = 8;
  std::atomic<int> bad{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      for (int w = 0; w < kWindows; ++w) {
        std::vector<exec::DeviceRing::Ticket> tickets;
        for (int i = 0; i < kWindowSize; ++i) {
          tickets.push_back(ring.submit(ops.job(Kernel::kSpMV)));
        }
        for (std::size_t i = 0; i < tickets.size(); ++i) {
          // Per-window monotonicity holds even with interleaved windows.
          if (tickets[i] == exec::DeviceRing::kInvalidTicket) ++bad;
          if (i > 0 && tickets[i] <= tickets[i - 1]) ++bad;
        }
        for (auto t : tickets) {
          const auto r = ring.wait(t);
          if (exec::max_rel_error(want.output, r.output) != 0.0) ++bad;
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(bad.load(), 0);
  const auto s = ring.stats();
  EXPECT_EQ(s.submitted, kSubmitters * kWindows * kWindowSize);
  EXPECT_EQ(s.completed, s.submitted);
  EXPECT_EQ(s.in_flight, 0);
}

}  // namespace
