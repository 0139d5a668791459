// Serving-runtime unit tests: plan-cache and conversion-cache hit/miss
// accounting, single-flight get-or-compute, bit-identical equivalence with
// direct exec-engine calls, cache-bypass modes, eviction, backpressure,
// the kernel-thread cap, the request batcher (grouping, fusion
// bit-identity, batch accounting), and plan retirement on model updates.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/aligned.hpp"
#include "common/threads.hpp"
#include "runtime/batcher.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/router.hpp"
#include "runtime/server.hpp"
#include "sage/plan_key.hpp"
#include "serving_testing.hpp"
#include "testing.hpp"
#include "workloads/synth.hpp"

namespace mt::runtime {
namespace {

using testing::occupy_worker;
using testing::random_dense;

// A small server configuration that keeps SAGE searches cheap in tests.
ServerOptions small_opts() {
  ServerOptions o;
  o.num_workers = 2;
  o.queue_capacity = 8;
  o.accel.num_pes = 32;
  o.accel.pe_buffer_bytes = 64 * 4;
  return o;
}

Request spmv_request(MatrixHandle a, const std::vector<value_t>& x) {
  Request r;
  r.kernel = Kernel::kSpMV;
  r.a = a;
  r.vec = x;
  return r;
}

TEST(PlanCache, HitMissAccountingAndMemoization) {
  Server srv(small_opts());
  const auto a_dense = random_dense(48, 40, 0.05, 7);
  const auto h = srv.register_matrix(encode(a_dense, Format::kCSR));
  const std::vector<value_t> x(40, 1.0f);

  const auto r1 = srv.submit(spmv_request(h, x)).get();
  EXPECT_FALSE(r1.stats.plan_cache_hit);
  const auto r2 = srv.submit(spmv_request(h, x)).get();
  EXPECT_TRUE(r2.stats.plan_cache_hit);
  const auto r3 = srv.submit(spmv_request(h, x)).get();
  EXPECT_TRUE(r3.stats.plan_cache_hit);

  EXPECT_EQ(srv.plan_cache().misses(), 1);
  EXPECT_EQ(srv.plan_cache().hits(), 2);
  EXPECT_EQ(srv.plan_cache().size(), 1u);

  const auto c = srv.counters();
  EXPECT_EQ(c.completed, 3);
  EXPECT_EQ(c.plan_misses, 1);
  EXPECT_EQ(c.plan_hits, 2);

  // A second operand is a distinct workload: its first request misses.
  const auto h2 = srv.register_matrix(encode(random_dense(48, 40, 0.05, 8),
                                             Format::kCSR));
  const auto r4 = srv.submit(spmv_request(h2, x)).get();
  EXPECT_FALSE(r4.stats.plan_cache_hit);
  EXPECT_EQ(srv.plan_cache().size(), 2u);
}

TEST(PlanCache, FingerprintSeparatesAccelConfigs) {
  const EnergyParams energy;
  AccelConfig a = AccelConfig::paper_default();
  AccelConfig b = a;
  EXPECT_EQ(plan_fingerprint(a, energy), plan_fingerprint(b, energy));
  b.num_pes = a.num_pes / 2;
  EXPECT_NE(plan_fingerprint(a, energy), plan_fingerprint(b, energy));
  b = a;
  b.index_match_rate = 0.5;
  EXPECT_NE(plan_fingerprint(a, energy), plan_fingerprint(b, energy));
  EnergyParams e2;
  e2.dram_j_per_32b *= 2.0;
  EXPECT_NE(plan_fingerprint(a, energy), plan_fingerprint(a, e2));
}

TEST(ConversionCache, HitMissAccountingAndIdentitySharing) {
  Server srv(small_opts());
  const auto a_dense = random_dense(48, 40, 0.05, 9);
  const auto h = srv.register_matrix(encode(a_dense, Format::kZVC));
  const std::vector<value_t> x(40, 0.5f);

  // First request: the plan itself needs a CSR rep (miss) and the kernel
  // an ACF rep (miss unless the ACF happens to be ZVC, which SAGE's ACF
  // space excludes, or CSR, which re-hits the plan's rep).
  const auto r1 = srv.submit(spmv_request(h, x)).get();
  EXPECT_GE(r1.stats.conversion_misses, 1);
  const auto after_first = srv.conversion_cache().misses();

  // Steady state: everything is cached, nothing converts.
  const auto r2 = srv.submit(spmv_request(h, x)).get();
  EXPECT_EQ(r2.stats.conversion_misses, 0);
  EXPECT_GE(r2.stats.conversion_hits, 1);
  EXPECT_EQ(srv.conversion_cache().misses(), after_first);

  // An operand already registered in the executed ACF shares its
  // representation: no conversion entry is ever created for it.
  const auto plan = srv.plan_for(spmv_request(h, x));
  const auto h2 = srv.register_matrix(
      convert(encode(a_dense, Format::kZVC), plan->run_a));
  const auto size_before = srv.conversion_cache().size();
  const auto r3 = srv.submit(spmv_request(h2, x)).get();
  // New operand, new plan: at most the CSR rep for SAGE is materialized
  // (none when the ACF is CSR itself); the executed ACF rep is an identity
  // share, not a conversion.
  EXPECT_LE(srv.conversion_cache().size(), size_before + 1);
  EXPECT_GE(r3.stats.conversion_hits, 1);
}

// The plan reads the CSR rep the host runs, so the first host SpMV on an
// operand registered in another MCF decodes it exactly once, into CSR and
// never COO, and later SpMM and SpGEMM plans on it reuse that rep.
// `reps` counts the materialized representations across the fleet.
template <class Srv, class Reps>
void expect_first_touch_decodes_once(Srv& srv, Reps reps) {
  const auto a_dense = random_dense(64, 64, 0.03, 41);
  const std::vector<value_t> x(64, 0.5f);
  Request spmm;
  spmm.kernel = Kernel::kSpMM;
  spmm.dense_b = DenseMatrix(64, 8, 0.25f);
  Request spgemm;
  spgemm.kernel = Kernel::kSpGEMM;
  for (Format mcf : {Format::kZVC, Format::kRLC, Format::kBSR, Format::kELL,
                     Format::kCSC}) {
    SCOPED_TRACE(std::string(name_of(mcf)));
    const auto before = reps();
    const auto h = srv.register_matrix(encode(a_dense, mcf));
    const auto r1 = srv.submit(spmv_request(h, x)).get();
    EXPECT_EQ(r1.stats.conversion_misses, 1);
    EXPECT_EQ(reps(), before + 1);  // the CSR rep; no COO rep beside it
    // Sparse operands run in CSR here, so the one decode is also the rep
    // every kernel below executes.
    ASSERT_EQ(srv.plan_for(spmv_request(h, x))->run_a, Format::kCSR);

    spmm.a = h;
    ASSERT_EQ(srv.plan_for(spmm)->run_a, Format::kCSR);
    EXPECT_EQ(srv.submit(spmm).get().stats.conversion_misses, 0);
    spgemm.a = spgemm.b = h;
    EXPECT_EQ(srv.submit(spgemm).get().stats.conversion_misses, 0);
    EXPECT_EQ(reps(), before + 1);
  }
}

TEST(ConversionCache, FirstTouchDecodesOnce) {
  Server srv(small_opts());
  expect_first_touch_decodes_once(
      srv, [&] { return srv.conversion_cache().size(); });
}

TEST(ConversionCache, FirstTouchDecodesOnceOnShards) {
  ShardedServerOptions o;
  o.num_shards = 2;
  o.shard = small_opts();
  ShardedServer srv(o);
  expect_first_touch_decodes_once(srv, [&] {
    std::size_t n = 0;
    for (int i = 0; i < srv.num_shards(); ++i) {
      n += srv.shard(i).conversion_cache().size();
    }
    return n;
  });
}

// Served results must be bit-identical to a direct exec-engine call on the
// same converted representation — the serving layer adds caching and
// concurrency, never arithmetic.
TEST(Server, SpmvBitIdenticalToDirectExec) {
  Server srv(small_opts());
  const auto a_dense = random_dense(64, 48, 0.08, 11);
  const AnyMatrix a_any = encode(a_dense, Format::kCSC);
  const auto h = srv.register_matrix(a_any);
  std::vector<value_t> x;
  for (index_t i = 0; i < 48; ++i) x.push_back(0.25f * static_cast<float>(i));

  const auto plan = srv.plan_for(spmv_request(h, x));
  const auto want = exec::spmv(convert(a_any, plan->run_a), x);
  const auto got = srv.submit(spmv_request(h, x)).get();
  EXPECT_EQ(std::get<std::vector<value_t>>(got.result), want);
}

TEST(Server, SpmmDenseFactorBitIdenticalToDirectExec) {
  Server srv(small_opts());
  const auto a_dense = random_dense(56, 40, 0.06, 12);
  const AnyMatrix a_any = encode(a_dense, Format::kRLC);
  const auto h = srv.register_matrix(a_any);
  const auto b = random_dense(40, 24, 1.0, 13);

  Request r;
  r.kernel = Kernel::kSpMM;
  r.a = h;
  r.dense_b = b;
  const auto plan = srv.plan_for(r);
  const auto want = exec::spmm(convert(a_any, plan->run_a), b);
  const auto got = srv.submit(r).get();
  EXPECT_EQ(std::get<DenseMatrix>(got.result), want);
  EXPECT_EQ(got.stats.dispatch.path, exec::Path::kNative);
}

TEST(Server, SpmmRegisteredPairBitIdenticalToDirectExec) {
  Server srv(small_opts());
  const auto a_dense = random_dense(40, 32, 0.05, 14);
  const auto b_dense = random_dense(32, 28, 0.5, 15);
  const AnyMatrix a_any = encode(a_dense, Format::kCSR);
  const AnyMatrix b_any = encode(b_dense, Format::kZVC);
  const auto ha = srv.register_matrix(a_any);
  const auto hb = srv.register_matrix(b_any);

  Request r;
  r.kernel = Kernel::kSpMM;
  r.a = ha;
  r.b = hb;
  const auto plan = srv.plan_for(r);
  // The repaired pair must run natively in the engine.
  EXPECT_TRUE(exec::has_native_pair(plan->run_a, plan->run_b));
  const auto want =
      exec::spmm(convert(a_any, plan->run_a), convert(b_any, plan->run_b));
  const auto got = srv.submit(r).get();
  EXPECT_EQ(std::get<DenseMatrix>(got.result), want);
}

TEST(Server, SpgemmBitIdenticalToDirectExec) {
  Server srv(small_opts());
  const auto a_dense = random_dense(36, 30, 0.08, 16);
  const auto b_dense = random_dense(30, 26, 0.08, 17);
  const AnyMatrix a_any = encode(a_dense, Format::kCOO);
  const AnyMatrix b_any = encode(b_dense, Format::kCSC);
  const auto ha = srv.register_matrix(a_any);
  const auto hb = srv.register_matrix(b_any);

  Request r;
  r.kernel = Kernel::kSpGEMM;
  r.a = ha;
  r.b = hb;
  const auto want = exec::spgemm(convert(a_any, Format::kCSR),
                                 convert(b_any, Format::kCSR));
  const auto got = srv.submit(r).get();
  const auto& csr = std::get<CsrMatrix>(got.result);
  EXPECT_EQ(csr.row_ptr(), want.row_ptr());
  EXPECT_EQ(csr.col_ids(), want.col_ids());
  EXPECT_EQ(csr.values(), want.values());
}

TEST(Server, TensorKernelsBitIdenticalToDirectExec) {
  Server srv(small_opts());
  const auto x_coo = synth_coo_tensor(10, 9, 8, 60, 18);
  const AnyTensor x_any = AnyTensor(x_coo);
  const auto hx = srv.register_tensor(x_any);
  const auto factor_b = random_dense(9, 6, 1.0, 19);   // MTTKRP B: dim_y x R
  const auto factor_c = random_dense(8, 6, 1.0, 20);   // MTTKRP C: dim_z x R
  const auto factor_u = random_dense(8, 6, 1.0, 21);   // SpTTM U: dim_z x R

  Request mk;
  mk.kernel = Kernel::kMTTKRP;
  mk.x = hx;
  mk.dense_b = factor_b;
  mk.dense_c = factor_c;
  const auto mplan = srv.plan_for(mk);
  const auto mwant =
      exec::mttkrp(convert(x_any, mplan->run_a), factor_b, factor_c);
  EXPECT_EQ(std::get<DenseMatrix>(srv.submit(mk).get().result), mwant);

  Request tk;
  tk.kernel = Kernel::kSpTTM;
  tk.x = hx;
  tk.dense_b = factor_u;
  const auto tplan = srv.plan_for(tk);
  const auto twant = exec::ttm(convert(x_any, tplan->run_a), factor_u);
  EXPECT_EQ(std::get<DenseTensor3>(srv.submit(tk).get().result), twant);
}

TEST(Server, GemmServesDenseOperands) {
  Server srv(small_opts());
  const auto a = random_dense(24, 20, 1.0, 22);
  const auto b = random_dense(20, 16, 1.0, 23);
  const auto h = srv.register_matrix(AnyMatrix(a));
  Request r;
  r.kernel = Kernel::kGemm;
  r.a = h;
  r.dense_b = b;
  const auto want = exec::spmm(AnyMatrix(a), b);
  const auto got = srv.submit(r).get();
  EXPECT_EQ(std::get<DenseMatrix>(got.result), want);
  EXPECT_FALSE(got.stats.plan_cache_hit);
  EXPECT_TRUE(srv.submit(r).get().stats.plan_cache_hit);
}

TEST(Server, CacheBypassModesProduceIdenticalResults) {
  const auto a_dense = random_dense(48, 40, 0.06, 24);
  const AnyMatrix a_any = encode(a_dense, Format::kRLC);
  const std::vector<value_t> x(40, 1.5f);

  std::vector<value_t> cached_result, bypass_result;
  {
    Server srv(small_opts());
    const auto h = srv.register_matrix(a_any);
    (void)srv.submit(spmv_request(h, x)).get();
    cached_result = std::get<std::vector<value_t>>(
        srv.submit(spmv_request(h, x)).get().result);
  }
  {
    auto opts = small_opts();
    opts.caches.plan_limits.max_entries = 0;
    opts.caches.conversion_limits.max_entries = 0;
    Server srv(opts);
    const auto h = srv.register_matrix(a_any);
    const auto r1 = srv.submit(spmv_request(h, x)).get();
    EXPECT_FALSE(r1.stats.plan_cache_hit);
    const auto r2 = srv.submit(spmv_request(h, x)).get();
    EXPECT_FALSE(r2.stats.plan_cache_hit);  // bypass: misses forever
    // The bypassed caches stay empty.
    EXPECT_EQ(srv.plan_cache().size(), 0u);
    EXPECT_EQ(srv.conversion_cache().size(), 0u);
    bypass_result = std::get<std::vector<value_t>>(r2.result);
  }
  EXPECT_EQ(cached_result, bypass_result);
}

TEST(Server, EvictionInvalidatesHandleAndPurgesCaches) {
  Server srv(small_opts());
  const auto a_dense = random_dense(40, 32, 0.05, 25);
  const auto h = srv.register_matrix(encode(a_dense, Format::kCSR));
  const std::vector<value_t> x(32, 1.0f);

  (void)srv.submit(spmv_request(h, x)).get();
  EXPECT_GT(srv.conversion_cache().size() + srv.plan_cache().size(), 0u);

  srv.evict(h);
  EXPECT_EQ(srv.conversion_cache().size(), 0u);
  EXPECT_EQ(srv.plan_cache().size(), 0u);
  auto fut = srv.submit(spmv_request(h, x));
  EXPECT_THROW(fut.get(), std::invalid_argument);
  EXPECT_EQ(srv.counters().failed, 1);

  // Re-registration issues a fresh handle that serves normally.
  const auto h2 = srv.register_matrix(encode(a_dense, Format::kCSR));
  EXPECT_NE(h2.id, h.id);
  (void)srv.submit(spmv_request(h2, x)).get();
}

TEST(Server, BoundedQueueBackpressureCompletesEverything) {
  auto opts = small_opts();
  opts.queue_capacity = 2;  // force submit-side blocking
  Server srv(opts);
  const auto h = srv.register_matrix(
      encode(random_dense(32, 24, 0.1, 26), Format::kCSR));
  const std::vector<value_t> x(24, 1.0f);

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 32; ++i) futs.push_back(srv.submit(spmv_request(h, x)));
  for (auto& f : futs) EXPECT_NO_THROW((void)f.get());
  EXPECT_EQ(srv.counters().completed, 32);
}

TEST(Server, SubmitAfterStopFailsFast) {
  Server srv(small_opts());
  const auto h = srv.register_matrix(
      encode(random_dense(16, 12, 0.2, 27), Format::kCSR));
  srv.stop();
  auto fut = srv.submit(spmv_request(h, std::vector<value_t>(12, 1.0f)));
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(Server, WorkerPoolCapsKernelThreadsAndRestores) {
  const int before_override = num_threads_override();
  const int before = num_threads();
  {
    auto opts = small_opts();
    opts.num_workers = 4;
    Server srv(opts);
    // While the pool is live, kernel width is capped so that
    // pool x width never oversubscribes the machine.
    EXPECT_EQ(num_threads(),
              std::min(std::max(1, hardware_threads() / 4), before));
  }
  EXPECT_EQ(num_threads_override(), before_override);
  EXPECT_EQ(num_threads(), before);
}

TEST(Server, OverlappingServersShareOneThreadBudget) {
  const int before = num_threads();
  {
    auto opts_a = small_opts();
    opts_a.num_workers = 4;
    Server a(opts_a);
    {
      auto opts_b = small_opts();
      opts_b.num_workers = 2;
      Server b(opts_b);
      // Budget divides over all live workers (4 + 2), never exceeding the
      // solo width.
      EXPECT_EQ(num_threads(),
                std::min(std::max(1, hardware_threads() / 6), before));
    }
    // b stopped: the budget re-expands to a's pool alone.
    EXPECT_EQ(num_threads(),
              std::min(std::max(1, hardware_threads() / 4), before));
  }
  EXPECT_EQ(num_threads(), before);
}

// --- Batcher: grouping (pure) ---

BatchItem spmv_item(std::uint64_t a, index_t rows = 32) {
  BatchItem b;
  b.kernel = Kernel::kSpMV;
  b.a = a;
  b.rows = rows;
  b.width = 1;
  b.fusible = true;
  return b;
}

BatchItem spmm_item(std::uint64_t a, index_t rows, index_t width) {
  BatchItem b;
  b.kernel = Kernel::kSpMM;
  b.a = a;
  b.rows = rows;
  b.width = width;
  b.fusible = true;
  return b;
}

BatchItem spgemm_item(std::uint64_t a, std::uint64_t bb) {
  BatchItem b;
  b.kernel = Kernel::kSpGEMM;
  b.a = a;
  b.b = bb;
  return b;
}

using Members = std::vector<std::size_t>;

TEST(Batcher, FusesSameWorkloadAcrossInterleavedHandles) {
  const auto groups = form_batches(
      {spmv_item(1), spmv_item(2), spmv_item(1), spmv_item(2), spmv_item(1)});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members, (Members{0, 2, 4}));
  EXPECT_EQ(groups[1].members, (Members{1, 3}));
  EXPECT_TRUE(groups[0].fused);
  EXPECT_TRUE(groups[1].fused);
}

TEST(Batcher, InterveningRequestOnSameHandleBarsJoining) {
  // spmv(1), spgemm(1,2), spmv(1), spmv(2), spmv(1): the SpGEMM touches
  // both handles, so neither later SpMV may hoist over it into an earlier
  // group — per-handle completion order must stay FIFO.
  const auto groups = form_batches({spmv_item(1), spgemm_item(1, 2),
                                    spmv_item(1), spmv_item(2),
                                    spmv_item(1)});
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0].members, (Members{0}));
  EXPECT_EQ(groups[1].members, (Members{1}));
  EXPECT_FALSE(groups[1].fused);
  EXPECT_EQ(groups[2].members, (Members{2, 4}));  // rejoin after the barrier
  EXPECT_EQ(groups[3].members, (Members{3}));
}

TEST(Batcher, KernelAndShapeChangesSplitGroups) {
  // Same handle, but a different kernel, factor width, or payload length
  // is a different workload (different plan key / ill-formed stack).
  const auto groups = form_batches(
      {spmm_item(1, 32, 8), spmm_item(1, 32, 8), spmm_item(1, 32, 4),
       spmv_item(1, 32), spmv_item(1, 16)});
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0].members, (Members{0, 1}));
  EXPECT_EQ(groups[1].members, (Members{2}));
  EXPECT_EQ(groups[2].members, (Members{3}));
  EXPECT_EQ(groups[3].members, (Members{4}));
}

TEST(Batcher, BackendIsPartOfTheFuseKey) {
  // Same-backend requests still fuse across an interleave of the other
  // backend's traffic; the two backends' groups never merge.
  BatchItem cpu = spmv_item(1);
  BatchItem dev = spmv_item(2);
  dev.backend = exec::BackendKind::kMint;
  const auto groups = form_batches({cpu, dev, cpu, dev});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members, (Members{0, 2}));
  EXPECT_EQ(groups[1].members, (Members{1, 3}));
  EXPECT_TRUE(groups[0].fused);
  EXPECT_TRUE(groups[1].fused);

  // Identical workload, different backend: the backend boundary alone
  // bars joining, and the per-handle FIFO barrier then keeps every later
  // same-handle request in arrival order.
  BatchItem dev1 = spmv_item(1);
  dev1.backend = exec::BackendKind::kSim;
  const auto split = form_batches({spmv_item(1), dev1, spmv_item(1)});
  ASSERT_EQ(split.size(), 3u);
  for (const auto& g : split) EXPECT_EQ(g.members.size(), 1u);
}

TEST(Batcher, UnbatchableKernelsNeverFuse) {
  BatchItem mttkrp;
  mttkrp.kernel = Kernel::kMTTKRP;
  mttkrp.x = 5;
  const auto groups =
      form_batches({spgemm_item(1, 2), spgemm_item(1, 2), mttkrp, mttkrp});
  ASSERT_EQ(groups.size(), 4u);
  for (const auto& g : groups) {
    EXPECT_EQ(g.members.size(), 1u);
    EXPECT_FALSE(g.fused);
  }
}

TEST(Batcher, CoalescibleSpmvFormatsAreTheProvablyIdenticalOnes) {
  EXPECT_TRUE(coalescible_spmv_format(Format::kCSR));
  EXPECT_TRUE(coalescible_spmv_format(Format::kCOO));
  // CSC reduces over different chunk widths in SpMV vs SpMM; Dense GEMM
  // skips zeros that spmv_dense accumulates; ELL/BSR have no SpMM twin.
  EXPECT_FALSE(coalescible_spmv_format(Format::kCSC));
  EXPECT_FALSE(coalescible_spmv_format(Format::kDense));
  EXPECT_FALSE(coalescible_spmv_format(Format::kELL));
  EXPECT_FALSE(coalescible_spmv_format(Format::kBSR));
  EXPECT_FALSE(coalescible_spmv_format(Format::kZVC));
}

// --- Batcher: server integration ---

ServerOptions batched_opts(int window = 16) {
  auto o = small_opts();
  o.num_workers = 1;  // one drain stream => deterministic windows
  o.queue_capacity = 32;
  o.batch.policy = BatchPolicy::kWindow;
  o.batch.window = window;
  return o;
}

TEST(Server, CoalescedSpmvBitIdenticalToSingleRequests) {
  // Density 0.05 => SAGE plans SpMV onto CSR (a coalescible ACF).
  const auto a_dense = random_dense(64, 48, 0.05, 31);
  const AnyMatrix a_any = encode(a_dense, Format::kCSR);
  const auto slow_a = random_dense(1000, 1000, 0.08, 32);
  const auto slow_b = random_dense(1000, 1000, 0.08, 33);

  std::vector<std::vector<value_t>> xs;
  for (int i = 0; i < 5; ++i) {
    std::vector<value_t> x;
    for (index_t k = 0; k < 48; ++k) {
      x.push_back(0.125f * static_cast<float>((k + i) % 9) - 0.25f);
    }
    xs.push_back(std::move(x));
  }

  // Reference: batching off, requests served one by one.
  std::vector<std::vector<value_t>> want;
  {
    auto opts = batched_opts();
    opts.batch.policy = BatchPolicy::kOff;
    Server srv(opts);
    const auto h = srv.register_matrix(a_any);
    for (const auto& x : xs) {
      want.push_back(std::get<std::vector<value_t>>(
          srv.submit(spmv_request(h, x)).get().result));
    }
    EXPECT_EQ(srv.counters().batches, 0);
  }

  Server srv(batched_opts());
  const auto h = srv.register_matrix(a_any);
  const auto hs_a = srv.register_matrix(encode(slow_a, Format::kCSR));
  const auto hs_b = srv.register_matrix(encode(slow_b, Format::kCSR));
  ASSERT_TRUE(coalescible_spmv_format(srv.plan_for(spmv_request(h, xs[0]))->run_a));

  auto occupier = occupy_worker(srv, hs_a, hs_b);
  std::vector<std::future<Response>> futs;
  for (const auto& x : xs) futs.push_back(srv.submit(spmv_request(h, x)));
  (void)occupier.get();

  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto resp = futs[i].get();
    EXPECT_EQ(std::get<std::vector<value_t>>(resp.result), want[i]);
    EXPECT_TRUE(resp.stats.batched);
    EXPECT_EQ(resp.stats.batch_size, 5);
    // The coalesced launch truthfully reports the SpMM it ran.
    EXPECT_EQ(resp.stats.dispatch.kernel, Kernel::kSpMM);
    EXPECT_EQ(resp.stats.dispatch.path, exec::Path::kNative);
  }
  const auto c = srv.counters();
  EXPECT_EQ(c.batches, 1);
  EXPECT_EQ(c.batched_requests, 5);
}

TEST(Server, BatchedResultsBitIdenticalToBatchingOffForAllKernels) {
  const auto a_dense = random_dense(48, 48, 0.05, 41);   // CSR spmv/spmm plan
  const auto coo_dense = random_dense(48, 48, 0.02, 42); // COO spmv plan
  const auto d_dense = random_dense(32, 32, 1.0, 43);    // dense GEMM operand
  const auto b_dense = random_dense(48, 48, 0.06, 44);   // SpGEMM partner
  const auto x_coo = synth_coo_tensor(10, 9, 8, 60, 45);
  const auto slow_a = random_dense(1000, 1000, 0.08, 46);
  const auto slow_b = random_dense(1000, 1000, 0.08, 47);

  const auto factor = random_dense(48, 8, 1.0, 48);
  const auto gemm_factor = random_dense(32, 6, 1.0, 49);
  const auto mt_b = random_dense(9, 6, 1.0, 50);
  const auto mt_c = random_dense(8, 6, 1.0, 51);
  const auto ttm_u = random_dense(8, 6, 1.0, 52);
  std::vector<value_t> x(48);
  for (index_t i = 0; i < 48; ++i) {
    x[static_cast<std::size_t>(i)] = 0.25f * static_cast<float>(i % 5) - 0.5f;
  }

  struct Shapes {
    MatrixHandle csr, coo, dense, spgemm_b;
    TensorHandle tensor;
  };
  auto register_all = [&](Server& srv) {
    Shapes s;
    s.csr = srv.register_matrix(encode(a_dense, Format::kCSR));
    s.coo = srv.register_matrix(encode(coo_dense, Format::kCOO));
    s.dense = srv.register_matrix(AnyMatrix(d_dense));
    s.spgemm_b = srv.register_matrix(encode(b_dense, Format::kCSR));
    s.tensor = srv.register_tensor(AnyTensor(x_coo));
    return s;
  };
  auto burst = [&](const Shapes& s) {
    std::vector<Request> reqs;
    for (int i = 0; i < 3; ++i) reqs.push_back(spmv_request(s.csr, x));
    for (int i = 0; i < 2; ++i) reqs.push_back(spmv_request(s.coo, x));
    for (int i = 0; i < 3; ++i) {
      Request r;
      r.kernel = Kernel::kSpMM;
      r.a = s.csr;
      r.dense_b = factor;
      reqs.push_back(std::move(r));
    }
    for (int i = 0; i < 2; ++i) {
      Request r;
      r.kernel = Kernel::kGemm;
      r.a = s.dense;
      r.dense_b = gemm_factor;
      reqs.push_back(std::move(r));
    }
    {
      Request r;
      r.kernel = Kernel::kSpGEMM;
      r.a = s.csr;
      r.b = s.spgemm_b;
      reqs.push_back(std::move(r));
    }
    {
      Request r;
      r.kernel = Kernel::kSpTTM;
      r.x = s.tensor;
      r.dense_b = ttm_u;
      reqs.push_back(std::move(r));
    }
    {
      Request r;
      r.kernel = Kernel::kMTTKRP;
      r.x = s.tensor;
      r.dense_b = mt_b;
      r.dense_c = mt_c;
      reqs.push_back(std::move(r));
    }
    return reqs;
  };

  // Reference run: batching off, strictly sequential.
  std::vector<Result> want;
  {
    auto opts = batched_opts();
    opts.batch.policy = BatchPolicy::kOff;
    Server srv(opts);
    const auto s = register_all(srv);
    for (auto& r : burst(s)) {
      want.push_back(srv.submit(std::move(r)).get().result);
    }
  }

  // Batched run: stage the whole burst behind an occupied worker so it
  // drains as one window and the fusible prefixes coalesce.
  Server srv(batched_opts());
  const auto s = register_all(srv);
  const auto hs_a = srv.register_matrix(encode(slow_a, Format::kCSR));
  const auto hs_b = srv.register_matrix(encode(slow_b, Format::kCSR));
  auto occupier = occupy_worker(srv, hs_a, hs_b);
  std::vector<std::future<Response>> futs;
  for (auto& r : burst(s)) futs.push_back(srv.submit(std::move(r)));
  (void)occupier.get();

  ASSERT_EQ(futs.size(), want.size());
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto resp = futs[i].get();
    ASSERT_EQ(resp.result.index(), want[i].index()) << "request " << i;
    if (const auto* v = std::get_if<std::vector<value_t>>(&want[i])) {
      EXPECT_EQ(std::get<std::vector<value_t>>(resp.result), *v) << i;
    } else if (const auto* m = std::get_if<DenseMatrix>(&want[i])) {
      const auto& got = std::get<DenseMatrix>(resp.result);
      EXPECT_EQ(got, *m) << i;
      // Served payloads keep the SIMD tier's cache-line alignment.
      EXPECT_TRUE(is_aligned(got.values().data())) << i;
    } else if (const auto* c = std::get_if<CsrMatrix>(&want[i])) {
      const auto& got = std::get<CsrMatrix>(resp.result);
      EXPECT_EQ(got.row_ptr(), c->row_ptr()) << i;
      EXPECT_EQ(got.col_ids(), c->col_ids()) << i;
      EXPECT_EQ(got.values(), c->values()) << i;
    } else {
      EXPECT_EQ(std::get<DenseTensor3>(resp.result),
                std::get<DenseTensor3>(want[i])) << i;
    }
  }
  // Each fusible run (SpMV per operand when its plan is coalescible, SpMM,
  // GEMM) coalesced into one launch; the tail passed through unbatched.
  const bool csr_fuses =
      coalescible_spmv_format(srv.plan_for(spmv_request(s.csr, x))->run_a);
  const bool coo_fuses =
      coalescible_spmv_format(srv.plan_for(spmv_request(s.coo, x))->run_a);
  const auto c = srv.counters();
  EXPECT_EQ(c.batches, 2 + (csr_fuses ? 1 : 0) + (coo_fuses ? 1 : 0));
  EXPECT_EQ(c.batched_requests,
            5 + (csr_fuses ? 3 : 0) + (coo_fuses ? 2 : 0));
  EXPECT_EQ(c.completed, static_cast<std::int64_t>(want.size()) + 1);
  EXPECT_TRUE(csr_fuses);  // density 0.05 plans onto CSR — if SAGE ever
  EXPECT_TRUE(coo_fuses);  // re-prices these, revisit the operands above
}

TEST(Server, NonCoalescibleSpmvPlanPassesThrough) {
  // Density 0.2 => SAGE plans SpMV onto Dense, which never coalesces.
  const auto a_dense = random_dense(64, 48, 0.2, 61);
  const AnyMatrix a_any = encode(a_dense, Format::kCSR);
  const auto slow_a = random_dense(1000, 1000, 0.08, 62);
  const auto slow_b = random_dense(1000, 1000, 0.08, 63);
  std::vector<value_t> x(48, 0.75f);

  Server srv(batched_opts());
  const auto h = srv.register_matrix(a_any);
  ASSERT_FALSE(
      coalescible_spmv_format(srv.plan_for(spmv_request(h, x))->run_a));
  const auto hs_a = srv.register_matrix(encode(slow_a, Format::kCSR));
  const auto hs_b = srv.register_matrix(encode(slow_b, Format::kCSR));
  auto occupier = occupy_worker(srv, hs_a, hs_b);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 4; ++i) futs.push_back(srv.submit(spmv_request(h, x)));
  (void)occupier.get();

  const auto want = exec::spmv(
      convert(a_any, srv.plan_for(spmv_request(h, x))->run_a), x);
  for (auto& f : futs) {
    const auto resp = f.get();
    EXPECT_EQ(std::get<std::vector<value_t>>(resp.result), want);
    EXPECT_FALSE(resp.stats.batched);
    EXPECT_EQ(resp.stats.dispatch.kernel, Kernel::kSpMV);
  }
  EXPECT_EQ(srv.counters().batches, 0);
}

TEST(Server, BatchFailsUniformlyWhenHandleEvictedInFlight) {
  Server srv(batched_opts());
  const auto h = srv.register_matrix(
      encode(random_dense(48, 48, 0.05, 71), Format::kCSR));
  const auto hs_a = srv.register_matrix(
      encode(random_dense(1000, 1000, 0.08, 72), Format::kCSR));
  const auto hs_b = srv.register_matrix(
      encode(random_dense(1000, 1000, 0.08, 73), Format::kCSR));
  std::vector<value_t> x(48, 1.0f);

  auto occupier = occupy_worker(srv, hs_a, hs_b);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 3; ++i) futs.push_back(srv.submit(spmv_request(h, x)));
  srv.evict(h);  // queued requests now name a dead handle
  (void)occupier.get();
  for (auto& f : futs) EXPECT_THROW(f.get(), std::invalid_argument);
  EXPECT_EQ(srv.counters().failed, 3);
}

// --- Model lifecycle ---

TEST(Server, UpdateModelLeavesHostPlansCached) {
  Server srv(small_opts());
  const auto h = srv.register_matrix(
      encode(random_dense(48, 40, 0.05, 81), Format::kCSR));
  const std::vector<value_t> x(40, 1.0f);

  (void)srv.submit(spmv_request(h, x)).get();
  EXPECT_EQ(srv.plan_cache().size(), 1u);
  const auto old_fp = srv.model_fingerprint();

  // Same model: nothing changes, nothing is retired.
  EXPECT_EQ(srv.update_model(srv.options().accel, srv.options().energy)
                .total(),
            0u);
  EXPECT_EQ(srv.model_fingerprint(), old_fp);
  EXPECT_EQ(srv.plan_cache().size(), 1u);

  // New accelerator: the planning fingerprint moves, but a CPU-only
  // server's plans are priced independent of the device model (keyed on
  // kHostModel), so the partitioned retire drops none of them and the
  // next request still hits the cache.
  auto accel = srv.options().accel;
  accel.num_pes /= 2;
  const auto retired = srv.update_model(accel, srv.options().energy);
  EXPECT_EQ(retired.total(), 0u);
  EXPECT_EQ(retired.of(exec::BackendKind::kCpu), 0u);
  EXPECT_NE(srv.model_fingerprint(), old_fp);
  EXPECT_EQ(srv.plan_cache().size(), 1u);
  const auto hits_before = srv.plan_cache().hits();
  const auto resp = srv.submit(spmv_request(h, x)).get();
  EXPECT_TRUE(resp.stats.plan_cache_hit);
  EXPECT_EQ(srv.plan_cache().hits(), hits_before + 1);

  // Explicit retirement: the old fingerprint owns no entries, an unknown
  // fingerprint owns none, and kHostModel is a guarded no-op — the CPU
  // plan survives all three.
  EXPECT_EQ(srv.retire_plans(old_fp).total(), 0u);
  EXPECT_EQ(srv.retire_plans(12345).total(), 0u);
  EXPECT_EQ(srv.retire_plans(kHostModel).total(), 0u);
  EXPECT_EQ(srv.plan_cache().size(), 1u);
}

TEST(PlanCache, RetireDropsOnlyMatchingFingerprintPerBackend) {
  PlanCache cache;
  auto plan = std::make_shared<Plan>();
  PlanKey k1{Kernel::kSpMV, 1, 0, /*model=*/111, 1};  // backend kCpu
  PlanKey k2{Kernel::kSpMV, 1, 0, /*model=*/222, 1};
  PlanKey k3{Kernel::kSpMV, 1, 0, /*model=*/111, 1};
  k3.backend = exec::BackendKind::kMint;
  PlanKey host{Kernel::kSpMV, 2, 0, kHostModel, 1};
  bool hit = false;
  for (const auto& k : {k1, k2, k3, host}) {
    (void)cache.get_or_compute(k, [&] { return plan; }, &hit);
  }
  EXPECT_EQ(cache.size(), 4u);
  const auto retired = cache.retire(111);
  EXPECT_EQ(retired.total(), 2u);
  EXPECT_EQ(retired.of(exec::BackendKind::kCpu), 1u);
  EXPECT_EQ(retired.of(exec::BackendKind::kMint), 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.retire(111).total(), 0u);
  // kHostModel marks model-independent plans; retiring it is a no-op.
  EXPECT_EQ(cache.retire(kHostModel).total(), 0u);
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.get_or_compute(k2, [&] { return plan; }, &hit);
  EXPECT_TRUE(hit);  // the surviving fingerprint still serves
  (void)cache.get_or_compute(host, [&] { return plan; }, &hit);
  EXPECT_TRUE(hit);  // so does the host partition
}

// --- Single-flight get-or-compute (cache_policy.hpp MemoCache) ---

TEST(MemoCache, ConcurrentMissesComputeOnceAndShareOneValue) {
  PlanCache cache;
  const PlanKey key{Kernel::kSpMV, 1, 0, 11, 1};
  constexpr int kThreads = 8;
  std::atomic<int> computes{0};
  std::vector<PlanCache::PlanPtr> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();  // every thread misses the key at once
      got[static_cast<std::size_t>(i)] = cache.get_or_compute(
          key,
          [&] {
            computes.fetch_add(1);
            // Hold the search open until every caller has looked the key
            // up, so the others find this compute in flight.
            while (cache.hits() + cache.misses() < kThreads) {
              std::this_thread::yield();
            }
            return std::make_shared<const Plan>();
          },
          nullptr);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  ASSERT_NE(got[0], nullptr);
  for (const auto& p : got) EXPECT_EQ(p.get(), got[0].get());
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), kThreads - 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(MemoCache, ThrowingComputeRethrowsToCallerAndWaitersAndUnpublishes) {
  PlanCache cache;
  const PlanKey key{Kernel::kSpMV, 1, 0, 11, 1};
  constexpr int kWaiters = 3;
  std::atomic<bool> computing{false};
  std::atomic<int> rethrown{0}, waiter_computes{0};
  const auto expect_throw = [&](const auto& fn) {
    try {
      (void)cache.get_or_compute(key, fn, nullptr);
    } catch (const std::runtime_error&) {
      rethrown.fetch_add(1);
    }
  };
  std::thread leader([&] {
    expect_throw([&]() -> PlanCache::PlanPtr {
      computing.store(true);
      // Throw only once every waiter has looked the key up.
      while (cache.hits() + cache.misses() < 1 + kWaiters) {
        std::this_thread::yield();
      }
      throw std::runtime_error("search failed");
    });
  });
  while (!computing.load()) std::this_thread::yield();
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      expect_throw([&] {
        waiter_computes.fetch_add(1);
        return std::make_shared<const Plan>();
      });
    });
  }
  leader.join();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(rethrown.load(), 1 + kWaiters);
  EXPECT_EQ(waiter_computes.load(), 0);
  // The failed entry was un-published: nothing is cached, and the next
  // call recomputes (and this time caches).
  EXPECT_EQ(cache.size(), 0u);
  bool hit = true;
  const auto plan = cache.get_or_compute(
      key, [] { return std::make_shared<const Plan>(); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(plan, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 2);
}

// --- Cache eviction (cache_policy.hpp) ---

TEST(EvictionIndex, LruOrderRespectedAmongEqualCosts) {
  EvictionIndex<int> idx;
  idx.touch(1, 5.0, 10);
  idx.touch(2, 5.0, 10);
  idx.touch(3, 5.0, 10);
  // Equal costs degrade to exact LRU: least-recently-touched goes first.
  EXPECT_EQ(idx.pop_victim(), std::optional<int>(1));
  idx.refresh(2);  // 2 is now the most recent; 3 becomes LRU
  EXPECT_EQ(idx.pop_victim(), std::optional<int>(3));
  EXPECT_EQ(idx.pop_victim(), std::optional<int>(2));
  EXPECT_EQ(idx.pop_victim(), std::nullopt);
}

TEST(EvictionIndex, CostAwareKeepsTheExpensiveEntryUnderPressure) {
  EvictionIndex<int> idx;
  idx.touch(1, 100.0, 10);  // expensive to recompute, touched first
  idx.touch(2, 1.0, 10);
  idx.touch(3, 1.0, 10);
  idx.touch(4, 1.0, 10);
  // Pure LRU would evict 1 first; the cost-aware policy sheds the cheap
  // entries and keeps the expensive one under pressure.
  EXPECT_EQ(idx.pop_victim(), std::optional<int>(2));
  EXPECT_EQ(idx.pop_victim(), std::optional<int>(3));
  EXPECT_EQ(idx.pop_victim(), std::optional<int>(4));
  EXPECT_EQ(idx.pop_victim(), std::optional<int>(1));
}

TEST(EvictionIndex, ExpensiveEntryAgesOutAsTheClockAdvances) {
  EvictionIndex<int> idx;
  idx.touch(1, 10.0, 1);
  // Each eviction advances the clock to the victim's priority, so a
  // stream of cheap entries eventually outprices an idle expensive one
  // (no permanent squatters).
  int evicted_1_after = -1;
  int next_key = 2;
  for (int round = 0; round < 20 && evicted_1_after < 0; ++round) {
    idx.touch(next_key++, 1.0, 1);
    const auto victim = idx.pop_victim();
    ASSERT_TRUE(victim.has_value());
    if (*victim == 1) evicted_1_after = round;
  }
  EXPECT_GE(evicted_1_after, 5);   // survived well past its cost rank...
  EXPECT_LE(evicted_1_after, 15);  // ...but not forever
}

TEST(EvictionIndex, TracksBytesAndBudget) {
  EvictionIndex<int> idx;
  idx.touch(1, 1.0, 100);
  idx.touch(2, 1.0, 200);
  EXPECT_EQ(idx.entries(), 2u);
  EXPECT_EQ(idx.bytes(), 300u);
  idx.touch(2, 1.0, 50);  // re-touch re-prices the byte charge
  EXPECT_EQ(idx.bytes(), 150u);
  CacheOptions entries_cap;
  entries_cap.max_entries = 1;
  EXPECT_TRUE(idx.over(entries_cap));
  CacheOptions bytes_cap;
  bytes_cap.max_bytes = 149;
  EXPECT_TRUE(idx.over(bytes_cap));
  bytes_cap.max_bytes = 150;
  EXPECT_FALSE(idx.over(bytes_cap));
  idx.erase(1);
  EXPECT_EQ(idx.bytes(), 50u);
  EXPECT_FALSE(idx.over(entries_cap));
}

TEST(ConversionCache, CapacityBoundsEntriesAndRecomputesEvicted) {
  CacheOptions limits;
  limits.max_entries = 2;
  ConversionCache cache(limits);
  const auto src = std::make_shared<const AnyMatrix>(
      encode(random_dense(32, 28, 0.1, 131), Format::kZVC));
  // Four distinct target formats through a 2-entry budget.
  const Format targets[] = {Format::kCSR, Format::kCOO, Format::kCSC,
                            Format::kDense};
  bool hit = false;
  for (const auto f : targets) {
    const auto rep = cache.matrix(7, f, src, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(format_of(*rep), f);
    EXPECT_LE(cache.size(), 2u);
  }
  // Whatever was evicted converts again, correctly.
  const auto csr = cache.matrix(7, Format::kCSR, src, &hit);
  EXPECT_EQ(decode(*csr), decode(*src));
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GT(cache.bytes(), 0u);
}

TEST(ConversionCache, InFlightSharedRepsSurviveEviction) {
  CacheOptions limits;
  limits.max_entries = 1;
  ConversionCache cache(limits);
  const auto src = std::make_shared<const AnyMatrix>(
      encode(random_dense(32, 28, 0.1, 132), Format::kZVC));
  bool hit = false;
  // Hold the first representation like an in-flight request would...
  const auto held = cache.matrix(9, Format::kCSR, src, &hit);
  // ...then churn enough conversions through the 1-entry budget that its
  // cache entry is certainly gone.
  for (const auto f : {Format::kCOO, Format::kCSC, Format::kDense}) {
    (void)cache.matrix(9, f, src, &hit);
  }
  EXPECT_LE(cache.size(), 1u);
  // The held shared_ptr is unaffected: eviction unpublishes, never frees.
  EXPECT_EQ(format_of(*held), Format::kCSR);
  EXPECT_EQ(decode(*held), decode(*src));
}

TEST(ConversionCache, ZeroCapacityBypassesStorage) {
  CacheOptions limits;
  limits.max_entries = 0;
  ConversionCache cache(limits);
  const auto src = std::make_shared<const AnyMatrix>(
      encode(random_dense(24, 24, 0.1, 133), Format::kZVC));
  bool hit = true;
  const auto r1 = cache.matrix(3, Format::kCSR, src, &hit);
  EXPECT_FALSE(hit);
  const auto r2 = cache.matrix(3, Format::kCSR, src, &hit);
  EXPECT_FALSE(hit);  // nothing was stored: misses forever
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(decode(*r1), decode(*r2));
  // Identity sharing needs no storage and still hits.
  const auto id_rep = cache.matrix(3, Format::kZVC, src, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(id_rep.get(), src.get());
}

TEST(PlanCache, CapacityBoundsPlans) {
  CacheOptions limits;
  limits.max_entries = 1;
  PlanCache cache(limits);
  auto plan = std::make_shared<Plan>();
  // k2's search is made deterministically the expensive one, so the
  // cost-aware victim choice between the two is never down to timing
  // noise on a trivial lambda.
  const auto slow_compute = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return plan;
  };
  const PlanKey k1{Kernel::kSpMV, 1, 0, 11, 1};
  const PlanKey k2{Kernel::kSpMV, 2, 0, 11, 1};
  bool hit = false;
  (void)cache.get_or_compute(k1, [&] { return plan; }, &hit);
  EXPECT_FALSE(hit);
  (void)cache.get_or_compute(k2, slow_compute, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 1u);  // the cheap k1 was evicted to admit k2
  (void)cache.get_or_compute(k2, slow_compute, &hit);
  EXPECT_TRUE(hit);  // the admitted entry still serves
  (void)cache.get_or_compute(k1, [&] { return plan; }, &hit);
  EXPECT_FALSE(hit);  // the evicted key recomputes
  EXPECT_EQ(cache.size(), 1u);
}

// What the server is contractually obliged to return for a single SpMV:
// coalescible plans route through the SpMM twin as a width-1 stack (so
// bits never depend on batch timing); everything else uses exec::spmv.
std::vector<value_t> served_spmv_reference(const AnyMatrix& m, Format acf,
                                           const std::vector<value_t>& x) {
  if (coalescible_spmv_format(acf) &&
      exec::has_native(Kernel::kSpMM, acf)) {
    return exec::column_of(
        exec::spmm(convert(m, acf), exec::stack_columns({&x})), 0);
  }
  return exec::spmv(convert(m, acf), x);
}

// End-to-end: a server with bounded caches keeps serving correct results
// while staying within its budget (thrash costs recompute, never
// correctness).
TEST(Server, BoundedCachesStayWithinBudgetAndServeCorrectly) {
  auto opts = small_opts();
  opts.caches.plan_limits.max_entries = 2;
  opts.caches.conversion_limits.max_entries = 3;
  Server srv(opts);

  std::vector<AnyMatrix> mats;
  std::vector<MatrixHandle> hs;
  for (int i = 0; i < 4; ++i) {
    mats.push_back(encode(
        random_dense(40, 32, 0.08, 140 + static_cast<unsigned>(i)),
        Format::kZVC));
    hs.push_back(srv.register_matrix(mats.back()));
  }
  std::vector<value_t> x(32);
  for (index_t i = 0; i < 32; ++i) {
    x[static_cast<std::size_t>(i)] = 0.5f * static_cast<float>(i % 3) - 0.5f;
  }

  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < hs.size(); ++i) {
      const auto plan = srv.plan_for(spmv_request(hs[i], x));
      const auto want = served_spmv_reference(mats[i], plan->run_a, x);
      const auto got = srv.submit(spmv_request(hs[i], x)).get();
      EXPECT_EQ(std::get<std::vector<value_t>>(got.result), want);
      EXPECT_LE(srv.plan_cache().size(), 2u);
      EXPECT_LE(srv.conversion_cache().size(), 3u);
    }
  }
  EXPECT_EQ(srv.counters().failed, 0);
}

TEST(MpmcQueue, TryPopNTakesOnlyWhatIsThere) {
  MpmcQueue<int> q(8);
  for (int i = 1; i <= 5; ++i) EXPECT_TRUE(q.push(std::move(i)));
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_n(out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.try_pop_n(out, 10), 2u);  // drains the rest, never blocks
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(q.try_pop_n(out, 4), 0u);  // empty queue: returns immediately
}

TEST(MpmcQueue, FifoDrainAndCloseSemantics) {
  MpmcQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  q.close();
  int untouched = 99;
  EXPECT_FALSE(q.push(std::move(untouched)));
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::optional<int>(3));
  EXPECT_EQ(q.pop(), std::nullopt);
}

}  // namespace
}  // namespace mt::runtime
