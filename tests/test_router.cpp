// Sharded serving router tests: consistent-hash ring properties (uniform
// spread, minimal remapping on growth), shard handle encoding, shards=1
// behavioral identity with a lone Server on the full kernel mix,
// cross-shard pair routing with zero-copy replication, eviction fan-out,
// update_model fan-out, aggregated observability, the batcher x sharding
// interaction, and the shard-aware kernel-thread budget.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "common/threads.hpp"
#include "runtime/router.hpp"
#include "serving_testing.hpp"
#include "testing.hpp"
#include "workloads/synth.hpp"

namespace mt::runtime {
namespace {

using testing::occupy_worker;
using testing::random_dense;

// --- HashRing properties ---

// Deterministic assignment counts for keys 1..n over a fresh ring.
std::vector<int> spread(const HashRing& ring, int keys) {
  std::vector<int> counts(static_cast<std::size_t>(ring.num_shards()), 0);
  for (int k = 1; k <= keys; ++k) {
    ++counts[static_cast<std::size_t>(
        ring.shard_for(static_cast<std::uint64_t>(k)))];
  }
  return counts;
}

TEST(HashRing, SpreadsTenThousandHandlesUniformly) {
  // Chi-square-style bound: ring placement is deterministic (fixed hash,
  // fixed key set), so these are exact regression bounds, not a
  // statistical test that can flake. With the default 128 vnodes/shard
  // the observed stat is ~6.5 and the worst per-shard deviation ~4.2%;
  // the bounds leave headroom without admitting a skewed ring (a
  // 2x-loaded shard alone would contribute 2500 to the statistic).
  const HashRing ring(4, 128);
  const auto counts = spread(ring, 10000);
  const double expect = 10000.0 / 4.0;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = static_cast<double>(c) - expect;
    chi2 += d * d / expect;
    EXPECT_NEAR(static_cast<double>(c), expect, 0.15 * expect);
  }
  EXPECT_LT(chi2, 60.0);
}

TEST(HashRing, MoreShardsMoreVnodesStillBounded) {
  // The smoothness bound must hold away from the default configuration
  // too (relative deviation shrinks like 1/sqrt(vnodes) only in
  // expectation; any single configuration just has to stay sane —
  // observed worst deviation here is ~10%).
  const HashRing ring(8, 512);
  const auto counts = spread(ring, 10000);
  const double expect = 10000.0 / 8.0;
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expect, 0.25 * expect);
  }
}

TEST(HashRing, GrowthRemapsOnlyOntoTheNewShard) {
  // Consistent-hashing core property: adding shard N changes no point of
  // shards 0..N-1, so a key either keeps its owner or moves to the new
  // shard — never between two pre-existing shards. The moved fraction
  // tracks the new shard's fair share (~1/N).
  const struct {
    int from, to;
  } cases[] = {{1, 2}, {2, 3}, {4, 5}};
  for (const auto& c : cases) {
    const HashRing before(c.from, 128);
    const HashRing after(c.to, 128);
    int moved = 0;
    for (int k = 1; k <= 10000; ++k) {
      const int sb = before.shard_for(static_cast<std::uint64_t>(k));
      const int sa = after.shard_for(static_cast<std::uint64_t>(k));
      if (sa != sb) {
        ++moved;
        EXPECT_EQ(sa, c.to - 1) << "key " << k
                                << " moved between pre-existing shards";
      }
    }
    const double fair = 1.0 / static_cast<double>(c.to);
    EXPECT_GT(moved, static_cast<int>(0.5 * fair * 10000.0));
    EXPECT_LT(moved, static_cast<int>(1.6 * fair * 10000.0));
  }
}

TEST(HashRing, SingleShardOwnsEverything) {
  const HashRing ring(1, 8);
  for (int k = 1; k <= 100; ++k) {
    EXPECT_EQ(ring.shard_for(static_cast<std::uint64_t>(k)), 0);
  }
}

TEST(ShardHandle, EncodingRoundTripsAndStaysValid) {
  for (const int shard : {0, 1, 7, kMaxShards - 1}) {
    for (const std::uint64_t local : {1ull, 2ull, 1000ull, 1ull << 40}) {
      const auto id = encode_shard_handle(local, shard);
      EXPECT_EQ(shard_of_handle(id), shard);
      EXPECT_EQ(local_handle(id), local);
      EXPECT_TRUE(MatrixHandle{id}.valid());  // local ids start at 1
    }
  }
}

// --- ShardedServer fixtures ---

ServerOptions small_shard_opts() {
  ServerOptions o;
  o.num_workers = 1;
  o.queue_capacity = 16;
  o.accel.num_pes = 32;
  o.accel.pe_buffer_bytes = 64 * 4;
  return o;
}

ShardedServerOptions sharded_opts(int shards) {
  ShardedServerOptions o;
  o.num_shards = shards;
  o.shard = small_shard_opts();
  return o;
}

Request spmv_request(MatrixHandle a, const std::vector<value_t>& x) {
  Request r;
  r.kernel = Kernel::kSpMV;
  r.a = a;
  r.vec = x;
  return r;
}

void expect_same_result(const Result& got, const Result& want,
                        std::size_t idx) {
  ASSERT_EQ(got.index(), want.index()) << "request " << idx;
  if (const auto* v = std::get_if<std::vector<value_t>>(&want)) {
    EXPECT_EQ(std::get<std::vector<value_t>>(got), *v) << idx;
  } else if (const auto* m = std::get_if<DenseMatrix>(&want)) {
    EXPECT_EQ(std::get<DenseMatrix>(got), *m) << idx;
  } else if (const auto* c = std::get_if<CsrMatrix>(&want)) {
    const auto& g = std::get<CsrMatrix>(got);
    EXPECT_EQ(g.row_ptr(), c->row_ptr()) << idx;
    EXPECT_EQ(g.col_ids(), c->col_ids()) << idx;
    EXPECT_EQ(g.values(), c->values()) << idx;
  } else {
    EXPECT_EQ(std::get<DenseTensor3>(got), std::get<DenseTensor3>(want))
        << idx;
  }
}

// The full kernel mix, built against whatever handles the server type
// under test returned for the same registration order (Server and
// ShardedServer share the handle types; only the encoded ids differ).
struct MixHandles {
  MatrixHandle csr, zvc, dense, pair_b;
  TensorHandle tensor;
};

template <typename S>
MixHandles register_mix(S& srv) {
  MixHandles h;
  h.csr = srv.register_matrix(encode(random_dense(48, 48, 0.05, 91),
                                     Format::kCSR));
  h.zvc = srv.register_matrix(encode(random_dense(48, 48, 0.06, 92),
                                     Format::kZVC));
  h.dense = srv.register_matrix(AnyMatrix(random_dense(32, 32, 1.0, 93)));
  h.pair_b = srv.register_matrix(encode(random_dense(48, 48, 0.07, 94),
                                        Format::kCSC));
  h.tensor = srv.register_tensor(AnyTensor(synth_coo_tensor(10, 9, 8, 60,
                                                            95)));
  return h;
}

std::vector<Request> mix_requests(const MixHandles& h) {
  std::vector<value_t> x(48);
  for (index_t i = 0; i < 48; ++i) {
    x[static_cast<std::size_t>(i)] = 0.25f * static_cast<float>(i % 7) - 0.5f;
  }
  const auto spmm_b = random_dense(48, 12, 1.0, 96);
  const auto gemm_b = random_dense(32, 8, 1.0, 97);
  const auto mt_b = random_dense(9, 6, 1.0, 98);
  const auto mt_c = random_dense(8, 6, 1.0, 99);
  const auto ttm_u = random_dense(8, 6, 1.0, 100);

  std::vector<Request> reqs;
  reqs.push_back(spmv_request(h.csr, x));
  reqs.push_back(spmv_request(h.zvc, x));
  {
    Request r;
    r.kernel = Kernel::kSpMM;
    r.a = h.csr;
    r.dense_b = spmm_b;
    reqs.push_back(std::move(r));
  }
  {
    Request r;  // registered pair SpMM — cross-shard when sharded
    r.kernel = Kernel::kSpMM;
    r.a = h.csr;
    r.b = h.pair_b;
    reqs.push_back(std::move(r));
  }
  {
    Request r;
    r.kernel = Kernel::kGemm;
    r.a = h.dense;
    r.dense_b = gemm_b;
    reqs.push_back(std::move(r));
  }
  {
    Request r;
    r.kernel = Kernel::kSpGEMM;
    r.a = h.csr;
    r.b = h.pair_b;
    reqs.push_back(std::move(r));
  }
  {
    Request r;
    r.kernel = Kernel::kSpTTM;
    r.x = h.tensor;
    r.dense_b = ttm_u;
    reqs.push_back(std::move(r));
  }
  {
    Request r;
    r.kernel = Kernel::kMTTKRP;
    r.x = h.tensor;
    r.dense_b = mt_b;
    r.dense_c = mt_c;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

// Acceptance bar: a one-shard router is behaviorally identical to a lone
// Server — bit-identical responses on the full kernel mix, same cache
// accounting shape, same plans.
TEST(ShardedServer, SingleShardBitIdenticalToServer) {
  std::vector<Result> want;
  {
    Server srv(small_shard_opts());
    const auto h = register_mix(srv);
    for (auto& r : mix_requests(h)) {
      want.push_back(srv.submit(std::move(r)).get().result);
    }
  }

  ShardedServer srv(sharded_opts(1));
  const auto h = register_mix(srv);
  EXPECT_EQ(srv.shard_of(h.csr), 0);
  auto reqs = mix_requests(h);
  ASSERT_EQ(reqs.size(), want.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto resp = srv.submit(std::move(reqs[i])).get();
    expect_same_result(resp.result, want[i], i);
  }
  const auto c = srv.counters();
  EXPECT_EQ(c.completed, static_cast<std::int64_t>(want.size()));
  EXPECT_EQ(c.failed, 0);
}

// And the same mix must stay bit-identical when the operands scatter
// across four shards (cross-shard pair requests included).
TEST(ShardedServer, FourShardsBitIdenticalToServer) {
  std::vector<Result> want;
  {
    Server srv(small_shard_opts());
    const auto h = register_mix(srv);
    for (auto& r : mix_requests(h)) {
      want.push_back(srv.submit(std::move(r)).get().result);
    }
  }

  ShardedServer srv(sharded_opts(4));
  const auto h = register_mix(srv);
  auto reqs = mix_requests(h);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto resp = srv.submit(std::move(reqs[i])).get();
    expect_same_result(resp.result, want[i], i);
  }
  EXPECT_EQ(srv.counters().completed,
            static_cast<std::int64_t>(want.size()));
  EXPECT_EQ(srv.counters().failed, 0);
}

TEST(ShardedServer, SpreadsOperandsAcrossShards) {
  ShardedServer srv(sharded_opts(4));
  std::vector<int> owned(4, 0);
  for (int i = 0; i < 32; ++i) {
    const auto h = srv.register_matrix(
        encode(random_dense(16, 16, 0.2, 200 + static_cast<unsigned>(i)),
               Format::kCSR));
    const int s = srv.shard_of(h);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    ++owned[static_cast<std::size_t>(s)];
  }
  for (const int n : owned) EXPECT_GT(n, 0) << "a shard owns no operands";
}

// Registers copies of `m` until one lands on `target` (placement is
// deterministic but hash-ordered; a handful of draws reaches any shard).
MatrixHandle register_on_shard(ShardedServer& srv, const AnyMatrix& m,
                               int target) {
  for (int tries = 0; tries < 256; ++tries) {
    const auto h = srv.register_matrix(m);
    if (srv.shard_of(h) == target) return h;
  }
  ADD_FAILURE() << "could not place an operand on shard " << target;
  return {};
}

TEST(ShardedServer, CrossShardPairExecutesOnFirstOperandsShard) {
  ShardedServer srv(sharded_opts(2));
  const auto a_dense = random_dense(36, 30, 0.08, 110);
  const auto b_dense = random_dense(30, 26, 0.08, 111);
  const AnyMatrix a_any = encode(a_dense, Format::kCOO);
  const AnyMatrix b_any = encode(b_dense, Format::kCSC);
  const auto ha = register_on_shard(srv, a_any, 0);
  const auto hb = register_on_shard(srv, b_any, 1);

  Request r;
  r.kernel = Kernel::kSpGEMM;
  r.a = ha;
  r.b = hb;
  const auto want = exec::spgemm(convert(a_any, Format::kCSR),
                                 convert(b_any, Format::kCSR));
  const auto before_shard1 = srv.shard_counters(1).completed;
  for (int i = 0; i < 3; ++i) {
    const auto got = srv.submit(r).get();
    const auto& csr = std::get<CsrMatrix>(got.result);
    EXPECT_EQ(csr.row_ptr(), want.row_ptr());
    EXPECT_EQ(csr.col_ids(), want.col_ids());
    EXPECT_EQ(csr.values(), want.values());
    // Repeats ride the replica + caches: only the first request plans.
    EXPECT_EQ(got.stats.plan_cache_hit, i > 0);
  }
  // The policy: all three executed on shard 0 (first operand's home).
  EXPECT_EQ(srv.shard_counters(0).completed, 3);
  EXPECT_EQ(srv.shard_counters(1).completed, before_shard1);
}

TEST(ShardedServer, EvictPurgesReplicasAndFailsLaterRequests) {
  ShardedServer srv(sharded_opts(2));
  const AnyMatrix a_any = encode(random_dense(36, 30, 0.08, 112),
                                 Format::kCSR);
  const AnyMatrix b_any = encode(random_dense(30, 26, 0.08, 113),
                                 Format::kCSR);
  const auto ha = register_on_shard(srv, a_any, 0);
  const auto hb = register_on_shard(srv, b_any, 1);

  Request r;
  r.kernel = Kernel::kSpGEMM;
  r.a = ha;
  r.b = hb;
  (void)srv.submit(r).get();  // replica of hb now lives on shard 0

  srv.evict(hb);  // purges shard 1's registration AND shard 0's replica
  auto fut = srv.submit(r);
  EXPECT_THROW(fut.get(), std::invalid_argument);

  // The A side still serves on its own.
  std::vector<value_t> x(30, 1.0f);
  (void)srv.submit(spmv_request(ha, x)).get();

  srv.evict(ha);
  auto fut2 = srv.submit(spmv_request(ha, x));
  EXPECT_THROW(fut2.get(), std::invalid_argument);
  EXPECT_EQ(srv.counters().failed, 2);
}

TEST(ShardedServer, MalformedPairWithInvalidPrimaryFailsWithoutSideEffects) {
  ShardedServer srv(sharded_opts(2));
  const AnyMatrix b_any = encode(random_dense(30, 26, 0.08, 114),
                                 Format::kCSR);
  const auto hb = register_on_shard(srv, b_any, 1);

  Request r;  // invalid primary, valid cross-shard B
  r.kernel = Kernel::kSpMM;
  r.b = hb;
  auto fut = srv.submit(r);
  EXPECT_THROW(fut.get(), std::invalid_argument);

  // The failure must not have replicated B anywhere as a side effect: B
  // still serves normally from its own shard afterwards.
  std::vector<value_t> x(26, 1.0f);
  (void)srv.submit(spmv_request(hb, x)).get();
  EXPECT_EQ(srv.counters().completed, 1);
  EXPECT_EQ(srv.counters().failed, 1);
}

TEST(ShardedServer, ForeignHandleFailsOnTheFuture) {
  ShardedServer srv(sharded_opts(2));
  // Shard index 7 was never issued by this two-shard router.
  auto fut = srv.submit(spmv_request(MatrixHandle{encode_shard_handle(1, 7)},
                                     std::vector<value_t>(8, 1.0f)));
  EXPECT_THROW(fut.get(), std::invalid_argument);
  EXPECT_EQ(srv.counters().failed, 1);
  EXPECT_EQ(srv.counters().completed, 0);
}

TEST(ShardedServer, UpdateModelFansOutToEveryShard) {
  ShardedServer srv(sharded_opts(4));
  std::vector<value_t> x(24, 1.0f);
  // One planned workload on each of several shards.
  std::vector<MatrixHandle> hs;
  std::vector<int> shards_hit;
  for (int i = 0; i < 8; ++i) {
    hs.push_back(srv.register_matrix(
        encode(random_dense(24, 24, 0.1, 300 + static_cast<unsigned>(i)),
               Format::kCSR)));
    (void)srv.submit(spmv_request(hs.back(), x)).get();
  }
  std::size_t plans = 0;
  int populated_shards = 0;
  for (int s = 0; s < srv.num_shards(); ++s) {
    const auto n = srv.shard(s).plan_cache().size();
    plans += n;
    populated_shards += n > 0 ? 1 : 0;
  }
  EXPECT_EQ(plans, 8u);
  EXPECT_GT(populated_shards, 1) << "operands all landed on one shard";

  const auto old_fp = srv.model_fingerprint();
  auto accel = srv.options().shard.accel;
  accel.num_pes /= 2;
  // Fan-out reaches every shard: the fingerprint moves fleet-wide. These
  // shards run no device backend, so every plan is CPU-backend (keyed on
  // kHostModel) and the partitioned retire reports zero on every backend
  // — the plans survive the device-model swap and keep hitting.
  const auto retired = srv.update_model(accel, srv.options().shard.energy);
  EXPECT_EQ(retired.total(), 0u);
  EXPECT_EQ(retired.of(exec::BackendKind::kCpu), 0u);
  EXPECT_NE(srv.model_fingerprint(), old_fp);
  std::size_t surviving = 0;
  for (int s = 0; s < srv.num_shards(); ++s) {
    surviving += srv.shard(s).plan_cache().size();
    EXPECT_EQ(srv.shard(s).model_fingerprint(), srv.model_fingerprint());
  }
  EXPECT_EQ(surviving, 8u);
  const auto resp = srv.submit(spmv_request(hs[0], x)).get();
  EXPECT_TRUE(resp.stats.plan_cache_hit);  // survived the model swap
}

TEST(ShardedServer, UpdateModelReportsDeviceRetiresPerBackend) {
  // Mint-backend shards: every plan is priced against the device model,
  // so the fan-out's per-backend accounting sees exactly the device
  // plans retired, on the device backend's slot.
  auto opts = sharded_opts(2);
  opts.shard.backend.backend = exec::BackendKind::kMint;
  ShardedServer srv(opts);
  std::vector<value_t> x(24, 1.0f);
  std::vector<MatrixHandle> hs;
  for (int i = 0; i < 4; ++i) {
    hs.push_back(srv.register_matrix(
        encode(random_dense(24, 24, 0.1, 340 + static_cast<unsigned>(i)),
               Format::kCSR)));
    (void)srv.submit(spmv_request(hs.back(), x)).get();
  }
  auto accel = srv.options().shard.accel;
  accel.num_pes /= 2;
  const auto retired = srv.update_model(accel, srv.options().shard.energy);
  EXPECT_EQ(retired.total(), 4u);
  EXPECT_EQ(retired.of(exec::BackendKind::kMint), 4u);
  EXPECT_EQ(retired.of(exec::BackendKind::kCpu), 0u);
  for (int s = 0; s < srv.num_shards(); ++s) {
    EXPECT_EQ(srv.shard(s).plan_cache().size(), 0u);
  }
  const auto resp = srv.submit(spmv_request(hs[0], x)).get();
  EXPECT_FALSE(resp.stats.plan_cache_hit);  // re-planned under the new model
}

TEST(ShardedServer, AggregatesCountersAndQueueDepthAcrossShards) {
  ShardedServer srv(sharded_opts(4));
  std::vector<value_t> x(24, 0.5f);
  std::vector<MatrixHandle> hs;
  for (int i = 0; i < 8; ++i) {
    hs.push_back(srv.register_matrix(
        encode(random_dense(24, 24, 0.1, 400 + static_cast<unsigned>(i)),
               Format::kCSR)));
  }
  std::vector<std::future<Response>> futs;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& h : hs) futs.push_back(srv.submit(spmv_request(h, x)));
  }
  for (auto& f : futs) (void)f.get();

  CountersSnapshot manual;
  for (int s = 0; s < srv.num_shards(); ++s) {
    EXPECT_EQ(srv.queue_depth(s), 0u);  // idle after the drain
    manual += srv.shard_counters(s);
  }
  const auto total = srv.counters();
  EXPECT_EQ(total.completed, 24);
  EXPECT_EQ(total.completed, manual.completed);
  EXPECT_EQ(total.plan_hits, manual.plan_hits);
  EXPECT_EQ(total.plan_misses, manual.plan_misses);
  EXPECT_EQ(srv.queue_depth(), 0u);
}

// --- Batcher x sharding ---

// Per-handle FIFO and fused-vs-off bit-identity must survive requests
// fanning out across shards: each shard batches its own queue
// independently, and responses still match a batching-off router
// bit-for-bit, request by request.
TEST(ShardedServer, BatchedBurstsAcrossShardsBitIdenticalToOff) {
  const AnyMatrix m0 = encode(random_dense(64, 48, 0.05, 120), Format::kCSR);
  const AnyMatrix m1 = encode(random_dense(64, 48, 0.05, 121), Format::kCSR);
  const AnyMatrix slow = encode(random_dense(900, 900, 0.08, 122),
                                Format::kCSR);
  // Distinct per-request vectors: a swapped or reordered response would
  // produce the wrong result, so bit-identity doubles as the per-handle
  // FIFO/routing check.
  std::vector<std::vector<value_t>> xs;
  for (int i = 0; i < 5; ++i) {
    std::vector<value_t> x;
    for (index_t k = 0; k < 48; ++k) {
      x.push_back(0.125f * static_cast<float>((k + i) % 9) - 0.25f);
    }
    xs.push_back(std::move(x));
  }

  auto opts = sharded_opts(2);
  opts.shard.queue_capacity = 64;
  opts.shard.batch.policy = BatchPolicy::kWindow;
  opts.shard.batch.window = 16;

  // Reference: same router topology, batching off, strictly sequential.
  std::vector<std::vector<value_t>> want0, want1;
  {
    auto off = opts;
    off.shard.batch.policy = BatchPolicy::kOff;
    ShardedServer srv(off);
    const auto h0 = register_on_shard(srv, m0, 0);
    const auto h1 = register_on_shard(srv, m1, 1);
    for (const auto& x : xs) {
      want0.push_back(std::get<std::vector<value_t>>(
          srv.submit(spmv_request(h0, x)).get().result));
      want1.push_back(std::get<std::vector<value_t>>(
          srv.submit(spmv_request(h1, x)).get().result));
    }
    EXPECT_EQ(srv.counters().batches, 0);
  }

  ShardedServer srv(opts);
  const auto h0 = register_on_shard(srv, m0, 0);
  const auto h1 = register_on_shard(srv, m1, 1);
  ASSERT_TRUE(coalescible_spmv_format(
      srv.plan_for(spmv_request(h0, xs[0]))->run_a));
  const auto s0_a = register_on_shard(srv, slow, 0);
  const auto s0_b = register_on_shard(srv, slow, 0);
  const auto s1_a = register_on_shard(srv, slow, 1);
  const auto s1_b = register_on_shard(srv, slow, 1);

  auto occ0 = occupy_worker(srv, srv.shard(0), s0_a, s0_b);
  auto occ1 = occupy_worker(srv, srv.shard(1), s1_a, s1_b);
  std::vector<std::future<Response>> futs0, futs1;
  for (const auto& x : xs) {
    futs0.push_back(srv.submit(spmv_request(h0, x)));
    futs1.push_back(srv.submit(spmv_request(h1, x)));
  }
  (void)occ0.get();
  (void)occ1.get();

  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto r0 = futs0[i].get();
    const auto r1 = futs1[i].get();
    EXPECT_EQ(std::get<std::vector<value_t>>(r0.result), want0[i]) << i;
    EXPECT_EQ(std::get<std::vector<value_t>>(r1.result), want1[i]) << i;
    EXPECT_TRUE(r0.stats.batched);
    EXPECT_TRUE(r1.stats.batched);
    EXPECT_EQ(r0.stats.batch_size, 5);
    EXPECT_EQ(r1.stats.batch_size, 5);
  }
  // One coalesced launch per shard, never a cross-shard merge.
  const auto c = srv.counters();
  EXPECT_EQ(c.batches, 2);
  EXPECT_EQ(c.batched_requests, 10);
  EXPECT_EQ(srv.shard_counters(0).batches, 1);
  EXPECT_EQ(srv.shard_counters(1).batches, 1);
}

// --- Thread budget ---

TEST(ShardedServer, ShardsJoinTheProcessWideThreadBudget) {
  const int before_override = num_threads_override();
  const int before = num_threads();
  {
    auto opts = sharded_opts(4);
    opts.shard.num_workers = 1;  // would NOT cap as a lone server
    ShardedServer srv(opts);
    // Four single-worker shards are four concurrent kernel callers: the
    // budget divides hardware over all of them.
    EXPECT_EQ(num_threads(),
              std::min(std::max(1, hardware_threads() / 4), before));
  }
  EXPECT_EQ(num_threads_override(), before_override);
  EXPECT_EQ(num_threads(), before);
}

TEST(ShardedServer, SingleShardSingleWorkerLeavesThreadsAlone) {
  const int before = num_threads();
  {
    ShardedServer srv(sharded_opts(1));  // 1 shard x 1 worker
    EXPECT_EQ(num_threads(), before);
  }
  EXPECT_EQ(num_threads(), before);
}

}  // namespace
}  // namespace mt::runtime
