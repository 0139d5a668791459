// One serving front end under test: a lone Server or a ShardedServer.
// Both expose the same public calls; this forwards to whichever exists so
// the traffic and replay code is written once.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "runtime/router.hpp"
#include "runtime/server.hpp"

namespace servebench {

using mt::runtime::MatrixHandle;
using mt::runtime::Request;
using mt::runtime::Response;
using mt::runtime::TensorHandle;

class Target {
 public:
  explicit Target(const mt::runtime::ServerOptions& o)
      : server_(std::make_unique<mt::runtime::Server>(o)) {}
  explicit Target(const mt::runtime::ShardedServerOptions& o)
      : sharded_(std::make_unique<mt::runtime::ShardedServer>(o)) {}

  MatrixHandle register_matrix(mt::AnyMatrix m) {
    return server_ ? server_->register_matrix(std::move(m))
                   : sharded_->register_matrix(std::move(m));
  }
  TensorHandle register_tensor(mt::AnyTensor t) {
    return server_ ? server_->register_tensor(std::move(t))
                   : sharded_->register_tensor(std::move(t));
  }
  void evict(MatrixHandle h) {
    server_ ? server_->evict(h) : sharded_->evict(h);
  }
  void evict(TensorHandle h) {
    server_ ? server_->evict(h) : sharded_->evict(h);
  }
  std::future<Response> submit(Request r) {
    return server_ ? server_->submit(std::move(r))
                   : sharded_->submit(std::move(r));
  }
  mt::runtime::PlanCache::PlanPtr plan_for(const Request& r) {
    return server_ ? server_->plan_for(r) : sharded_->plan_for(r);
  }
  mt::runtime::CountersSnapshot counters() const {
    return server_ ? server_->counters() : sharded_->counters();
  }
  std::vector<mt::obs::MetricSnapshot> metrics_snapshot() const {
    return server_ ? server_->metrics_snapshot()
                   : sharded_->metrics_snapshot();
  }
  // Kernel OpenMP width one serving worker runs with. The sharded
  // exposition sums gauges across shards, so read one shard's.
  std::int64_t kernel_threads() const {
    const auto snap = server_ ? server_->metrics_snapshot()
                              : sharded_->shard(0).metrics_snapshot();
    for (const auto& m : snap) {
      if (m.name == "mt_kernel_threads") return m.value;
    }
    return 0;
  }
  // The async device ring, or null (no device backend, or sharded).
  const mt::exec::DeviceRing* device_ring() const {
    return server_ ? server_->device_ring() : nullptr;
  }
  void stop() { server_ ? server_->stop() : sharded_->stop(); }

 private:
  std::unique_ptr<mt::runtime::Server> server_;
  std::unique_ptr<mt::runtime::ShardedServer> sharded_;
};

}  // namespace servebench
