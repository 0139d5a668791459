// Shared helpers for the serving-runtime test binaries.
#pragma once

#include <future>
#include <thread>
#include <utility>

#include "runtime/server.hpp"

namespace mt::testing {

// Occupies the single worker of `server` with a chunky SpGEMM of `a` x `b`
// submitted through `target` (that server itself, or the ShardedServer
// whose shard it is), so everything submitted next piles up in the queue
// and drains as one window when the SpGEMM finishes.
//
// Returns once the worker has closed the occupier's window. The signal is
// the occupier's plan lookup (plan_cache().hits() + misses() moving, which
// it does under any cache budget): the worker resolves plans only after
// try_pop_n() has drained the window. queue_depth() reading 0 is not
// enough — it already does between pop() and try_pop_n(), and a request
// submitted in that gap joins the occupier's window.
template <typename Target>
std::future<runtime::Response> occupy_worker(Target& target,
                                             const runtime::Server& server,
                                             runtime::MatrixHandle a,
                                             runtime::MatrixHandle b) {
  const auto lookups = [&server] {
    return server.plan_cache().hits() + server.plan_cache().misses();
  };
  const auto before = lookups();
  runtime::Request r;
  r.kernel = Kernel::kSpGEMM;
  r.a = a;
  r.b = b;
  auto fut = target.submit(std::move(r));
  while (lookups() == before) std::this_thread::yield();
  return fut;
}

inline std::future<runtime::Response> occupy_worker(runtime::Server& srv,
                                                    runtime::MatrixHandle a,
                                                    runtime::MatrixHandle b) {
  return occupy_worker(srv, srv, a, b);
}

}  // namespace mt::testing
