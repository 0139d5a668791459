// The benchmark's three traffic mixes and the request stream each one
// produces. A workload owns its operands (generated from the seed), knows
// how to set a server up for them, and hands out one request at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "convert/convert.hpp"
#include "runtime/router.hpp"
#include "runtime/server.hpp"
#include "target.hpp"
#include "util.hpp"

namespace servebench {

using mt::Format;
using mt::Kernel;
using mt::index_t;
using mt::value_t;

// One operand as the client holds it: the registered representation (in
// its memory format) plus a COO copy for reference checks and replays.
struct Operand {
  std::string label;
  bool tensor = false;
  mt::AnyMatrix m;
  mt::AnyTensor t;
  mt::CooMatrix coo;
  mt::CooTensor3 tcoo;
  Format mcf = Format::kCOO;
  std::int64_t nnz = 0;
};

// Dense request payloads, shared between the request copies sent to the
// server and the output check that recomputes a sample of them.
struct Payload {
  std::shared_ptr<const std::vector<value_t>> vec;
  std::shared_ptr<const mt::DenseMatrix> dense_b;
  std::shared_ptr<const mt::DenseMatrix> dense_c;
};

// One request shape of a workload: a kernel over operands (indices into
// the workload's operand table) with its payload.
struct Template {
  Kernel kernel = Kernel::kSpMV;
  int a = -1, b = -1, x = -1;
  Payload payload;
  double weight = 0.0;  // share of the request mix
};

// What one completed request leaves behind.
struct Rec {
  std::int64_t due = 0;      // scheduled send time (open loop) or send time
  std::int64_t submit = 0;   // submit() call start
  std::int64_t ready = 0;    // future observed ready
  std::int64_t reg_start = 0;  // cold requests: register_matrix start
  mt::runtime::ServeStats stats;
  Kernel kernel = Kernel::kSpMV;
  std::uint64_t a = 0, b = 0, x = 0;  // handle ids (for plan lookups)
  int phase = 0;
  bool cold = false;
  bool ok = false;
};

// A request ready to submit plus what the client keeps about it.
struct Sent {
  Request req;
  Rec rec;
  const Operand* op_a = nullptr;
  const Operand* op_b = nullptr;
  const Operand* op_x = nullptr;
  Payload payload;
  // Requests in flight on the churned operand (null for static operands):
  // the client evicts an operand only once nothing it sent is in flight.
  std::shared_ptr<std::atomic<int>> inflight;
};

// Timings of the registry calls the client itself makes.
struct RegistryLog {
  Samples register_ns;
  Samples evict_ns;
  Samples cold_ns;  // register_matrix start -> first response
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  virtual std::unique_ptr<Target> make_target() const = 0;
  // Options of the Server (or of each shard) under test.
  virtual mt::runtime::ServerOptions server_options() const = 0;
  // Registers the operands and warms every steady plan (timed as setup_s
  // by the caller). Records registry and first-touch timings into `log`.
  virtual void setup(Target& t, RegistryLog& log) = 0;
  // Next request of the stream. Called from one thread at a time; churn
  // registers and evicts operands here.
  virtual Sent next(Target& t, mt::Prng& rng, RegistryLog& log) = 0;
  // Called on the sending thread right after the request is submitted.
  virtual void after_submit(const Sent&) {}
  // Called once per finished request (any thread).
  void done(const Sent& s) {
    if (s.inflight) s.inflight->fetch_sub(1, std::memory_order_acq_rel);
  }
  // Evicts every registered operand (timed into `log`).
  virtual void teardown(Target& t, RegistryLog& log) = 0;

  // Fixed offered loads (requests per second) and the latency limit the
  // SLO share is measured against.
  double low_rps = 0.0;
  double high_rps = 0.0;
  double slo_us = 0.0;
  int check_every = 32;  // output check: every Nth response per kernel

  // Request shapes with their mix weights and live handles, for replays
  // and plan lookups after the traffic phases. Static workloads return
  // every template; churn returns the shapes of its live operands.
  struct Shape {
    Template tmpl;
    const Operand* op_a = nullptr;
    const Operand* op_b = nullptr;
    const Operand* op_x = nullptr;
    Request req;  // handles filled in; payload copied
  };
  virtual std::vector<Shape> shapes() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// Builds the request for template `t` over the given handles, copying the
// payload into the request body.
Request build_request(const Template& t, MatrixHandle a, MatrixHandle b,
                      TensorHandle x);

}  // namespace servebench
