// Async device submission ring — the host/accelerator split of the
// serving stack's device path.
//
// Modeled on a driver's descriptor ring: the host (a Server worker)
// writes job descriptors into a bounded ring and immediately gets a
// monotonic ticket back; device workers (the "accelerator side") drain
// descriptors and execute them on a Backend; the host claims completions
// by ticket — polling (try_poll) or blocking (wait) — instead of blocking
// inside the kernel call. One submitting worker can therefore keep many
// device jobs in flight: submit the whole window, then claim.
//
//   submit(Job) ─► [ slot | slot | slot … ]  ─► device workers ─► Backend
//        │             bounded (backpressure)         │
//        └── Ticket            completions ◄──────────┘
//                  try_poll(t) / wait(t)
//
// Contracts:
//   * Backpressure bounds the *descriptor queue* (jobs accepted but not
//     yet picked up), like a hardware ring's slot count. Jobs being
//     executed and unclaimed completions are NOT counted against the
//     bound, so a submitter may post arbitrarily many jobs before
//     claiming any — submit-all-then-claim-all never deadlocks.
//   * Every accepted ticket completes: stop() closes intake, drains the
//     remaining descriptors through the device workers, joins them, and
//     then wakes all claimers — wait() after (or racing) stop() still
//     returns the job's result. Claims are one-shot: a result is moved
//     out to exactly one claimer.
//   * Operand lifetime: the submitter keeps a Job's borrowed operands
//     alive until that job's ticket is claimed (or the ring is stopped).
//   * In-flight accounting: submitted-but-unclaimed-and-uncompleted jobs
//     (queued + executing). stats().peak_in_flight is the high-water mark
//     — the number the ">1 in flight per worker" acceptance gates on.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "exec/backend.hpp"

namespace mt::exec {

struct RingOptions {
  std::size_t slots = 32;  // descriptor-queue bound (0 clamps to 1)
  int workers = 2;         // device-side executor threads (>= 1)
};

struct RingStats {
  std::int64_t submitted = 0;       // tickets issued
  std::int64_t completed = 0;       // jobs finished (claimed or not)
  std::int64_t in_flight = 0;       // submitted, not yet completed
  std::int64_t peak_in_flight = 0;  // high-water mark of in_flight
};

class DeviceRing {
 public:
  // Tickets are monotonically increasing from 1 in submission order;
  // kInvalidTicket (0) is returned by submit() on a stopped ring.
  using Ticket = std::uint64_t;
  static constexpr Ticket kInvalidTicket = 0;

  explicit DeviceRing(const Backend& device, RingOptions opts = {});
  ~DeviceRing();  // stop()s if still running

  DeviceRing(const DeviceRing&) = delete;
  DeviceRing& operator=(const DeviceRing&) = delete;

  // Blocks while every descriptor slot holds a not-yet-started job
  // (bounded-ring backpressure); returns kInvalidTicket iff the ring was
  // stopped before space opened up (the job is not accepted).
  Ticket submit(Job job) MT_EXCLUDES(mu_);

  // Non-blocking claim: true + moves the result out when ticket `t` has
  // completed; false while it is still in flight. Throws
  // std::invalid_argument for a ticket never issued or already claimed,
  // and rethrows the job's exception if it failed.
  bool try_poll(Ticket t, JobResult* out) MT_EXCLUDES(mu_);

  // Blocking claim of ticket `t`: returns the result (or rethrows the
  // job's exception) once the device side completes it. Safe to call
  // concurrently with stop() — accepted jobs drain before workers exit.
  JobResult wait(Ticket t) MT_EXCLUDES(mu_);

  // Closes intake, drains accepted descriptors, joins device workers,
  // wakes every claimer. Idempotent; the destructor calls it.
  void stop() MT_EXCLUDES(mu_);

  RingStats stats() const MT_EXCLUDES(mu_);
  std::size_t slots() const { return slots_; }
  int workers() const { return static_cast<int>(workers_.size()); }

 private:
  struct Completion {
    JobResult result;  // run_ns stamped with the device-side wall time
    std::exception_ptr error;
  };

  void worker_loop() MT_EXCLUDES(mu_);
  // Unwraps a claimed completion, rethrowing a failed job's exception.
  static JobResult claim(Completion&& c);

  const Backend& device_;
  const std::size_t slots_;

  mutable Mutex mu_;
  CondVar space_;       // signaled when a descriptor slot frees up
  CondVar work_;        // signaled when a descriptor is queued / on stop
  CondVar done_;        // signaled when a completion is posted / drained
  std::deque<std::pair<Ticket, Job>> queue_ MT_GUARDED_BY(mu_);
  std::unordered_map<Ticket, Completion> completions_ MT_GUARDED_BY(mu_);
  Ticket next_ticket_ MT_GUARDED_BY(mu_) = 1;
  std::int64_t active_ MT_GUARDED_BY(mu_) = 0;  // jobs being executed
  std::int64_t completed_ MT_GUARDED_BY(mu_) = 0;
  std::int64_t peak_in_flight_ MT_GUARDED_BY(mu_) = 0;
  bool stopping_ MT_GUARDED_BY(mu_) = false;
  bool drained_ MT_GUARDED_BY(mu_) = false;  // workers joined; no more
                                             // completions will arrive

  // Elects the single thread that closes intake and joins workers;
  // latecomers block until drained_ (see stop()).
  std::atomic<bool> stop_requested_{false};

  std::vector<std::thread> workers_;
};

}  // namespace mt::exec
