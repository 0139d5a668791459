#include "exec/device_ring.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace mt::exec {

namespace {

std::int64_t ring_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

DeviceRing::DeviceRing(const Backend& device, RingOptions opts)
    : device_(device), slots_(std::max<std::size_t>(1, opts.slots)) {
  const int n = std::max(1, opts.workers);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

// NOLINTNEXTLINE(bugprone-exception-escape): stop() only closes intake and
// joins drained workers; neither path throws in practice, and a destructor
// that leaked running threads would be strictly worse.
DeviceRing::~DeviceRing() { stop(); }

DeviceRing::Ticket DeviceRing::submit(Job job) {
  Ticket t = kInvalidTicket;
  {
    UniqueLock lk(mu_);
    while (!stopping_ && queue_.size() >= slots_) space_.wait(lk);
    if (stopping_) return kInvalidTicket;
    t = next_ticket_++;
    queue_.emplace_back(t, std::move(job));
    const auto in_flight =
        static_cast<std::int64_t>(queue_.size()) + active_;
    peak_in_flight_ = std::max(peak_in_flight_, in_flight);
  }
  work_.notify_one();
  return t;
}

void DeviceRing::worker_loop() {
  for (;;) {
    Ticket t = kInvalidTicket;
    Job job;
    {
      UniqueLock lk(mu_);
      while (!stopping_ && queue_.empty()) work_.wait(lk);
      // Drain-on-stop: accepted descriptors still execute; only an empty
      // queue under stopping_ ends the worker.
      if (queue_.empty()) return;
      t = queue_.front().first;
      job = std::move(queue_.front().second);
      queue_.pop_front();
      ++active_;
    }
    space_.notify_one();
    Completion c;
    const auto t0 = ring_now_ns();
    try {
      c.result = device_.run(job);
    } catch (...) {
      c.error = std::current_exception();
    }
    c.result.run_ns = ring_now_ns() - t0;
    {
      LockGuard lk(mu_);
      --active_;
      ++completed_;
      completions_.emplace(t, std::move(c));
    }
    done_.notify_all();
  }
}

JobResult DeviceRing::claim(Completion&& c) {
  if (c.error != nullptr) std::rethrow_exception(c.error);
  return std::move(c.result);
}

bool DeviceRing::try_poll(Ticket t, JobResult* out) {
  Completion c;
  {
    LockGuard lk(mu_);
    if (t == kInvalidTicket || t >= next_ticket_) {
      throw std::invalid_argument("ticket was never issued by this ring");
    }
    auto it = completions_.find(t);
    if (it == completions_.end()) return false;  // still in flight
    c = std::move(it->second);
    completions_.erase(it);
  }
  done_.notify_all();
  JobResult r = claim(std::move(c));
  if (out != nullptr) *out = std::move(r);
  return true;
}

JobResult DeviceRing::wait(Ticket t) {
  Completion c;
  {
    UniqueLock lk(mu_);
    if (t == kInvalidTicket || t >= next_ticket_) {
      throw std::invalid_argument("ticket was never issued by this ring");
    }
    for (;;) {
      auto it = completions_.find(t);
      if (it != completions_.end()) {
        c = std::move(it->second);
        completions_.erase(it);
        break;
      }
      if (drained_) {
        // Workers are joined and every accepted job's completion was
        // posted before the join, so an absent ticket can only mean a
        // second claim of one already taken.
        throw std::invalid_argument("ticket was already claimed");
      }
      done_.wait(lk);
    }
  }
  return claim(std::move(c));
}

void DeviceRing::stop() {
  bool expected = false;
  if (!stop_requested_.compare_exchange_strong(expected, true)) {
    // Another thread is stopping (or has stopped) the ring; wait until
    // the drain finishes so stop() means "stopped" for every caller.
    UniqueLock lk(mu_);
    while (!drained_) done_.wait(lk);
    return;
  }
  {
    LockGuard lk(mu_);
    stopping_ = true;
  }
  space_.notify_all();  // submitters return kInvalidTicket
  work_.notify_all();   // workers drain the queue, then exit
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  {
    LockGuard lk(mu_);
    drained_ = true;
  }
  done_.notify_all();  // claimers of never-completed tickets get thrown
}

RingStats DeviceRing::stats() const {
  LockGuard lk(mu_);
  RingStats s;
  s.submitted = static_cast<std::int64_t>(next_ticket_) - 1;
  s.completed = completed_;
  s.in_flight = static_cast<std::int64_t>(queue_.size()) + active_;
  s.peak_in_flight = peak_in_flight_;
  return s;
}

}  // namespace mt::exec
