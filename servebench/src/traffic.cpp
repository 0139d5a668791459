#include "traffic.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <condition_variable>
#include <exception>
#include <future>
#include <mutex>
#include <thread>

#include <sys/prctl.h>

namespace servebench {

namespace {

using mt::runtime::now_ns;

struct Pending {
  std::future<Response> fut;
  Sent sent;
};

void finish(Pending& p, std::int64_t t_ready, int phase, Workload& w,
            Sampler& sampler, PhaseOut& out) {
  Rec rec = p.sent.rec;
  rec.ready = t_ready;
  rec.phase = phase;
  try {
    Response r = p.fut.get();
    rec.stats = r.stats;
    rec.ok = true;
    sampler.offer(p.sent, std::move(r));
  } catch (const std::exception& e) {
    ++out.failed;
    if (out.first_error.empty()) out.first_error = e.what();
  }
  w.done(p.sent);
  out.recs.push_back(std::move(rec));
}

// Completes every ready future in `inflight`; returns how many. When none
// is ready, blocks on the oldest for at most kPollNs.
std::size_t sweep(std::vector<Pending>& inflight, int phase, Workload& w,
                  Sampler& sampler, PhaseOut& out,
                  std::int64_t* ready_before, std::int64_t deadline) {
  std::size_t n = 0;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < inflight.size(); ++i) {
    if (inflight[i].fut.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      const auto t = now_ns();
      if (ready_before != nullptr && t <= deadline) ++*ready_before;
      finish(inflight[i], t, phase, w, sampler, out);
      ++n;
    } else {
      if (keep != i) inflight[keep] = std::move(inflight[i]);
      ++keep;
    }
  }
  inflight.resize(keep);
  if (n == 0 && !inflight.empty()) {
    (void)inflight.front().fut.wait_for(std::chrono::nanoseconds(kPollNs));
  }
  return n;
}

std::chrono::steady_clock::time_point at(std::int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

}  // namespace

PhaseOut open_loop(Target& t, Workload& w, RegistryLog& log, double rps,
                   double seconds, std::uint64_t seed, int phase,
                   Sampler& sampler) {
  // Seeded Poisson arrivals over the window.
  std::vector<std::int64_t> sched;
  {
    mt::Prng arrivals(seed ^ 0xA5A5A5A5ULL);
    double at_s = 0.0;
    while (true) {
      at_s += -std::log(1.0 - arrivals.next_double()) / rps;
      if (at_s >= seconds) break;
      sched.push_back(static_cast<std::int64_t>(at_s * 1e9));
    }
  }
  PhaseOut out;
  out.seconds = seconds;
  out.recs.reserve(sched.size());
  const std::int64_t t0 = now_ns() + 2'000'000;

  std::mutex mu;
  std::condition_variable cv;
  std::vector<Pending> handoff;
  bool sender_done = false;
  std::exception_ptr sender_error;
  std::vector<std::int64_t> lags;
  lags.reserve(sched.size());

  std::thread sender([&] {
    // Wake at the due time, not up to the default 50 us timer slack later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    try {
      mt::Prng rng(seed);
      // Whether a submit() blocked on the server's full queue since the
      // sender was last on time: lateness after that is backpressure.
      bool blocked = false;
      for (const auto off : sched) {
        const std::int64_t due = t0 + off;
        if (now_ns() < due) std::this_thread::sleep_until(at(due));
        const std::int64_t start = now_ns();
        lags.push_back(start - due);
        if (start - due <= kLateNs) {
          blocked = false;
        } else if (blocked) {
          ++out.late_backpressure;
        }
        Pending p;
        p.sent = w.next(t, rng, log);
        p.sent.rec.due = due;
        p.sent.rec.submit = now_ns();
        p.fut = t.submit(std::move(p.sent.req));
        if (now_ns() - p.sent.rec.submit > kBlockedNs) blocked = true;
        w.after_submit(p.sent);
        {
          std::lock_guard<std::mutex> lk(mu);
          handoff.push_back(std::move(p));
        }
        cv.notify_one();
      }
    } catch (...) {
      sender_error = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(mu);
    sender_done = true;
    cv.notify_one();
  });

  std::vector<Pending> inflight;
  while (true) {
    bool done = false;
    {
      std::unique_lock<std::mutex> lk(mu);
      if (inflight.empty() && handoff.empty() && !sender_done) {
        cv.wait_for(lk, std::chrono::milliseconds(1));
      }
      for (auto& p : handoff) inflight.push_back(std::move(p));
      handoff.clear();
      done = sender_done;
    }
    if (inflight.empty()) {
      if (done) break;
      continue;
    }
    sweep(inflight, phase, w, sampler, out, nullptr, 0);
  }
  sender.join();
  if (sender_error) std::rethrow_exception(sender_error);

  out.attempted = static_cast<std::int64_t>(out.recs.size());
  for (const auto l : lags) {
    out.lag_ns.add(static_cast<double>(l));
    if (l > kLateNs) ++out.late;
  }
  return out;
}

PhaseOut closed_loop(Target& t, Workload& w, RegistryLog& log, int window,
                     double seconds, std::uint64_t seed, int phase,
                     Sampler& sampler) {
  PhaseOut out;
  mt::Prng rng(seed);
  std::vector<Pending> inflight;
  const auto send = [&] {
    Pending p;
    p.sent = w.next(t, rng, log);
    p.sent.rec.submit = p.sent.rec.due = now_ns();
    p.fut = t.submit(std::move(p.sent.req));
    w.after_submit(p.sent);
    inflight.push_back(std::move(p));
  };
  const std::int64_t t0 = now_ns();
  const auto deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  for (int i = 0; i < window; ++i) send();
  while (now_ns() < deadline) {
    const auto n = sweep(inflight, phase, w, sampler, out,
                         &out.completed_in_window, deadline);
    for (std::size_t i = 0; i < n && now_ns() < deadline; ++i) send();
  }
  while (!inflight.empty()) {
    sweep(inflight, phase, w, sampler, out, nullptr, 0);
  }
  out.seconds = static_cast<double>(deadline - t0) / 1e9;
  out.attempted = static_cast<std::int64_t>(out.recs.size());
  const auto windows =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(out.seconds));
  const double width = static_cast<double>(deadline - t0) /
                       static_cast<double>(windows);
  std::vector<double> counts(static_cast<std::size_t>(windows), 0.0);
  for (const auto& r : out.recs) {
    const auto w =
        static_cast<std::int64_t>(static_cast<double>(r.ready - t0) / width);
    if (r.ok && w >= 0 && w < windows) ++counts[static_cast<std::size_t>(w)];
  }
  for (const double c : counts) out.window_rates.push_back(c * 1e9 / width);
  return out;
}

void PhaseOut::append(PhaseOut&& o) {
  recs.insert(recs.end(), std::make_move_iterator(o.recs.begin()),
              std::make_move_iterator(o.recs.end()));
  lag_ns.append(o.lag_ns);
  late += o.late;
  late_backpressure += o.late_backpressure;
  attempted += o.attempted;
  failed += o.failed;
  completed_in_window += o.completed_in_window;
  window_rates.insert(window_rates.end(), o.window_rates.begin(),
                      o.window_rates.end());
  seconds += o.seconds;
  if (first_error.empty()) first_error = o.first_error;
}

}  // namespace servebench
