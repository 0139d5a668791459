// Load generation. One process, at most two generator threads:
//
//   open loop    a sender thread submits on a seeded Poisson schedule at a
//                fixed rate; the calling thread collects. Latency runs from
//                each request's due time, so a stalled sender still charges
//                the wait to latency, and the sender's lateness is reported.
//   closed loop  the calling thread keeps a fixed number of requests
//                outstanding, replacing each as it completes.
//
// Both collectors sweep every outstanding future rather than waiting on
// them in submission order, so a response that finishes behind a slower,
// earlier one is timed when it finishes (to within kPollNs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check.hpp"
#include "workload.hpp"

namespace servebench {

inline constexpr std::int64_t kPollNs = 25'000;
inline constexpr std::int64_t kLateNs = 1'000'000;
// A submit() that takes longer than this was held by the server's bounded
// queue (backpressure), not by the generator.
inline constexpr std::int64_t kBlockedNs = 200'000;

struct PhaseOut {
  std::vector<Rec> recs;
  Samples lag_ns;             // open loop: send start - due time
  std::int64_t late = 0;      // open loop: sends more than kLateNs late
  std::int64_t late_backpressure = 0;  // ... of which after a full queue
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t completed_in_window = 0;  // closed loop
  std::vector<double> window_rates;      // closed loop: completions/s per
                                         // sub-window of about a second
  double seconds = 0.0;                  // measured window length
  std::string first_error;

  // Folds a later segment of the same phase into this one.
  void append(PhaseOut&& o);
};

PhaseOut open_loop(Target& t, Workload& w, RegistryLog& log, double rps,
                   double seconds, std::uint64_t seed, int phase,
                   Sampler& sampler);

PhaseOut closed_loop(Target& t, Workload& w, RegistryLog& log, int window,
                     double seconds, std::uint64_t seed, int phase,
                     Sampler& sampler);

}  // namespace servebench
