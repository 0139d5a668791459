// Output check. A seeded sample of responses (every Nth per kernel) is
// kept during the run and recomputed afterwards, outside the timed
// phases, with the exec entry point the server ran: compared bitwise, and
// against a double-precision dense reference within kRefTolerance.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace servebench {

inline constexpr double kRefTolerance = 1e-4;
inline constexpr std::size_t kMaxBytes = std::size_t{8} << 20;

struct CheckItem {
  Kernel kernel = Kernel::kSpMV;  // the request's kernel
  mt::exec::Dispatch dispatch;    // how the server ran it
  const Operand* op_a = nullptr;
  const Operand* op_b = nullptr;
  const Operand* op_x = nullptr;
  Payload payload;
  mt::runtime::Result result;
};

// Keeps every Nth successful response per kernel, starting at a seeded
// offset, up to a cap per kernel and kMaxBytes of results in all (so the
// check does not itself move the run's memory high-water mark by much).
// Used from one thread.
class Sampler {
 public:
  Sampler(int every, std::uint64_t seed, int cap_per_kernel = 24);
  void offer(const Sent& s, Response&& r);
  std::vector<CheckItem>& items() { return items_; }

 private:
  int every_;
  int cap_;
  std::array<std::int64_t, 6> seen_{};
  std::array<int, 6> kept_{};
  std::array<std::int64_t, 6> offset_{};
  std::size_t bytes_ = 0;
  std::vector<CheckItem> items_;
};

struct CheckReport {
  int checked = 0;
  int bitwise_mismatches = 0;
  int reference_mismatches = 0;
  double worst_reference_error = 0.0;
  std::string first_problem;
  int failures() const { return bitwise_mismatches + reference_mismatches; }
};

CheckReport check_outputs(const std::vector<CheckItem>& items);

}  // namespace servebench
