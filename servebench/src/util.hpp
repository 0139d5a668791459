// Small helpers shared by the benchmark program: exact sample quantiles,
// metric collection and JSON emission.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

// Raw samples with exact (nearest-rank) quantiles. Latencies are kept as
// every recorded nanosecond value, never bucketed, so quantiles move by the
// real amount a change moves them.
class Samples {
 public:
  void add(double v) { v_.push_back(v); sorted_ = false; }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  std::size_t count() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  // Nearest-rank quantile: the smallest sample with at least q * n samples
  // at or below it. 0 for an empty set.
  double quantile(double q) {
    if (v_.empty()) return 0.0;
    sort();
    const auto n = static_cast<double>(v_.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, v_.size());
    return v_[rank - 1];
  }
  // Samples strictly above the q-quantile's rank position.
  std::size_t beyond(double q) const {
    const auto n = static_cast<double>(v_.size());
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    return v_.size() - std::min(rank, v_.size());
  }
  // A tail quantile is reported only when at least ten samples lie
  // beyond it; otherwise the sample cannot support it.
  bool supports(double q) const { return beyond(q) >= 10; }

 private:
  void sort() {
    if (!sorted_) std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  std::vector<double> v_;
  bool sorted_ = true;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long long samples = -1;  // sample count behind a quantile; -1 = n/a
};

class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           long long samples = -1) {
    for (auto& m : m_) {
      if (m.name == name) {
        m = {name, value, unit, samples};
        return;
      }
    }
    m_.push_back({name, value, unit, samples});
  }
  const std::vector<Metric>& all() const { return m_; }

 private:
  std::vector<Metric> m_;
};

inline std::string json_escape(const std::string& s) {
  std::string o;
  o.reserve(s.size() + 2);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}

// Full precision, so two runs never print identical times by rounding.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string json_str(const std::string& s) {
  std::string o = json_escape(s);
  o.insert(o.begin(), '"');
  o.push_back('"');
  return o;
}

// {"name": {"value": v, "unit": "u"[, "samples": n]}, ...}
inline std::string metrics_json(const std::vector<Metric>& ms,
                                bool with_samples) {
  std::string o = "{";
  bool first = true;
  for (const auto& m : ms) {
    if (!first) o += ", ";
    first = false;
    o += json_str(m.name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_str(m.unit);
    if (with_samples && m.samples >= 0) {
      o += ", \"samples\": " + std::to_string(m.samples);
    }
    o += "}";
  }
  return o + "}";
}

}  // namespace servebench
