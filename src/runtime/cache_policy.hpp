// Capacity limits, replacement policy and the one memo cache behind both
// serving-runtime caches (plan cache, conversion cache).
//
// MemoCache is a single-flight get-or-compute map: concurrent misses on
// one key elect one computing thread, the others wait on its shared
// future, and a throwing computation un-publishes the entry so the next
// call recomputes. Each cache takes a CacheOptions budget and sheds
// entries with a cost-aware LRU policy (GreedyDual): an entry's priority
// is
//
//   H(entry) = clock + recompute_cost
//
// refreshed on every hit. Eviction removes the lowest-H entry (ties broken
// by least-recent touch, i.e. exact LRU among equal costs) and advances the
// clock to the victim's H. Recently-touched entries and entries that are
// expensive to recompute — a conversion's measured convert() time, a plan's
// measured SAGE-search time — therefore survive pressure longest, while an
// idle cheap entry ages out as the clock catches up to it. A zero budget is
// the bypass: every call computes and nothing is stored.
//
// EvictionIndex is the pure bookkeeping half (not thread-safe) so the
// policy is unit-testable with injected costs, independent of timing
// noise. Synchronization contract: MemoCache holds its EvictionIndex as a
// field MT_GUARDED_BY its mutex, so clang's thread safety analysis proves
// each access happens under that lock even though EvictionIndex carries no
// annotations of its own.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <limits>
#include <optional>
#include <unordered_map>

#include "common/thread_annotations.hpp"

namespace mt::runtime {

inline constexpr std::size_t kUnboundedCacheLimit =
    std::numeric_limits<std::size_t>::max();

// Capacity budget for one cache. The defaults never evict; a limit of 0
// disables the cache entirely (every lookup recomputes, nothing is stored
// — the bypass degenerate case, which also forfeits single-flight).
struct CacheOptions {
  std::size_t max_entries = kUnboundedCacheLimit;
  std::size_t max_bytes = kUnboundedCacheLimit;

  bool operator==(const CacheOptions&) const = default;

  bool bypass() const { return max_entries == 0 || max_bytes == 0; }
};

// Cost-aware LRU (GreedyDual) victim index over the keys of one cache.
// Tracks only finalized entries — in-flight single-flight computations are
// never victims — and the aggregate byte footprint the limits are enforced
// against.
template <typename K, typename Hash = std::hash<K>>
class EvictionIndex {
 public:
  // Inserts `k`, or re-prices an existing entry (new cost/bytes), at
  // priority clock + cost.
  void touch(const K& k, double cost, std::size_t bytes) {
    auto [it, inserted] = slots_.try_emplace(k);
    if (!inserted) bytes_ -= it->second.bytes;
    it->second = Slot{clock_ + cost, ++seq_, cost, bytes};
    bytes_ += bytes;
  }

  // Refreshes recency/priority of an existing key at its stored cost;
  // no-op if absent (e.g. the entry was evicted under the caller's feet).
  void refresh(const K& k) {
    auto it = slots_.find(k);
    if (it == slots_.end()) return;
    it->second.h = clock_ + it->second.cost;
    it->second.seq = ++seq_;
  }

  void erase(const K& k) {
    auto it = slots_.find(k);
    if (it == slots_.end()) return;
    bytes_ -= it->second.bytes;
    slots_.erase(it);
  }

  // Removes and returns the lowest-(H, recency) key, advancing the clock
  // to its H so survivors age relative to it. Linear scan: these caches
  // hold at most a few hundred entries and evict rarely.
  std::optional<K> pop_victim() {
    if (slots_.empty()) return std::nullopt;
    auto victim = slots_.begin();
    for (auto it = std::next(slots_.begin()); it != slots_.end(); ++it) {
      if (it->second.h < victim->second.h ||
          (it->second.h == victim->second.h &&
           it->second.seq < victim->second.seq)) {
        victim = it;
      }
    }
    if (victim->second.h > clock_) clock_ = victim->second.h;
    K key = victim->first;
    bytes_ -= victim->second.bytes;
    slots_.erase(victim);
    return key;
  }

  bool over(const CacheOptions& limits) const {
    return slots_.size() > limits.max_entries || bytes_ > limits.max_bytes;
  }

  std::size_t entries() const { return slots_.size(); }
  std::size_t bytes() const { return bytes_; }

 private:
  struct Slot {
    double h = 0.0;          // GreedyDual priority: clock-at-touch + cost
    std::uint64_t seq = 0;   // touch order: LRU tie-break among equal H
    double cost = 0.0;       // recompute cost (ns) re-applied on refresh
    std::size_t bytes = 0;
  };

  std::unordered_map<K, Slot, Hash> slots_;
  double clock_ = 0.0;
  std::uint64_t seq_ = 0;
  std::size_t bytes_ = 0;
};

// Single-flight, budgeted memo of V values by key K. Values are handed out
// by copy (the caches store shared_ptrs to immutable objects), so
// eviction only unpublishes an entry: callers already holding its value
// keep it alive.
template <typename K, typename V, typename Hash = std::hash<K>>
class MemoCache {
 public:
  // What one value charges against CacheOptions::max_bytes.
  using BytesOf = std::size_t (*)(const V&);

  MemoCache(CacheOptions limits, BytesOf bytes_of)
      : limits_(limits), bytes_of_(bytes_of) {}

  // A zero budget: every call computes, nothing is stored.
  bool bypass() const { return limits_.bypass(); }

  // Returns the value for `key`, invoking `fn` at most once across all
  // concurrent callers of the same key (bypassed: once per call). `hit`
  // reports whether the entry already existed. `fn` runs outside the
  // cache lock, so it may re-enter the cache's owner freely. A throwing
  // `fn` rethrows to its caller and every waiter, and un-publishes the
  // entry so the next call recomputes.
  template <typename Fn>
  V get_or_compute(const K& key, const Fn& fn, bool* hit) MT_EXCLUDES(mu_) {
    if (bypass()) {
      if (hit != nullptr) *hit = false;
      misses_.fetch_add(1, std::memory_order_relaxed);
      return fn();
    }
    std::shared_future<V> fut;
    std::promise<V> mine;
    bool compute = false;
    {
      LockGuard lk(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        fut = it->second.fut;
        // Refresh recency so hot entries outlive capacity pressure.
        // Entries still being computed are not indexed yet.
        if (it->second.ready) index_.refresh(key);
      } else {
        fut = mine.get_future().share();
        map_.emplace(key, Entry{fut, /*ready=*/false});
        compute = true;
      }
    }
    if (hit != nullptr) *hit = !compute;
    (compute ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
    if (compute) {
      try {
        const auto t0 = std::chrono::steady_clock::now();
        V value = fn();
        const double cost_ns = std::chrono::duration<double, std::nano>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        {
          LockGuard lk(mu_);
          // The entry may have been erased while we computed; only
          // finalize (and index) entries that are still published.
          auto it = map_.find(key);
          if (it != map_.end()) {
            it->second.ready = true;
            index_.touch(key, cost_ns, bytes_of_(value));
            enforce_limits();
          }
        }
        mine.set_value(std::move(value));
      } catch (...) {
        // Un-publish so later calls retry instead of caching the error.
        // (If an erase raced us this may drop a successor's fresh entry;
        // that only costs one recompute, never a wrong result.)
        {
          LockGuard lk(mu_);
          map_.erase(key);
          index_.erase(key);
        }
        mine.set_exception(std::current_exception());
      }
    }
    return fut.get();  // rethrows the computing thread's exception, if any
  }

  // Counts a hit its owner served without a map entry (the conversion
  // cache's identity share).
  void count_hit() { hits_.fetch_add(1, std::memory_order_relaxed); }

  // Drops every entry whose key satisfies `pred`, in-flight ones included
  // (their computing thread then finalizes nothing). `pred` runs under the
  // cache lock, once per entry.
  template <typename Pred>
  void erase_if(const Pred& pred) MT_EXCLUDES(mu_) {
    LockGuard lk(mu_);
    for (auto it = map_.begin(); it != map_.end();) {
      if (pred(it->first)) {
        index_.erase(it->first);
        it = map_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::int64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  // Entries dropped by the capacity policy (not by erase_if — that is
  // hygiene, this is budget pressure).
  std::int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::size_t size() const MT_EXCLUDES(mu_) {
    LockGuard lk(mu_);
    return map_.size();
  }
  // Aggregate bytes_of() of the finalized entries.
  std::size_t bytes() const MT_EXCLUDES(mu_) {
    LockGuard lk(mu_);
    return index_.bytes();
  }

 private:
  // Map payload: the single-flight future plus whether the computing
  // thread has finalized it (only finalized entries are in the victim
  // index, so an in-flight computation is never evicted under its
  // waiters).
  struct Entry {
    std::shared_future<V> fut;
    bool ready = false;
  };

  // Evicts lowest-priority entries until the budget holds.
  void enforce_limits() MT_REQUIRES(mu_) {
    while (index_.over(limits_)) {
      const auto victim = index_.pop_victim();
      if (!victim) break;  // everything left is in-flight; nothing evictable
      map_.erase(*victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const CacheOptions limits_;
  const BytesOf bytes_of_;
  mutable Mutex mu_;
  std::unordered_map<K, Entry, Hash> map_ MT_GUARDED_BY(mu_);
  EvictionIndex<K, Hash> index_ MT_GUARDED_BY(mu_);
  std::atomic<std::int64_t> hits_{0}, misses_{0};
  std::atomic<std::int64_t> evictions_{0};
};

}  // namespace mt::runtime
