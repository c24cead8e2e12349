// Per-shard plan cache, keyed by (population size, threshold, algorithm).
//
// Shards see the same few (n, t, algo) triples over and over under the
// skewed workloads the paper's evaluation uses, so each shard keeps a small
// LRU of plans. For the ABNS family the plan carries the positive-count
// estimate p the previous run converged to: reusing it as the next run's
// p0 is exactly the paper's "good initial estimate" lever (Fig. 5),
// applied across queries instead of within one. Other algorithms store an
// empty plan, so hits and misses count every exact query.
//
// Shards are single-threaded over their populations, so the cache needs no
// locking. Hit/miss counters surface in the `stats` response.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

namespace tcast::service {

struct PlanKey {
  std::size_t n = 0;
  std::size_t t = 0;
  std::string algorithm;

  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const {
    // FNV-1a over the three fields.
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    mix(k.n);
    mix(k.t);
    for (const char c : k.algorithm) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

struct PlanEntry {
  /// ABNS family only: the converged estimate p to warm-start p0 with.
  /// 0 means "no estimate" (non-adaptive algorithm or never converged).
  double p_estimate = 0.0;
};

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached plan and promotes it to most-recently-used.
  /// Counts a hit or a miss.
  std::optional<PlanEntry> lookup(const PlanKey& key);

  /// Inserts or refreshes a plan, evicting the least-recently-used entry
  /// when over capacity. Not counted as a hit or miss.
  void insert(const PlanKey& key, PlanEntry entry);

  std::size_t size() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  using LruList = std::list<std::pair<PlanKey, PlanEntry>>;

  std::size_t capacity_;
  LruList lru_;  // front = most recent
  std::unordered_map<PlanKey, LruList::iterator, PlanKeyHash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace tcast::service
