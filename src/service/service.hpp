// TcastService: the in-process core of tcastd.
//
// Populations are sharded by FNV-1a of their name across S shards. A
// shard executes serially under its drain lock (shard.hpp), which lets its
// population state go without other locking; different shards
// execute in parallel. The daemon (server.hpp) gives every shard its own
// drain thread, woken by submit(), so a long job holds back only its own
// shard. Deterministic tests call pump() by hand under a ManualClock, so
// "the deadline expired while queued" and "the shard died mid-round" are
// scripted events, not races.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "service/clock.hpp"
#include "service/protocol.hpp"
#include "service/shard.hpp"

namespace tcast::service {

struct ServiceConfig {
  std::size_t shards = 4;
  /// Every shard's configuration (each also gets its index).
  ShardConfig shard;
};

class TcastService {
 public:
  using Callback = std::function<void(const Response&)>;

  explicit TcastService(ServiceConfig cfg);
  ~TcastService();

  TcastService(const TcastService&) = delete;
  TcastService& operator=(const TcastService&) = delete;

  /// Routes and (for control verbs) resolves a request. The callback fires
  /// exactly once for every submitted request — possibly synchronously
  /// (ping/stats/rejections), possibly from a later drain.
  void submit(Request req, Callback cb);

  /// Drains every shard one batch, in index order, on the calling thread.
  void pump();

  /// pump() until every queue is empty and no drain thread is mid-job
  /// (flushes killed / shutting-down shards too — nothing is left
  /// hanging). Every callback of a request admitted before the call has
  /// fired when it returns, provided nothing submits meanwhile.
  void drain_all();

  /// One drain thread per shard, for daemon use (Shard::start_drain_thread).
  void start_drain_threads();
  void stop_drain_threads();

  /// Chaos / admin access.
  std::size_t shard_count() const { return shards_.size(); }
  Shard& shard(std::size_t i) { return *shards_[i]; }
  std::size_t shard_of(std::string_view population) const;

  bool shutting_down() const {
    return shutting_down_.load(std::memory_order_acquire);
  }

  std::size_t total_queue_depth() const;
  std::vector<ShardStats> stats() const;
  /// Multi-line human/CLI-readable stats (the `stats` verb payload).
  std::string stats_text() const;

 private:
  ServiceConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> shutting_down_{false};

  mutable std::mutex names_mu_;
  std::set<std::string> population_names_;
};

}  // namespace tcast::service
