#include "service/service.hpp"

#include <sstream>

namespace tcast::service {
namespace {

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

TcastService::TcastService(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.shards == 0) cfg_.shards = 1;
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>(i, cfg_.shard));
}

TcastService::~TcastService() {
  stop_drain_threads();
  for (auto& shard : shards_) shard->shutdown();
  drain_all();
}

std::size_t TcastService::shard_of(std::string_view population) const {
  return static_cast<std::size_t>(fnv1a(population) % shards_.size());
}

void TcastService::submit(Request req, Callback cb) {
  Response resp;
  switch (req.kind) {
    case RequestKind::kPing:
      resp.status = shutting_down() ? StatusCode::kShuttingDown
                                    : StatusCode::kOk;
      resp.message = "pong";
      cb(resp);
      return;

    case RequestKind::kStats:
      resp.status = StatusCode::kOk;
      resp.message = stats_text();
      cb(resp);
      return;

    case RequestKind::kList: {
      std::ostringstream os;
      {
        std::lock_guard<std::mutex> lock(names_mu_);
        for (const auto& name : population_names_) {
          os << name << " (shard " << shard_of(name) << ")\n";
        }
      }
      resp.status = StatusCode::kOk;
      resp.message = os.str();
      cb(resp);
      return;
    }

    case RequestKind::kKillShard:
    case RequestKind::kRebootShard: {
      if (req.shard >= shards_.size()) {
        resp.status = StatusCode::kInvalidArgument;
        resp.message = "shard index out of range";
        cb(resp);
        return;
      }
      if (req.kind == RequestKind::kKillShard) {
        shards_[req.shard]->kill();
        resp.message = "shard killed";
      } else {
        shards_[req.shard]->reboot();
        resp.message = "shard rebooted";
      }
      resp.status = StatusCode::kOk;
      resp.shard = req.shard;
      cb(resp);
      return;
    }

    case RequestKind::kShutdown:
      shutting_down_.store(true, std::memory_order_release);
      for (auto& shard : shards_) shard->shutdown();
      resp.status = StatusCode::kOk;
      resp.message = "shutting down";
      cb(resp);
      return;

    case RequestKind::kLoad:
    case RequestKind::kQuery:
    case RequestKind::kDrop: {
      if (shutting_down()) {
        resp.status = StatusCode::kShuttingDown;
        cb(resp);
        return;
      }
      const std::size_t idx = shard_of(req.population);
      if (req.kind == RequestKind::kQuery) {
        shards_[idx]->submit(std::move(req), std::move(cb));
        return;
      }
      // Track the population namespace on successful load/drop so `list`
      // answers without touching shard-private state.
      const std::string name = req.population;
      const bool is_load = req.kind == RequestKind::kLoad;
      auto wrapped = [this, name, is_load,
                      cb = std::move(cb)](const Response& r) {
        if (r.ok()) {
          std::lock_guard<std::mutex> lock(names_mu_);
          if (is_load) {
            population_names_.insert(name);
          } else {
            population_names_.erase(name);
          }
        }
        cb(r);
      };
      shards_[idx]->submit(std::move(req), std::move(wrapped));
      return;
    }
  }
}

void TcastService::pump() {
  for (auto& shard : shards_) shard->drain();
}

void TcastService::drain_all() {
  while (total_queue_depth() > 0) pump();
  // A drain thread may still be running jobs it dequeued before the queues
  // emptied. drain() waits for the drain lock, so one more pump returns
  // only after those jobs' callbacks have fired.
  pump();
}

void TcastService::start_drain_threads() {
  for (auto& shard : shards_) shard->start_drain_thread();
}

void TcastService::stop_drain_threads() {
  for (auto& shard : shards_) shard->stop_drain_thread();
}

std::size_t TcastService::total_queue_depth() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->queue_depth();
  return total;
}

std::vector<ShardStats> TcastService::stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->stats());
  return out;
}

std::string TcastService::stats_text() const {
  std::ostringstream os;
  for (const auto& s : stats()) {
    os << "shard=" << s.index << " depth=" << s.queue_depth
       << " killed=" << (s.killed ? 1 : 0) << " admitted=" << s.admitted
       << " rejected_overload=" << s.rejected_overload
       << " shed_deadline=" << s.shed_deadline
       << " cancelled_deadline=" << s.cancelled_deadline
       << " cancelled_kill=" << s.cancelled_kill
       << " completed_exact=" << s.completed_exact
       << " completed_approx=" << s.completed_approx
       << " errors=" << s.errors
       << " conformance_violations=" << s.conformance_violations
       << " populations=" << s.populations
       << " ewma_service_us=" << s.ewma_service_us
       << " latency_count=" << s.latency.count << " p50_us=" << s.latency.p50
       << " p99_us=" << s.latency.p99 << " p999_us=" << s.latency.p999
       << "\n";
  }
  return os.str();
}

}  // namespace tcast::service
