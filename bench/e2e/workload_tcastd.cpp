// tcastd_mix: the service path — decode → admission → queue wait → engine →
// encode → socket — under independent users.
//
// The daemon (tools/tcastd, default config) runs as a child process on a
// Unix socket in the run directory. This process is the load generator: the
// calling thread sends, one receiver thread per connection reads, over two
// pipelined connections. Six populations are chosen by Zipf: four exact
// (N 64–4096) and two packet (N=32, 1+ and 2+). The mix follows the
// threshold-query workloads of Bonifati et al.: 85% exact queries with t
// near x 70% of the time, 10% census queries (approx=require, answered by
// the Newport–Zheng estimator), 5% loads that re-seed a population with the
// same x (rebuilding packet worlds, invalidating plans).
//
// Phases, all open loop (Poisson arrivals, each request timed from when it
// was due to be sent):
//   1. a fixed count at 1,000/s: the digest and latency_p50_ms;
//   2. a fixed count at 2,000/s;
//   3. max_qps: a kProbes-step bisection in log-rate over [2k, 64k]/s. A
//      probe passes when its p99 is at most 5 ms, at most 1% of its
//      requests are refused, every response arrives within 1 s of the last
//      send, and the generator kept up (p99 lag at most 1 ms).
#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "bench/e2e/e2e.hpp"
#include "core/counting.hpp"
#include "core/registry.hpp"
#include "group/exact_channel.hpp"
#include "group/packet_channel.hpp"
#include "perf/latency.hpp"
#include "service/protocol.hpp"

namespace tcast::e2e {
namespace {

using service::Request;
using service::RequestKind;
using service::Response;

constexpr const char* kSocket = "tcastd.sock";
constexpr double kLowRate = 1000.0;    ///< phase 1, arrivals per second
constexpr double kHighRate = 2000.0;   ///< phase 2
constexpr double kProbeLo = 2000.0;    ///< max_qps bisection range
constexpr double kProbeHi = 64000.0;
constexpr int kProbes = 7;
constexpr double kProbeP99LimitMs = 5.0;
constexpr double kProbeRefusedLimit = 0.01;
constexpr double kProbeDrainS = 1.0;
constexpr std::size_t kWarmupWindow = 16;  ///< set-up requests in flight
constexpr std::size_t kConnections = 2;
constexpr std::uint64_t kDeadlineMs = 50;
constexpr double kGeneratorBoundLagMs = 1.0;

/// Record::phase values.
enum Phase : int { kSetupPhase, kLowPhase, kHighPhase, kProbePhase, kTracedPhase };

// ---- The request mix --------------------------------------------------------

struct Population {
  std::string name;
  std::size_t n = 0;
  std::size_t x = 0;
  group::CollisionModel model = group::CollisionModel::kOnePlus;
  service::BackendTier tier = service::BackendTier::kExact;
};

/// Hottest first: Zipf rank r is drawn with weight 1/(r+1). Shapes and
/// x = n/8 are fixed so every seed offers the same mix; the seed picks the
/// positives and the request stream.
std::vector<Population> make_populations() {
  using group::CollisionModel;
  using service::BackendTier;
  struct Shape {
    std::size_t n;
    CollisionModel model;
    BackendTier tier;
  };
  constexpr std::array<Shape, 6> kShapes = {{
      {1024, CollisionModel::kOnePlus, BackendTier::kExact},
      {64, CollisionModel::kOnePlus, BackendTier::kExact},
      {32, CollisionModel::kOnePlus, BackendTier::kPacket},
      {256, CollisionModel::kOnePlus, BackendTier::kExact},
      {32, CollisionModel::kTwoPlus, BackendTier::kPacket},
      {4096, CollisionModel::kOnePlus, BackendTier::kExact},
  }};
  std::vector<Population> pops;
  for (std::size_t i = 0; i < kShapes.size(); ++i) {
    Population p;
    p.name = std::to_string(i);
    p.name.insert(0, 1, 'p');
    p.n = kShapes[i].n;
    p.x = p.n / 8;
    p.model = kShapes[i].model;
    p.tier = kShapes[i].tier;
    pops.push_back(p);
  }
  return pops;
}

enum class Kind : std::uint8_t { kExact, kCensus, kLoad, kStats };

struct Planned {
  Kind kind = Kind::kExact;
  std::uint8_t pop = 0;
  std::size_t t = 0;
  const char* algorithm = "2tbins";
  std::uint64_t load_seed = 0;
};

class MixGenerator {
 public:
  MixGenerator(const std::vector<Population>& pops, std::uint64_t seed,
               std::uint64_t stream)
      : pops_(&pops), rng_(seed, stream) {}

  Planned next() {
    Planned p;
    p.pop = static_cast<std::uint8_t>(zipf());
    const Population& pop = (*pops_)[p.pop];
    const auto u = rng_.uniform_below(100);
    p.kind = u < 85 ? Kind::kExact : u < 95 ? Kind::kCensus : Kind::kLoad;
    if (p.kind == Kind::kLoad) {
      p.load_seed = rng_.bits() | 1;
      return p;
    }
    p.algorithm = rng_.uniform_below(2) == 0 ? "2tbins" : "abns:t";
    // Thresholds cluster at the decision boundary, with a uniform tail.
    if (rng_.uniform_below(10) < 7) {
      const std::size_t lo = pop.x > 3 ? pop.x - 3 : 1;
      p.t = std::min(pop.n, lo + static_cast<std::size_t>(rng_.uniform_below(7)));
    } else {
      p.t = 1 + static_cast<std::size_t>(rng_.uniform_below(pop.n));
    }
    return p;
  }

  /// Exponential inter-arrival gap at `rate` per second.
  double gap_s(double rate) { return -std::log(1.0 - rng_.uniform01()) / rate; }

 private:
  std::size_t zipf() {
    const std::size_t k = pops_->size();
    for (;;) {
      const auto i = static_cast<std::size_t>(rng_.uniform_below(k));
      if (rng_.uniform01() < 1.0 / static_cast<double>(i + 1)) return i;
    }
  }

  const std::vector<Population>* pops_;
  RngStream rng_;
};

Request to_request(const Planned& p, const std::vector<Population>& pops) {
  Request req;
  const Population& pop = pops[p.pop];
  req.population = pop.name;
  switch (p.kind) {
    case Kind::kLoad:
      req.kind = RequestKind::kLoad;
      req.n = pop.n;
      req.x = pop.x;
      req.seed = p.load_seed;
      req.model = pop.model;
      req.tier = pop.tier;
      break;
    case Kind::kStats:
      req.kind = RequestKind::kStats;
      break;
    case Kind::kExact:
    case Kind::kCensus:
      req.kind = RequestKind::kQuery;
      req.t = p.t;
      req.algorithm = p.algorithm;
      req.deadline_ms = kDeadlineMs;
      req.approx = p.kind == Kind::kExact ? service::ApproxMode::kNever
                                          : service::ApproxMode::kRequire;
      break;
  }
  return req;
}

// ---- The daemon and the generator's connections -----------------------------

/// The tcastd child process. Stopped with SIGTERM (a clean shutdown) and
/// reaped; SIGKILL if it does not exit within 5 s.
class Daemon {
 public:
  Daemon(const std::string& binary, std::string* error) {
    pid_ = fork();
    if (pid_ == 0) {
      const int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        dup2(devnull, STDOUT_FILENO);
        dup2(devnull, STDERR_FILENO);
      }
      execl(binary.c_str(), binary.c_str(), "--socket", kSocket,
            static_cast<char*>(nullptr));
      _exit(127);
    }
    if (pid_ < 0) *error = std::string("fork: ") + std::strerror(errno);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool running() const { return pid_ > 0; }

  /// VmHWM of the daemon, MB; 0 when unreadable.
  double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB
    }
    return 0.0;
  }

  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 5000; ++i) {
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      usleep(1000);
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// One request's life, written by the sender before the send and by the
/// receiver when the response arrives.
struct Record {
  Planned planned;
  int phase = 0;
  std::uint64_t due_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint64_t recv_ns = 0;
  bool answered = false;
  bool parsed = false;
  Response resp;
};

class Generator {
 public:
  explicit Generator(const std::vector<Population>& pops) : pops_(&pops) {}
  ~Generator() { close(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool connect(double timeout_s, std::string* error) {
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(timeout_s * 1e9);
    for (std::size_t c = 0; c < kConnections; ++c) {
      int fd = -1;
      while (fd < 0) {
        fd = socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, kSocket, sizeof addr.sun_path - 1);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
          ::close(fd);
          fd = -1;
          if (now_ns() > deadline) {
            *error = std::string("connect: ") + std::strerror(errno);
            return false;
          }
          usleep(2000);
        }
      }
      conns_[c].fd = fd;
      conns_[c].reader = std::thread([this, c] { receive(c); });
    }
    return true;
  }

  void close() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) shutdown(c.fd, SHUT_RDWR);
      if (c.reader.joinable()) c.reader.join();
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
  }

  /// Sends on the connection with the fewest outstanding requests, first
  /// waiting until it has fewer than `window` (0 = no limit).
  Record& send(const Planned& p, int phase, std::uint64_t due_ns,
               std::size_t window) {
    std::size_t c = 0;
    Record* rec = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const auto least = [&] {
        return conns_[0].pending.size() <= conns_[1].pending.size() ? 0u : 1u;
      };
      if (window > 0)
        cv_.wait(lock, [&] { return conns_[least()].pending.size() < window; });
      c = least();
      rec = &records_.emplace_back();
      rec->planned = p;
      rec->phase = phase;
      rec->due_ns = due_ns;
      rec->sent_ns = now_ns();
      conns_[c].pending.push_back(rec);
    }
    frame_.clear();
    service::append_frame(frame_, to_request(p, *pops_).encode());
    std::size_t off = 0;
    while (off < frame_.size()) {
      const ssize_t n = ::send(conns_[c].fd, frame_.data() + off,
                               frame_.size() - off, MSG_NOSIGNAL);
      if (n <= 0) break;  // the receiver sees the closed connection
      off += static_cast<std::size_t>(n);
    }
    return *rec;
  }

  /// Waits until every sent request has its response; false on timeout.
  bool drain(double timeout_s) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), [&] {
      for (const Conn& c : conns_)
        if (!c.pending.empty()) return false;
      return true;
    });
  }

  /// Every request sent so far, in send order. Read only after drain().
  const std::deque<Record>& records() const { return records_; }
  /// Forgets every record after the first `n`; only after drain().
  void truncate(std::size_t n) { records_.resize(n); }
  std::uint64_t protocol_errors() const { return protocol_errors_; }

 private:
  struct Conn {
    int fd = -1;
    std::deque<Record*> pending;  ///< responses arrive in request order
    std::thread reader;
  };

  void receive(std::size_t c) {
    service::FrameReader reader;
    std::array<char, 1 << 16> buf;
    for (;;) {
      const ssize_t n = read(conns_[c].fd, buf.data(), buf.size());
      if (n <= 0) break;
      reader.feed(buf.data(), static_cast<std::size_t>(n));
      while (auto frame = reader.next()) {
        const std::uint64_t now = now_ns();
        auto resp = Response::parse(*frame);
        std::lock_guard<std::mutex> lock(mu_);
        if (conns_[c].pending.empty()) {
          ++protocol_errors_;
          continue;
        }
        Record* rec = conns_[c].pending.front();
        conns_[c].pending.pop_front();
        rec->recv_ns = now;
        rec->answered = true;
        rec->parsed = resp.has_value();
        if (resp) rec->resp = std::move(*resp);
        cv_.notify_all();
      }
      if (reader.error()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++protocol_errors_;
        break;
      }
    }
  }

  const std::vector<Population>* pops_;
  std::mutex mu_;  ///< guards pending, records_, protocol_errors_
  std::condition_variable cv_;
  std::array<Conn, kConnections> conns_;
  std::deque<Record> records_;  ///< push_back keeps references valid
  std::uint64_t protocol_errors_ = 0;
  std::string frame_;  ///< sender-thread scratch
};

/// Waits until `t`: sleeps until kSpinNs before it, then spins. A sleeping
/// thread on an idle vCPU here wakes up to 2 ms late at the 99th
/// percentile, which would be charged to the daemon as latency.
void wait_until_ns(std::uint64_t t) {
  constexpr std::uint64_t kSpinNs = 3000000;
  if (t > now_ns() + kSpinNs) {
    const std::uint64_t wake = t - kSpinNs;
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wake / 1000000000ULL);
    ts.tv_nsec = static_cast<long>(wake % 1000000000ULL);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
    }
  }
  while (now_ns() < t) {
  }
}

/// A running daemon with the populations loaded and the generator warm.
struct Rig {
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Generator> gen;
};

bool start_rig(Rig& rig, const Options& opts,
               const std::vector<Population>& pops, std::size_t warmup,
               std::string* error) {
  // The old daemon unlinks the socket path as it exits, so it must be gone
  // before the new one binds.
  rig.gen.reset();
  rig.daemon.reset();
  rig.daemon = std::make_unique<Daemon>(opts.tcastd_path, error);
  if (!rig.daemon->running()) return false;
  rig.gen = std::make_unique<Generator>(pops);
  if (!rig.gen->connect(5.0, error)) return false;
  for (std::size_t i = 0; i < pops.size(); ++i) {
    Planned load;
    load.kind = Kind::kLoad;
    load.pop = static_cast<std::uint8_t>(i);
    load.load_seed = opts.seed * 1000 + i + 1;
    rig.gen->send(load, kSetupPhase, now_ns(), 0);
  }
  MixGenerator mix(pops, opts.seed, 0xa7a7);
  for (std::size_t i = 0; i < warmup; ++i)
    rig.gen->send(mix.next(), kSetupPhase, now_ns(), kWarmupWindow);
  if (!rig.gen->drain(10.0)) {
    *error = "set-up requests were not all answered";
    return false;
  }
  return true;
}

/// `count` Poisson arrivals at `rate`/s from request stream `stream`; the
/// same requests at the same offsets for a given seed every time.
void open_loop(Generator& gen, const std::vector<Population>& pops,
               std::uint64_t seed, std::uint64_t stream, double rate,
               std::size_t count, int phase) {
  MixGenerator mix(pops, seed, stream);
  std::uint64_t due = now_ns() + 1000000;
  for (std::size_t i = 0; i < count; ++i) {
    due += static_cast<std::uint64_t>(mix.gap_s(rate) * 1e9);
    const Planned p = mix.next();
    wait_until_ns(due);
    gen.send(p, phase, due, 0);
  }
}

/// A refused request got a typed error (overloaded, deadline exceeded);
/// a wrong one got a wrong verdict, a dishonest or unparseable answer, or
/// no answer at all.
enum class Answer : std::uint8_t { kRight, kRefused, kWrong };

Answer judge(const Record& r, const std::vector<Population>& pops) {
  if (!r.answered || !r.parsed) return Answer::kWrong;
  if (!r.resp.ok()) return Answer::kRefused;
  bool right = true;
  if (r.planned.kind == Kind::kExact)
    right = r.resp.mode == service::AnswerMode::kExact &&
            r.resp.decision == (pops[r.planned.pop].x >= r.planned.t);
  if (r.planned.kind == Kind::kCensus)
    right = r.resp.mode == service::AnswerMode::kApproximate &&
            r.resp.epsilon > 0.0 && r.resp.confidence > 0.0;
  return right ? Answer::kRight : Answer::kWrong;
}

/// Sums `key=value` counters of the stats verb over every shard line.
double stat_sum(const std::string& text, const std::string& key) {
  double sum = 0.0;
  std::istringstream lines(text);
  std::string token;
  while (lines >> token) {
    if (token.rfind(key + "=", 0) == 0) sum += std::stod(token.substr(key.size() + 1));
  }
  return sum;
}

// ---- In-process engine replay (traced run) ---------------------------------
//
// The daemon's engine time is not observable from outside, so the traced run
// replays the request stream through the same public calls the shard makes
// (find_algorithm(...)->run, the nz-geom counting estimator) on channels
// built like each population. It leaves out plan-cache warm starts.

struct ReplayPopulation {
  std::vector<NodeId> nodes;
  std::unique_ptr<RngStream> channel_rng;
  std::unique_ptr<RngStream> query_rng;
  std::unique_ptr<group::QueryChannel> channel;
  group::PacketChannel* packet = nullptr;
};

void replay_load(ReplayPopulation& rp, const Population& pop,
                 std::uint64_t seed) {
  rp.nodes.resize(pop.n);
  for (std::size_t i = 0; i < pop.n; ++i) rp.nodes[i] = static_cast<NodeId>(i);
  RngStream truth_rng(seed, 0);
  rp.channel_rng = std::make_unique<RngStream>(seed, 1);
  rp.query_rng = std::make_unique<RngStream>(seed, 2);
  std::vector<bool> positive(pop.n, false);
  for (const NodeId id : truth_rng.sample_subset(pop.n, pop.x))
    positive[static_cast<std::size_t>(id)] = true;
  rp.channel.reset();
  rp.packet = nullptr;
  if (pop.tier == service::BackendTier::kExact) {
    // As the shard builds it: the exact tier takes the default (1+) model.
    rp.channel = std::make_unique<group::ExactChannel>(std::move(positive),
                                                       *rp.channel_rng);
  } else {
    group::PacketChannel::Config cfg;
    cfg.model = pop.model;
    cfg.seed = seed;
    auto packet = std::make_unique<group::PacketChannel>(std::move(positive), cfg);
    rp.packet = packet.get();
    rp.channel = std::move(packet);
  }
}

/// Replays `records` (from the given phase); returns per-record engine ns.
std::vector<std::uint64_t> replay(const std::deque<Record>& records, int phase,
                                  const std::vector<Population>& pops,
                                  std::uint64_t seed, LayerTotals& totals,
                                  double* wall_s) {
  std::vector<ReplayPopulation> rps(pops.size());
  const std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < pops.size(); ++i)
    replay_load(rps[i], pops[i], seed * 1000 + i + 1);
  totals.setup_ns += now_ns() - t0;
  const auto* census = core::find_counting_algorithm("nz-geom");
  std::vector<std::uint64_t> engine_ns;
  for (const Record& r : records) {
    if (r.phase != phase) continue;
    const Population& pop = pops[r.planned.pop];
    ReplayPopulation& rp = rps[r.planned.pop];
    const std::uint64_t s0 = now_ns();
    if (r.planned.kind == Kind::kLoad) {
      replay_load(rp, pop, r.planned.load_seed);
      const std::uint64_t s1 = now_ns();
      totals.setup_ns += s1 - s0;
      totals.session_ns += s1 - s0;
      engine_ns.push_back(0);
      continue;
    }
    if (r.planned.kind != Kind::kExact && r.planned.kind != Kind::kCensus) {
      engine_ns.push_back(0);
      continue;
    }
    TimedChannel timed(*rp.channel);
    timed.bind(&totals, nullptr);
    const SimTime sim0 = rp.packet ? rp.packet->elapsed() : 0;
    const std::uint64_t repolls0 = rp.packet ? rp.packet->repolls() : 0;
    core::EngineOptions eopts;
    const std::uint64_t e0 = now_ns();
    if (r.planned.kind == Kind::kExact) {
      const auto out = core::find_algorithm(r.planned.algorithm)
                           ->run(timed, rp.nodes, r.planned.t, *rp.query_rng, eopts);
      totals.queries += out.queries;
      totals.rounds += out.rounds;
      totals.retries += out.retries;
      if (out.decision != (pop.x >= r.planned.t)) ++totals.wrong;
    } else {
      const auto out = census->run(timed, rp.nodes, *rp.query_rng, core::CountOptions{});
      totals.queries += out.queries;
      totals.rounds += out.rounds;
    }
    const std::uint64_t e1 = now_ns();
    totals.engine_ns += e1 - e0;
    totals.session_ns += e1 - s0;
    ++totals.sessions;
    if (rp.packet) {
      totals.airtime_ms += static_cast<double>(rp.packet->elapsed() - sim0) * 1e-3;
      totals.repolls += rp.packet->repolls() - repolls0;
    }
    engine_ns.push_back(e1 - e0);
  }
  *wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return engine_ns;
}

struct PhaseStats {
  Digest digest;  ///< the request stream: what was asked, and when
  perf::PercentileSummary latency;  ///< from due time; refusals count as 1000 s
  perf::PercentileSummary lag;      ///< sent minus due
  double queries_per_session = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;
  std::uint64_t wrong = 0;

  bool generator_bound() const { return lag.p99 * 1e-6 > kGeneratorBoundLagMs; }
};

PhaseStats summarize_phase(const std::deque<Record>& records, int phase,
                           const std::vector<Population>& pops) {
  PhaseStats s;
  perf::LatencyRecorder latency(records.size()), lag(records.size());
  double queries = 0.0;
  std::uint64_t sessions = 0;
  for (const Record& r : records) {
    if (r.phase != phase) continue;
    ++s.attempted;
    const Answer a = judge(r, pops);
    // A refused or wrong request misses every latency limit.
    latency.record(a == Answer::kRight ? r.recv_ns - r.due_ns : 1000000000000ULL);
    lag.record(r.sent_ns - r.due_ns);
    if (a == Answer::kRefused) ++s.refused;
    if (a == Answer::kWrong) ++s.wrong;
    s.digest.add(static_cast<std::uint64_t>(r.planned.kind));
    s.digest.add(r.planned.pop);
    s.digest.add(r.planned.t);
    s.digest.add(r.planned.load_seed);
    if (a == Answer::kRight && r.planned.kind != Kind::kLoad) {
      queries += static_cast<double>(r.resp.queries);
      ++sessions;
    }
  }
  s.latency = latency.summarize();
  s.lag = lag.summarize();
  s.queries_per_session = sessions ? queries / static_cast<double>(sessions) : 0.0;
  return s;
}

/// Counts a fixed-rate phase's requests and checks its answers.
void report_phase(Result& r, const PhaseStats& s, const char* what) {
  r.attempted += s.attempted;
  r.failed += s.refused + s.wrong;
  r.check(s.wrong == 0, std::string(what) + ": wrong or missing answer");
}

/// Waits up to 10 s for every outstanding response. On a timeout the run
/// must stop: a receiver thread may still write the records it awaits, so
/// they can be neither read nor freed.
bool all_answered(Generator& gen, Result& r, const std::string& what) {
  const bool answered = gen.drain(10.0);
  r.check(answered, what + ": responses missing");
  return answered;
}

/// One max_qps probe at `rate`: whether the daemon sustained it; nullopt
/// when responses went missing.
std::optional<bool> probe(Generator& gen, const std::vector<Population>& pops,
                          std::uint64_t seed, int index, double rate,
                          double seconds, Result& r) {
  const std::size_t before = gen.records().size();
  open_loop(gen, pops, seed, 0x9be7 + static_cast<std::uint64_t>(index), rate,
            static_cast<std::size_t>(rate * seconds), kProbePhase);
  const bool drained = gen.drain(kProbeDrainS);
  if (!drained && !all_answered(gen, r, "probe")) return std::nullopt;
  const PhaseStats s = summarize_phase(gen.records(), kProbePhase, pops);
  gen.truncate(before);
  r.check(s.wrong == 0, "probe: wrong or missing answer");
  r.info["probe_requests"] += static_cast<double>(s.attempted);
  r.info["probe_refused"] += static_cast<double>(s.refused);
  if (s.generator_bound()) r.info["probes_generator_bound"] += 1.0;
  return drained && !s.generator_bound() &&
         s.latency.p99 * 1e-6 <= kProbeP99LimitMs &&
         static_cast<double>(s.refused) <=
             kProbeRefusedLimit * static_cast<double>(s.attempted);
}

/// The highest offered rate the daemon sustains: kProbes bisection steps
/// in log-rate over [kProbeLo, kProbeHi]; kProbeLo if no probe passes.
/// nullopt when responses went missing.
std::optional<double> max_qps(Generator& gen, const std::vector<Population>& pops,
                              std::uint64_t seed, double probe_s, Result& r) {
  double lo = std::log(kProbeLo), hi = std::log(kProbeHi);
  for (int i = 0; i < kProbes; ++i) {
    const double mid = 0.5 * (lo + hi);
    const std::optional<bool> passed =
        probe(gen, pops, seed, i, std::exp(mid), probe_s, r);
    if (!passed) return std::nullopt;
    if (*passed) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::exp(lo);
}

/// Census answers must land within (1±ε)·x at least as often as the claimed
/// confidence, less three binomial standard deviations.
void check_census(Result& r, const std::deque<Record>& records,
                  const std::vector<Population>& pops) {
  double hits = 0.0, n = 0.0, confidence = 0.0;
  for (const Record& rec : records) {
    if (rec.planned.kind != Kind::kCensus || judge(rec, pops) != Answer::kRight)
      continue;
    const double x = static_cast<double>(pops[rec.planned.pop].x);
    n += 1.0;
    confidence += rec.resp.confidence;
    if (std::abs(rec.resp.estimate - x) <= rec.resp.epsilon * x) hits += 1.0;
  }
  if (n == 0.0) return;
  const double c = confidence / n;
  const double floor = c - 3.0 * std::sqrt(c * (1.0 - c) / n);
  r.info["census_answers"] = n;
  r.info["census_in_band_frac"] = hits / n;
  r.check(hits / n >= floor, "census estimates fall outside their claimed band");
}

/// Server, transport, engine and queue-wait times of the traced phase's
/// answered requests, with one span per request.
void service_layer_metrics(Result& r, const std::deque<Record>& records,
                           const std::vector<std::uint64_t>& engine_ns,
                           const std::vector<Population>& pops,
                           SpanBuffer& spans) {
  const std::size_t cap = records.size();
  perf::LatencyRecorder server(cap), transport(cap), engine(cap), queue(cap),
      census(cap), load(cap);
  std::size_t k = 0;
  for (const Record& rec : records) {
    if (rec.phase != kTracedPhase) continue;
    const std::uint64_t engine_rec_ns = engine_ns[k++];
    if (judge(rec, pops) != Answer::kRight) continue;
    spans.record({SpanName::kRequest, spans.next_id(), 0, rec.sent_ns, rec.recv_ns});
    const std::uint64_t rtt_ns = rec.recv_ns - rec.sent_ns;
    const std::uint64_t server_ns =
        std::min<std::uint64_t>(rtt_ns, rec.resp.latency_us * 1000);
    server.record(server_ns);
    transport.record(rtt_ns - server_ns);
    if (rec.planned.kind == Kind::kLoad) {
      load.record(server_ns);
      continue;
    }
    engine.record(engine_rec_ns);
    queue.record(server_ns > engine_rec_ns ? server_ns - engine_rec_ns : 0);
    if (rec.planned.kind == Kind::kCensus) census.record(server_ns);
  }
  const perf::PercentileSummary s = server.summarize();
  r.metrics["service.server_us_p50"] = s.p50 * 1e-3;
  r.metrics["service.server_us_p99"] = s.p99 * 1e-3;
  r.metrics["service.transport_us_p50"] = transport.summarize().p50 * 1e-3;
  r.metrics["core.engine_us_p50"] = engine.summarize().p50 * 1e-3;
  r.metrics["service.queue_wait_us_p50"] = queue.summarize().p50 * 1e-3;
  r.metrics["count.census_server_us_p50"] = census.summarize().p50 * 1e-3;
  r.metrics["service.load_server_us_p50"] = load.summarize().p50 * 1e-3;
}

}  // namespace

Result run_tcastd_mix(const Options& opts) {
  // 10,000 samples per fixed-rate phase leave 10 beyond the p999.
  const std::size_t low_count = opts.smoke ? 300 : 10000;
  const std::size_t high_count = opts.smoke ? 600 : 10000;
  const std::size_t warmup = opts.smoke ? 100 : 1000;
  // The fixed-rate phases take 15 s; the probes share what is left.
  const double probe_s = opts.smoke ? 0.1 : std::max(0.5, (opts.seconds - 15.0) / 8.0);
  Result r;
  const std::vector<Population> pops = make_populations();

  if (!opts.run_dir.empty()) {
    mkdir(opts.run_dir.c_str(), 0700);
    if (chdir(opts.run_dir.c_str()) != 0) {
      r.check(false, "cannot enter run directory " + opts.run_dir);
      return r;
    }
  }

  Rig rig;
  std::string error;
  bool started = true;
  r.metrics["setup_s"] = timed_setups([&] {
    if (started) started = start_rig(rig, opts, pops, warmup, &error);
  });
  if (!started) {
    r.check(false, "daemon set-up failed: " + error);
    return r;
  }
  Generator& gen = *rig.gen;

  open_loop(gen, pops, opts.seed, 0x0be7, kLowRate, low_count, kLowPhase);
  if (!all_answered(gen, r, "1,000/s")) return r;
  const PhaseStats low = summarize_phase(gen.records(), kLowPhase, pops);
  report_phase(r, low, "1,000/s");
  r.digest = low.digest;
  r.metrics["latency_p50_ms"] = low.latency.p50 * 1e-6;
  r.metrics["latency_p99_ms"] = low.latency.p99 * 1e-6;
  r.metrics["queries_per_session"] = low.queries_per_session;
  r.info["latency_p999_ms"] = low.latency.p999 * 1e-6;
  r.info["latency_max_ms"] = static_cast<double>(low.latency.max) * 1e-6;
  r.info["latency_samples"] = static_cast<double>(low.latency.count);

  open_loop(gen, pops, opts.seed, 0x4be7, kHighRate, high_count, kHighPhase);
  if (!all_answered(gen, r, "2,000/s")) return r;
  const PhaseStats high = summarize_phase(gen.records(), kHighPhase, pops);
  report_phase(r, high, "2,000/s");
  r.metrics["service.p50_ms_at_2k"] = high.latency.p50 * 1e-6;
  r.metrics["service.p99_ms_at_2k"] = high.latency.p99 * 1e-6;
  r.info["p999_ms_at_2k"] = high.latency.p999 * 1e-6;
  r.info["samples_at_2k"] = static_cast<double>(high.latency.count);
  r.metrics["service.failed_frac"] =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  r.metrics["bench.generator_lag_ms_p99"] =
      std::max(low.lag.p99, high.lag.p99) * 1e-6;
  r.info["generator_bound"] = low.generator_bound() || high.generator_bound();
  // The daemon's peak memory under the fixed-rate load, before the probes
  // overload it.
  r.metrics["peak_rss_mb"] = rig.daemon->peak_rss_mb();

  const std::optional<double> qps = max_qps(gen, pops, opts.seed, probe_s, r);
  if (!qps) return r;
  r.metrics["sessions_per_s"] = *qps;
  r.info["probe_s"] = probe_s;

  if (opts.trace) {
    // The 1,000/s request stream again, now with spans, then the replay.
    SpanBuffer spans(1 << 18);
    open_loop(gen, pops, opts.seed, 0x0be7, kLowRate, low_count, kTracedPhase);
    if (!all_answered(gen, r, "traced 1,000/s")) return r;
    const PhaseStats traced = summarize_phase(gen.records(), kTracedPhase, pops);
    report_phase(r, traced, "traced 1,000/s");
    r.traced_digest = traced.digest.hex();
    r.check(traced.digest == low.digest,
            "traced request stream differs from the untraced one");

    LayerTotals totals;
    double replay_wall_s = 0.0;
    const std::vector<std::uint64_t> engine_ns = replay(
        gen.records(), kTracedPhase, pops, opts.seed, totals, &replay_wall_s);
    layer_metrics(r, totals, 1, replay_wall_s, 0.0, 0.0);
    r.check(totals.wrong == 0, "engine replay returned a wrong verdict");
    service_layer_metrics(r, gen.records(), engine_ns, pops, spans);
    r.metrics["trace.overhead_frac"] =
        traced.latency.p50 / std::max(low.latency.p50, 1.0) - 1.0;
    r.info["trace.span_every"] = 1;
    r.info["trace.spans_dropped"] = static_cast<double>(spans.dropped());
    if (!opts.spans_path.empty())
      r.check(spans.dump(opts.spans_path), "cannot write " + opts.spans_path);
  }

  // Daemon-side counters over the whole run, then a clean stop.
  Planned stats;
  stats.kind = Kind::kStats;
  const Record& sr = gen.send(stats, kSetupPhase, now_ns(), 0);
  if (!all_answered(gen, r, "stats")) return r;
  r.check(sr.parsed, "stats response unparseable");
  const std::string& text = sr.resp.message;
  if (opts.trace) {
    const double hits = stat_sum(text, "plan_hits");
    const double misses = stat_sum(text, "plan_misses");
    const double admitted = stat_sum(text, "admitted");
    const double rejected = stat_sum(text, "rejected_overload");
    r.metrics["service.plan_hit_frac"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    r.metrics["service.rejected_frac"] =
        admitted + rejected > 0 ? rejected / (admitted + rejected) : 0.0;
    r.metrics["service.shed_frac"] =
        admitted > 0 ? (stat_sum(text, "shed_deadline") +
                        stat_sum(text, "cancelled_deadline")) / admitted
                     : 0.0;
  }
  r.check(gen.protocol_errors() == 0, "response without a request");
  check_census(r, gen.records(), pops);
  rig.gen.reset();
  rig.daemon->stop();
  return r;
}

}  // namespace tcast::e2e
