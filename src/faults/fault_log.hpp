// FaultLog: the replayable record of every fault a FaultyChannel injected.
//
// Each event carries the fault kind, the (outer) query index at which it
// fired, and the node involved when one is (crash/reboot, downgraded
// capture). Logs compare bit-exactly, which is how the replay guarantee is
// asserted: same FaultPlan + same run ⇒ identical FaultLog ⇒ identical
// outcome, and a FaultyChannel replaying the log as a FaultTrace logs it
// again verbatim. `to_string` renders the log for post-hoc blame
// (tcast_cli --verbose).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tcast::faults {

struct FaultEvent {
  enum class Kind : std::uint8_t {
    kFalseEmpty,       ///< non-empty bin reported as silence
    kCaptureDowngrade, ///< capture decoded as mere activity
    kSpuriousActivity, ///< empty bin reported as activity
    kCrash,            ///< node stopped replying
    kReboot,           ///< crashed node rejoined
  };

  Kind kind = Kind::kFalseEmpty;
  /// Query index (0-based, in the faulty channel's own accounting) at which
  /// the fault fired. Crash/reboot events use the index of the query whose
  /// pre-processing triggered them.
  QueryCount at_query = 0;
  /// The node involved, when the fault names one (crash, reboot, downgraded
  /// capture); kNoNode otherwise.
  NodeId node = kNoNode;

  bool operator==(const FaultEvent&) const = default;
};

const char* to_string(FaultEvent::Kind k);

class FaultLog {
 public:
  void record(FaultEvent::Kind kind, QueryCount at_query,
              NodeId node = kNoNode) {
    events_.push_back({kind, at_query, node});
  }

  const std::vector<FaultEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Events of one kind.
  std::size_t count(FaultEvent::Kind kind) const;

  /// Tags the log with the session/trial it belongs to; rendered as an
  /// `s=N` prefix on every line so multi-trial sweeps (campaigns,
  /// tcast_cli --trials) stay attributable. Not part of equality — two
  /// identical fault schedules from different trials still compare equal.
  void set_session(std::size_t session) { session_ = session; }
  std::optional<std::size_t> session() const { return session_; }

  /// One line per event: "q=12 false-empty", "q=30 crash node=4", or with
  /// a session set, "s=3 q=30 crash node=4".
  std::string to_string() const;

  bool operator==(const FaultLog& other) const {
    return events_ == other.events_;
  }

 private:
  std::vector<FaultEvent> events_;
  std::optional<std::size_t> session_;
};

}  // namespace tcast::faults
