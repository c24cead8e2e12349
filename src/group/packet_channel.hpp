// PacketChannel: the packet-level simulation tier.
//
// Owns a self-contained radio world — one discrete-event simulator, one
// broadcast channel, an initiator radio and N participant radios with RCD
// responders — and resolves every query by actually running the backcast
// (1+) or pollcast (2+) exchange through the PHY/MAC substrate, including
// the HACK false-negative model and the capture model.
//
// The algorithm layer is synchronous; each query therefore advances the
// embedded simulator until the exchange's window closes (co-simulation).
// Elapsed air time and per-node energy are exposed so benches can report
// real-time/energy costs alongside query counts.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "group/query_channel.hpp"
#include "radio/channel.hpp"
#include "radio/interference.hpp"
#include "radio/radio.hpp"
#include "rcd/backcast.hpp"
#include "rcd/pollcast.hpp"
#include "sim/simulator.hpp"

namespace tcast::group {

/// Which RCD primitive resolves the queries.
enum class RcdPrimitive {
  kAuto,      ///< backcast for 1+, pollcast for 2+ (the paper's choices)
  kBackcast,  ///< HACK-based; 1+ only, immune to interference false positives
  kPollcast,  ///< CCA-based; supports 2+ capture, but foreign energy in the
              ///< vote window reads as activity (Sec. III-B)
};

class PacketChannel final : public QueryChannel, public ChannelFaultControl {
 public:
  struct Config {
    CollisionModel model = CollisionModel::kOnePlus;
    RcdPrimitive primitive = RcdPrimitive::kAuto;
    radio::ChannelConfig channel;  ///< HACK model, capture model, loss
    std::uint64_t seed = 1;
    std::uint64_t stream = 0;
    /// Fraction of air time occupied by foreign cross-traffic (multihop
    /// interference model, Sec. III-B; 32-byte frames). 0 disables it.
    double interference_duty = 0.0;

    /// Loss robustness at the packet tier: a silent poll is re-issued after
    /// a backoff of 960 us that doubles with each re-poll (a lost poll frame
    /// is indistinguishable from an empty bin; re-polling restores
    /// delivery). Every re-poll occupies a slot and is counted as a query —
    /// the paper's cost accounting stays honest. 1 = a single poll (off).
    std::size_t poll_attempts = 1;

    /// Spatial layout (only meaningful when channel.range > 0): initiator
    /// placement, per-participant placements (defaults to the initiator's
    /// spot when shorter than n), and where the foreign transmitter sits.
    std::pair<double, double> initiator_pos = {0.0, 0.0};
    std::vector<std::pair<double, double>> participant_positions;
    std::pair<double, double> interferer_pos = {0.0, 0.0};
  };

  /// `positive[i]` = whether participant i's sensor holds the predicate.
  PacketChannel(std::vector<bool> positive, Config cfg);
  ~PacketChannel() override;

  /// Most bins one announced assignment may hold on a channel built from
  /// `cfg`. Backcast polls bin g at a hardware address of the short slot's
  /// ephemeral block (rcd::max_bins); pollcast carries g in a 16-bit field
  /// where rcd::kNotInRound is taken. Announcing more bins is a checked
  /// error; an engine may use up to n bins on n participants.
  static std::size_t max_bins(const Config& cfg);

  std::size_t participant_count() const { return positive_.size(); }
  /// All participant ids [0, n); aliases a member cached at construction.
  std::span<const NodeId> all_nodes() const { return nodes_; }
  /// Changes participant `id`'s predicate. Responders read it when an
  /// assignment is announced, so the next query re-announces.
  void set_positive(NodeId id, bool value);

  sim::Simulator& simulator() { return *sim_; }
  SimTime elapsed() const { return sim_->now(); }
  double initiator_energy_mj();
  double participant_energy_mj(NodeId id);
  std::uint64_t interference_frames() const;

  /// Backoff re-polls issued for silent bins (each also counted a query).
  std::uint64_t repolls() const { return repolls_; }

  /// The PHY can misreport here whenever lone frames may be dropped
  /// (clean_loss), a lone HACK may fail to decode (non-ideal HACK model),
  /// or foreign energy can land in the vote window (interference).
  bool lossy() const override;

  // --- ChannelFaultControl: frame-level fault determinism ---------------
  //
  // The fault injector (faults/FaultyChannel) uses these to push
  // crash/reboot and loss faults below the query layer. A failed
  // node's radio powers off on the sim clock *mid-exchange*: the power-off
  // lands after the poll frame delivers (the mote hears the poll and arms)
  // but before the reply turnaround elapses, so the death is a genuine
  // frame-level event, not a query-set filter. None of the three hooks
  // consumes channel RNG, so a recorded fault schedule replays
  // bit-identically.
  ChannelFaultControl* fault_control() override { return this; }
  void fail_node(NodeId id) override;
  void restore_node(NodeId id) override;
  void suppress_next_query() override;

  /// Whether participant `id`'s radio is currently powered off (tests).
  bool node_is_down(NodeId id) const;

 protected:
  void do_announce(const BinAssignment& a) override;
  BinQueryResult do_query_bin(const BinAssignment& a,
                              std::size_t idx) override;
  BinQueryResult do_query_set(std::span<const NodeId> nodes) override;

 private:
  struct Participant;

  radio::Radio& participant_radio(NodeId id) const;
  BinQueryResult poll(std::uint16_t bin);
  BinQueryResult poll_once(std::uint16_t bin);
  void ensure_announced(const std::vector<std::uint16_t>& wire);

  std::vector<bool> positive_;
  std::vector<NodeId> nodes_;  ///< cached [0, n) for all_nodes()
  Config cfg_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<radio::Channel> channel_;
  std::unique_ptr<radio::Radio> initiator_radio_;
  std::unique_ptr<rcd::BackcastInitiator> backcast_;
  std::unique_ptr<rcd::PollcastInitiator> pollcast_;
  /// Participant i at index i, built in place in one block. The array's
  /// delete destroys them last-first, the reverse of attach order, and the
  /// interferer (attached after them) is declared after them so it goes
  /// first: every radio detaches from the back of the channel's slots.
  std::unique_ptr<std::optional<Participant>[]> participants_;
  std::unique_ptr<radio::InterferenceSource> interference_;
  std::vector<std::uint16_t> announced_wire_;
  /// BinAssignment::version() whose wire is announced_wire_; 0 = none.
  std::uint64_t announced_version_ = 0;
  /// Per-poll wire scratch: do_query_bin/do_query_set serialise the bin
  /// structure here instead of allocating a fresh vector per query.
  std::vector<std::uint16_t> scratch_wire_;
  std::uint32_t session_ = 0;
  std::uint64_t repolls_ = 0;
  /// Nodes whose mid-exchange power-off is armed for the next poll.
  std::vector<NodeId> pending_failures_;
  /// One-shot initiator deafness for the next query (suppress_next_query).
  bool suppress_query_ = false;
};

}  // namespace tcast::group
