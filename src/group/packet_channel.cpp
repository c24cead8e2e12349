#include "group/packet_channel.hpp"

#include "common/check.hpp"
#include "rcd/addressing.hpp"

namespace tcast::group {

/// One mote: its radio and the responder of the channel's primitive. It
/// never moves, so the radio's receive handler may point at the responder.
struct PacketChannel::Participant {
  Participant(radio::Channel& channel, NodeId id)
      : radio(channel, id, rcd::participant_addr(id)) {}

  radio::Radio radio;
  std::optional<rcd::BackcastResponder> backcast;
  std::optional<rcd::PollcastResponder> pollcast;
};

namespace {

/// The one predicate every announce carries and every responder serves.
constexpr std::uint8_t kPredicateId = 1;
/// Gap before the first re-poll of a silent bin; it doubles per re-poll.
constexpr SimTime kPollBackoff = 960 * kMicrosecond;

RcdPrimitive resolve_primitive(const PacketChannel::Config& cfg) {
  if (cfg.primitive != RcdPrimitive::kAuto) {
    TCAST_CHECK_MSG(!(cfg.primitive == RcdPrimitive::kBackcast &&
                      cfg.model == CollisionModel::kTwoPlus),
                    "backcast HACKs carry no identity: 2+ needs pollcast");
    return cfg.primitive;
  }
  return cfg.model == CollisionModel::kOnePlus ? RcdPrimitive::kBackcast
                                               : RcdPrimitive::kPollcast;
}

}  // namespace

PacketChannel::PacketChannel(std::vector<bool> positive, Config cfg)
    : QueryChannel(cfg.model), positive_(std::move(positive)), cfg_(cfg) {
  const std::size_t n = positive_.size();
  nodes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) nodes_[i] = static_cast<NodeId>(i);
  sim_ = std::make_unique<sim::Simulator>(cfg_.seed, cfg_.stream);
  channel_ = std::make_unique<radio::Channel>(*sim_, cfg_.channel);
  // Attach order is the channel's draw order: the initiator, participants
  // 0..N-1, then the interferer.
  channel_->reserve(1 + n + (cfg_.interference_duty > 0.0 ? 1 : 0));
  initiator_radio_ = std::make_unique<radio::Radio>(
      *channel_, kNoNode, rcd::kInitiatorAddr);
  initiator_radio_->set_position(cfg_.initiator_pos.first,
                                 cfg_.initiator_pos.second);
  initiator_radio_->power_on();

  const bool use_backcast =
      resolve_primitive(cfg_) == RcdPrimitive::kBackcast;
  if (use_backcast) {
    backcast_ = std::make_unique<rcd::BackcastInitiator>(*initiator_radio_);
    initiator_radio_->set_receive_handler(
        [this](const radio::Frame& f, const radio::RxInfo& info) {
          backcast_->on_frame(f, info);
        });
  } else {
    pollcast_ = std::make_unique<rcd::PollcastInitiator>(*initiator_radio_);
    initiator_radio_->set_receive_handler(
        [this](const radio::Frame& f, const radio::RxInfo& info) {
          pollcast_->on_frame(f, info);
        });
    initiator_radio_->set_activity_handler(
        [this](SimTime s, SimTime e) { pollcast_->on_activity(s, e); });
  }

  participants_ = std::make_unique<std::optional<Participant>[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    Participant& p =
        participants_[i].emplace(*channel_, static_cast<NodeId>(i));
    const auto pos = i < cfg_.participant_positions.size()
                         ? cfg_.participant_positions[i]
                         : cfg_.initiator_pos;
    p.radio.set_position(pos.first, pos.second);
    p.radio.power_on();
    auto eval = [this, i](std::uint8_t pred) {
      return pred == kPredicateId && positive_[i];
    };
    if (use_backcast) {
      auto* responder = &p.backcast.emplace(p.radio, eval);
      p.radio.set_receive_handler(
          [responder](const radio::Frame& f, const radio::RxInfo&) {
            responder->on_frame(f);
          });
    } else {
      auto* responder = &p.pollcast.emplace(p.radio, eval);
      p.radio.set_receive_handler(
          [responder](const radio::Frame& f, const radio::RxInfo&) {
            responder->on_frame(f);
          });
    }
  }

  if (cfg_.interference_duty > 0.0) {
    radio::InterferenceSource::Config icfg;
    icfg.duty = cfg_.interference_duty;
    icfg.position = cfg_.interferer_pos;
    interference_ =
        std::make_unique<radio::InterferenceSource>(*channel_, icfg);
    interference_->start();
  }
}

PacketChannel::~PacketChannel() = default;

std::size_t PacketChannel::max_bins(const Config& cfg) {
  return resolve_primitive(cfg) == RcdPrimitive::kBackcast
             ? rcd::max_bins()
             : std::size_t{rcd::kNotInRound};
}

double PacketChannel::initiator_energy_mj() {
  initiator_radio_->energy().settle(sim_->now());
  return initiator_radio_->energy().energy_mj();
}

radio::Radio& PacketChannel::participant_radio(NodeId id) const {
  const auto i = static_cast<std::size_t>(id);
  TCAST_CHECK(i < participant_count());
  return participants_[i]->radio;
}

double PacketChannel::participant_energy_mj(NodeId id) {
  auto& r = participant_radio(id);
  r.energy().settle(sim_->now());
  return r.energy().energy_mj();
}

std::uint64_t PacketChannel::interference_frames() const {
  return interference_ ? interference_->frames_emitted() : 0;
}

void PacketChannel::set_positive(NodeId id, bool value) {
  positive_.at(static_cast<std::size_t>(id)) = value;
  // Every responder evaluated the predicate when the current assignment was
  // announced; forget that assignment so the next query re-arms them.
  announced_wire_.clear();
  announced_version_ = 0;
}

void PacketChannel::ensure_announced(
    const std::vector<std::uint16_t>& wire) {
  if (wire == announced_wire_) return;
  ++session_;
  bool done = false;
  auto on_done = [&done] { done = true; };
  if (backcast_) {
    backcast_->announce(kPredicateId, session_, wire, on_done);
  } else {
    pollcast_->announce(kPredicateId, session_, wire, on_done);
  }
  sim_->run_until_flag([&done] { return done; });
  TCAST_CHECK_MSG(done, "announce did not complete");
  announced_wire_ = wire;
}

void PacketChannel::do_announce(const BinAssignment& a) {
  // The assignment announced last is not serialised again (every assign_*
  // bumps version()); a new version is, and is re-broadcast only if its
  // wire differs, so an identical re-binning still costs no announcement.
  if (a.version() != 0 && a.version() == announced_version_) return;
  TCAST_CHECK_MSG(a.bin_count() <= max_bins(cfg_),
                  "more bins than the primitive can address");
  a.to_wire_into(positive_.size(), scratch_wire_);
  ensure_announced(scratch_wire_);
  announced_version_ = a.version();
}

void PacketChannel::fail_node(NodeId id) {
  TCAST_CHECK(static_cast<std::size_t>(id) < participant_count());
  pending_failures_.push_back(id);
}

void PacketChannel::restore_node(NodeId id) {
  participant_radio(id).power_on();
  // The mote slept through any announcements; forget the announced wire so
  // the next query re-broadcasts the assignment and the rebooted node
  // re-arms. Announcements are free in the paper's cost model, so query
  // accounting is unchanged.
  announced_wire_.clear();
  announced_version_ = 0;
}

void PacketChannel::suppress_next_query() { suppress_query_ = true; }

bool PacketChannel::node_is_down(NodeId id) const {
  return !participant_radio(id).is_on();
}

BinQueryResult PacketChannel::poll_once(std::uint16_t bin) {
  // One stack frame shared with the poll callback (which only fires inside
  // run_until_flag below, so the frame outlives it). Capturing a single
  // pointer keeps the closure inside std::function's small-buffer storage —
  // no heap allocation per poll.
  struct PollFrame {
    BinQueryResult result;
    bool done = false;
    bool two_plus = false;
  } frame;
  frame.two_plus = model() == CollisionModel::kTwoPlus;
  if (backcast_) {
    backcast_->poll_bin(bin, [f = &frame](rcd::BackcastInitiator::PollResult r) {
      f->result = r.nonempty ? BinQueryResult::activity()
                             : BinQueryResult::empty();
      f->done = true;
    });
  } else {
    pollcast_->poll_bin(bin, [f = &frame](rcd::PollcastInitiator::PollResult r) {
      if (f->two_plus && r.captured) {
        f->result = BinQueryResult::captured_node(*r.captured);
      } else if (r.activity) {
        f->result = BinQueryResult::activity();
      } else {
        f->result = BinQueryResult::empty();
      }
      f->done = true;
    });
  }
  if (!pending_failures_.empty()) {
    // Mid-exchange death (ChannelFaultControl::fail_node): the poll frame
    // just went on the air — poll_bin transmits immediately — so its
    // delivery completes after airtime(poll) and the HACK/reply turnaround
    // fires a full turnaround later. Powering off half a turnaround past
    // delivery means the mote *received* the poll (it armed / evaluated the
    // predicate), then died before its reply could fire; the reply-side
    // guards (auto-HACK and pollcast both check the radio is still on)
    // silence it without disturbing anything else on the air.
    radio::Frame probe;
    probe.type = radio::FrameType::kPoll;
    probe.ack_request = true;
    const SimTime die_at = channel_->airtime(probe) + radio::kTurnaround / 2;
    for (const NodeId id : pending_failures_) {
      auto* radio = &participant_radio(id);
      sim_->schedule_after(die_at, [radio] { radio->power_off(); });
    }
    pending_failures_.clear();
  }
  sim_->run_until_flag([f = &frame] { return f->done; });
  TCAST_CHECK_MSG(frame.done, "poll did not complete");
  return frame.result;
}

BinQueryResult PacketChannel::poll(std::uint16_t bin) {
  BinQueryResult result = poll_once(bin);
  // A silent bin is indistinguishable from a poll frame lost on the air;
  // when re-polling is configured, back off exponentially and try again
  // before reporting silence. Non-empty results are accepted immediately.
  SimTime backoff = kPollBackoff;
  for (std::size_t attempt = 1;
       attempt < cfg_.poll_attempts &&
       result.kind == BinQueryResult::Kind::kEmpty;
       ++attempt) {
    bool waited = false;
    sim_->schedule_after(backoff, [&waited] { waited = true; });
    sim_->run_until_flag([&waited] { return waited; });
    backoff *= 2;
    ++repolls_;
    count_extra_query();
    result = poll_once(bin);
  }
  return result;
}

bool PacketChannel::lossy() const {
  return cfg_.channel.clean_loss > 0.0 ||
         cfg_.channel.hack.miss_probability(1) > 0.0 ||
         cfg_.interference_duty > 0.0;
}

BinQueryResult PacketChannel::do_query_bin(const BinAssignment& a,
                                           std::size_t idx) {
  do_announce(a);
  if (!suppress_query_) return poll(static_cast<std::uint16_t>(idx));
  // Frame-level false-empty: the initiator is deaf for this one query's
  // exchange (re-polls included) — every reply is lost at its antenna.
  suppress_query_ = false;
  initiator_radio_->set_deaf(true);
  const auto r = poll(static_cast<std::uint16_t>(idx));
  initiator_radio_->set_deaf(false);
  return r;
}

BinQueryResult PacketChannel::do_query_set(std::span<const NodeId> nodes) {
  // Ad-hoc set: announce a one-bin assignment containing exactly `nodes`.
  scratch_wire_.assign(positive_.size(), rcd::kNotInRound);
  for (const NodeId id : nodes)
    scratch_wire_.at(static_cast<std::size_t>(id)) = 0;
  ensure_announced(scratch_wire_);
  announced_version_ = 0;  // the announced wire is no assignment's
  if (!suppress_query_) return poll(0);
  suppress_query_ = false;
  initiator_radio_->set_deaf(true);
  const auto r = poll(0);
  initiator_radio_->set_deaf(false);
  return r;
}

}  // namespace tcast::group
