// Broadcast channel with receiver-centric collision resolution.
//
// Reception is resolved per receiver over its *busy period*: the maximal
// interval of continuous audible energy at that radio. When a busy period
// drains, the audible frames it accumulated (its *window*) are adjudicated:
//
//   1 frame                → clean delivery (subject to i.i.d. link loss;
//                            a lone HACK passes the HACK-miss model)
//   k identical HACKs      → non-destructive superposition; decoded with
//                            probability 1 − miss(k) (HackReceptionModel)
//   k distinct frames      → destructive collision; CaptureModel may hand
//                            one frame to the receiver (the 2+ model's
//                            capture effect), otherwise only energy is seen
//
// Every busy period also raises an *activity* indication — the CCA/RSSI
// signal pollcast's receiver-side collision detection is built on. A radio
// that transmitted during the period senses energy but decodes nothing
// (half-duplex).
//
// Draw-order contract. Every simulated output rests on the order in which
// receivers consume the simulator's one RNG stream
// (tests/radio/channel_contract_test.cpp pins it):
//   1. receivers drain in attach order;
//   2. a draining receiver in kRx raises activity first;
//   3. unless it transmitted during its period, it then makes exactly one
//      bernoulli draw for a lone frame or k identical HACKs (deaf radios and
//      radios whose address filter rejects the frame draw too), or the
//      capture model's own draws for k distinct frames;
//   4. its delivery happens before the next receiver draws, because
//      handlers may draw from the RNG or transmit synchronously;
//   5. a frame launched mid-drain joins the period of every receiver that
//      has not drained yet.
//
// Bookkeeping. Frames go into one shared log of the busy period in launch
// order; each attached radio owns one slot holding where its period opened
// in that log, how many audible foreign frames are still on the air, and
// whether it transmitted meanwhile. A receiver's window is the log from its
// opening frame to the drain, less frames it cannot hear or sent itself.
// With infinite range a receiver that did not transmit hears every one of
// those frames, so receivers draining together share one window: its
// summary (frame count, identical-HACK flag, loss probability) is computed
// once and reused, and each of them costs one RNG draw, made on a register
// copy of the stream that is synced only around calls out of the channel.
// The log keeps only what open periods still reference, so it stays
// bounded even when the medium never goes idle.
//
// With the default infinite range all radios share every busy period — the
// paper's singlehop model. A finite unit-disk `range` makes audibility,
// CCA and collisions local, which is what produces hidden terminals and
// neighbouring-region interference in multihop topologies (the paper's
// future-work setting). Positions must not change while frames are on the
// air.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "radio/capture.hpp"
#include "radio/frame.hpp"
#include "radio/hack_model.hpp"
#include "sim/simulator.hpp"

namespace tcast::radio {

class Radio;

// PHY timing (802.15.4 @ 250 kbps; 1 symbol = 16 µs).
inline constexpr SimTime kByteTime = 32 * kMicrosecond;  ///< 2 symbols/byte
/// aTurnaroundTime (12 symbols).
inline constexpr SimTime kTurnaround = 192 * kMicrosecond;
inline constexpr SimTime kSifs = 192 * kMicrosecond;

struct ChannelConfig {
  double clean_loss = 0.0;  ///< i.i.d. per-receiver loss for lone frames
  HackReceptionModel hack = HackReceptionModel::ideal();
  std::shared_ptr<CaptureModel> capture;  ///< nullptr = NoCaptureModel
  /// Unit-disk reception range in metres; 0 = infinite (every radio hears
  /// every other — the paper's singlehop model). A finite range makes
  /// reception, CCA and collisions *per-receiver*, which is what produces
  /// hidden terminals and neighbouring-region interference in multihop
  /// topologies (the paper's future-work setting).
  double range = 0.0;
};

/// Reception metadata handed to radios alongside a delivered frame.
struct RxInfo {
  std::size_t superposed = 1;  ///< HACK superposition multiplicity
  std::size_t contenders = 1;  ///< overlapping frames in the cluster
  bool captured = false;       ///< true when won via capture effect
  SimTime start = 0;           ///< cluster start
  SimTime end = 0;             ///< cluster end (delivery time)
};

class Channel {
 public:
  Channel(sim::Simulator& simulator, ChannelConfig cfg);

  sim::Simulator& simulator() { return *sim_; }

  /// Sizes the slot array for `radios` attached radios, so a world that
  /// knows its size attaches them without regrowing it.
  void reserve(std::size_t radios) { slots_.reserve(radios); }

  /// Starts a transmission; the frame occupies the medium for airtime(f).
  /// Called by Radio::transmit.
  void begin_transmission(Radio& sender, Frame f);

  /// True while any transmission is on the air anywhere (global view).
  bool busy() const { return active_ > 0; }

  /// True while a transmission audible at `listener` is on the air — the
  /// CCA signal a real radio samples. Equals busy() for infinite range.
  bool busy_near(const Radio& listener) const;

  /// Unit-disk audibility between two radios.
  bool in_range(const Radio& a, const Radio& b) const;

  SimTime airtime(const Frame& f) const {
    return static_cast<SimTime>(f.air_bytes()) * kByteTime;
  }

  /// Lifetime count of global busy periods (diagnostics / tests).
  std::uint64_t clusters_resolved() const { return clusters_resolved_; }

 private:
  struct Tx {
    Radio* sender = nullptr;
    Frame frame;
    double x = 0.0;  ///< transmit position, latched when the frame starts
    double y = 0.0;
    std::uint32_t refs = 0;  ///< pending end event + the log entry
  };

  /// One attached radio and its busy period, open while on_air > 0.
  struct Slot {
    Radio* radio = nullptr;
    SimTime start = 0;         ///< when the period began
    std::uint64_t first = 0;   ///< log position of the frame that opened it
    std::uint32_t on_air = 0;  ///< audible foreign frames still transmitting
    bool sent_own = false;     ///< this radio transmitted during the period
  };

  /// What a drained window holds, as far as reception is concerned.
  struct Window {
    std::uint64_t first = 0;        ///< log positions [first, end)
    std::uint64_t end = 0;
    std::size_t k = 0;              ///< frames the receiver heard
    bool identical_hacks = false;   ///< all k are one HACK, superposed
    double loss = 0.0;              ///< P(lost) unless a capture decides
    const Frame* front = nullptr;   ///< the first frame heard
  };

  Tx* acquire_tx();
  void release_tx(Tx* tx);
  bool tx_audible(const Tx& tx, const Radio& r) const;
  void on_transmission_end(Tx* tx);
  /// Summarises the window of log positions [first, end) as `r` heard it
  /// into cached_.
  const Window& summarize(const Radio& r, std::uint64_t first,
                          std::uint64_t end);
  /// The `index`-th frame of that window (capture's pick).
  const Frame& window_frame(const Radio& r, std::uint64_t first,
                            std::size_t index) const;
  /// Drops log entries no open period can reference any more.
  void trim_log();

  sim::Simulator* sim_;
  ChannelConfig cfg_;
  std::vector<Slot> slots_;  ///< one per attached radio, in attach order
  std::size_t open_ = 0;     ///< slots with an open busy period
  std::size_t active_ = 0;   ///< transmissions on the air anywhere
  std::uint64_t clusters_resolved_ = 0;

  // The busy-period log: log_[i] is at log position log_base_ + i.
  // Positions are never reused, so (first, end) names a window for good.
  static constexpr std::size_t kMinTrim = 64;
  std::vector<Tx*> log_;
  std::uint64_t log_base_ = 0;
  std::size_t trim_at_ = kMinTrim;  ///< log size that triggers a partial trim
  Window cached_;  ///< the last window summarised

  // Transmission pool: Tx objects (and their frames' payload capacity) are
  // recycled through a free list instead of allocated per transmission, and
  // the log keeps its capacity. Together with the event queue's slot pool
  // this keeps the steady-state poll exchange heap-silent — audited by
  // tests/perf/alloc_audit_test.cpp.
  std::vector<std::unique_ptr<Tx>> tx_pool_;
  std::vector<Tx*> tx_free_;

  std::vector<Slot>::const_iterator slot_of(const Radio& r) const;

  // A Radio attaches itself in its constructor and detaches in its
  // destructor, so a radio is attached at most once. Worlds tear down
  // last-attached-first, so detach searches from the back.
  friend class Radio;
  void attach(Radio& r);
  void detach(Radio& r);
};

}  // namespace tcast::radio
