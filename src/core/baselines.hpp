// The paper's two feedback-collection baselines (Sec. I & IV-C, Figs. 1
// and 7), as slot-level cost models. Cost unit: one slot ≡ one RCD query,
// the same time axis the paper plots. Each needs the ground-truth positive
// count x to emulate which nodes reply.
//
// CSMA: "In CSMA, we put no restriction on the reply times of the nodes.
// The nodes use carrier sensing and send when they sense the medium as
// idle. In case of a collision they use exponential backoff..." The x
// positive nodes contend with binary exponential backoff; counters freeze
// while the medium is busy (carrier sense); one frame occupies one slot.
// The initiator terminates as soon as it can conclude:
//   * t distinct replies received            → threshold reached;
//   * kCsmaQuiescenceSlots consecutive idle  → assumes contention is over
//     slots                                    and declares the threshold
//                                              unreachable.
// The quiescence rule is exactly why the paper calls CSMA unable to answer
// with certainty: a long backoff run can masquerade as silence. The result
// records whether the decision was actually correct.
//
// Sequential ordering: the initiator broadcasts a reply schedule assigning
// every participant a dedicated slot (the paper's time-synchronised
// variant, which it notes "favors the sequential ordering results"). Slots
// tick one node at a time — a negative node's slot is spent in silence, a
// positive node's slot carries its reply. The initiator stops as soon as
// the answer is decided:
//   * t positive replies seen                          → true
//   * positives_so_far + nodes_left < t                → false
// Worst case n slots; for x ≪ t the cost is ≈ n − t + x (it must exhaust
// almost the whole schedule to rule the threshold out), matching the
// paper's "starts with a large cost overhead (approximately n − x)".
#pragma once

#include <cstddef>

#include "common/rng.hpp"

namespace tcast::core {

inline constexpr std::size_t kCsmaMinCw = 2;   ///< initial contention window
inline constexpr std::size_t kCsmaMaxCw = 64;  ///< BEB cap
/// Idle run after which the initiator assumes everyone has answered.
inline constexpr std::size_t kCsmaQuiescenceSlots = 8;

struct CsmaBaselineOutcome {
  bool decision = false;      ///< initiator's answer to x ≥ t
  bool correct = false;       ///< decision == (x ≥ t)
  std::size_t slots = 0;      ///< elapsed slots until the decision
  std::size_t successes = 0;  ///< distinct replies received
  std::size_t collisions = 0; ///< collision slots observed
};

/// Runs one CSMA feedback-collection session with x positive nodes out of n
/// and threshold t.
CsmaBaselineOutcome run_csma_baseline(std::size_t n, std::size_t x,
                                      std::size_t t, RngStream& rng);

struct SequentialBaselineOutcome {
  bool decision = false;
  std::size_t slots = 0;
  std::size_t positives_seen = 0;
};

/// Runs one sequential-ordering session: x positives among n participants in
/// a uniformly random schedule order, threshold t.
SequentialBaselineOutcome run_sequential_baseline(std::size_t n,
                                                  std::size_t x,
                                                  std::size_t t,
                                                  RngStream& rng);

}  // namespace tcast::core
