// Address-space conventions shared by the RCD primitives and the packet
// tier's PacketChannel.
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "radio/frame.hpp"

namespace tcast::rcd {

/// Short address 0 is the initiator; participant i gets i + 1.
inline constexpr radio::ShortAddr kInitiatorAddr = 0;

inline radio::ShortAddr participant_addr(NodeId id) {
  return static_cast<radio::ShortAddr>(id + 1);
}

inline NodeId addr_to_participant(radio::ShortAddr a) {
  return static_cast<NodeId>(a - 1);
}

/// Bin value in a Predicate assignment meaning "you are not queried this
/// round" (eliminated nodes).
inline constexpr std::uint16_t kNotInRound = 0xFFFF;

/// First address past the ephemeral block; 0xFFF0..0xFFFE stay reserved
/// below broadcast.
inline constexpr radio::ShortAddr kEphemeralEnd = 0xFFF0;

/// How many bins a backcast session can poll: bin g answers to
/// kEphemeralBase + g, so the block ends at kEphemeralEnd. Past it lie the
/// reserved addresses, then broadcast, which every radio accepts and HACKs,
/// then (16-bit wrap) the participants' own addresses.
inline constexpr std::size_t max_bins() {
  return std::size_t{kEphemeralEnd} - radio::kEphemeralBase;
}

}  // namespace tcast::rcd
