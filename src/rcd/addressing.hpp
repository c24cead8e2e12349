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

/// Ephemeral block for a second, concurrent backcast session, mapped onto
/// the radio's extended-address recognition slot (the CC2420's two hardware
/// addresses "enable two concurrent backcasts at most", Sec. IV-D.1).
inline constexpr radio::ShortAddr kEphemeralBaseExt = 0xD000;

/// Short address reserved for a second initiator running the concurrent
/// session (participants are 1..N, the primary initiator is 0).
inline constexpr radio::ShortAddr kSecondInitiatorAddr = 0xFFF0;

/// Which hardware recognition slot a backcast session rides on.
enum class AddressSlot : std::uint8_t {
  kShort,     ///< the 16-bit alternate slot (kEphemeralBase block)
  kExtended,  ///< the 64-bit slot (kEphemeralBaseExt block)
};

inline radio::ShortAddr ephemeral_base(AddressSlot slot) {
  return slot == AddressSlot::kShort ? radio::kEphemeralBase
                                     : kEphemeralBaseExt;
}

/// How many bins a backcast session on `slot` can poll: bin g answers to
/// ephemeral_base(slot) + g, so the block ends at the next reserved address
/// — kSecondInitiatorAddr (below broadcast) for the short slot, the short
/// block's base for the extended one. A bin past it would land on another
/// radio's address, and that radio HACKs the poll.
inline std::size_t max_bins(AddressSlot slot) {
  return slot == AddressSlot::kShort
             ? std::size_t{kSecondInitiatorAddr} - radio::kEphemeralBase
             : std::size_t{radio::kEphemeralBase} - kEphemeralBaseExt;
}

}  // namespace tcast::rcd
