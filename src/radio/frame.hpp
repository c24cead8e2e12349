// 802.15.4-flavoured frame model for the packet-level tier.
//
// We model the fields the tcast protocols actually depend on: type, 16-bit
// short addresses (including the ephemeral backcast address), the
// ACK-request flag, a sequence number, and enough payload structure to give
// frames realistic airtimes. Payload *content* that matters to protocols is
// carried as typed fields rather than serialized bytes — the radio substrate
// is a simulator, not a codec.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tcast::radio {

/// 16-bit short address space (CC2420 hardware address recognition).
using ShortAddr = std::uint16_t;

/// Broadcast address per 802.15.4.
inline constexpr ShortAddr kBroadcastAddr = 0xFFFF;

/// Base of the ephemeral address block backcast programs per bin:
/// bin g answers to kEphemeralBase + g.
inline constexpr ShortAddr kEphemeralBase = 0xE000;

enum class FrameType : std::uint8_t {
  kData,        ///< generic payload (examples, link layer)
  kPredicate,   ///< tcast phase 1: predicate + bin assignment broadcast
  kPoll,        ///< tcast phase 2: poll addressed to an ephemeral address
  kReply,       ///< pollcast vote: positive node's simultaneous reply
  kHack,        ///< hardware acknowledgement (identical per sequence number)
  kAck,         ///< software ACK used by the reliable link layer
};

const char* to_string(FrameType t);

struct Frame {
  FrameType type = FrameType::kData;
  ShortAddr src = 0;
  ShortAddr dest = kBroadcastAddr;
  std::uint8_t seq = 0;
  bool ack_request = false;

  /// Protocol payloads (only the fields the type uses are meaningful).
  std::uint32_t session = 0;       ///< tcast session id
  std::uint16_t bin_index = 0;     ///< kPoll: which bin is being polled
  std::uint8_t predicate_id = 0;   ///< kPredicate: which predicate to test
  std::vector<std::uint16_t> assignment;  ///< kPredicate: node -> bin map
  std::vector<std::uint8_t> data;         ///< kData payload bytes

  /// MAC payload length in bytes (drives airtime).
  std::size_t payload_bytes() const;

  /// Full PPDU length in bytes: preamble(4) + SFD(1) + LEN(1) + MHR(9) +
  /// payload + FCS(2). HACKs are the fixed 5-byte 802.15.4 ACK MPDU + PHY.
  std::size_t air_bytes() const;

  std::string to_string() const;
};

/// Two HACKs superpose non-destructively iff they are bit-identical, i.e.
/// same sequence number (802.15.4 ACKs carry no source address).
inline bool hacks_identical(const Frame& a, const Frame& b) {
  return a.type == FrameType::kHack && b.type == FrameType::kHack &&
         a.seq == b.seq;
}

/// Builds the hardware ACK for a received frame.
Frame make_hack(const Frame& acked);

/// Same, from the only two fields a HACK derives from — lets deferred ACK
/// events capture 3 bytes instead of a whole Frame.
Frame make_hack(std::uint8_t seq, ShortAddr dest);

}  // namespace tcast::radio
