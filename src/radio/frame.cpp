#include "radio/frame.hpp"

#include <cstdio>

namespace tcast::radio {

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kData: return "DATA";
    case FrameType::kPredicate: return "PREDICATE";
    case FrameType::kPoll: return "POLL";
    case FrameType::kReply: return "REPLY";
    case FrameType::kHack: return "HACK";
    case FrameType::kAck: return "ACK";
  }
  return "?";
}

std::size_t Frame::payload_bytes() const {
  switch (type) {
    case FrameType::kData:
      return data.size();
    case FrameType::kPredicate:
      // predicate id + session + packed 4-bit bin ids for each node.
      return 1 + 4 + (assignment.size() + 1) / 2;
    case FrameType::kPoll:
      return 4 + 2;  // session + bin index
    case FrameType::kReply:
      return 4;  // session (src carries identity)
    case FrameType::kHack:
    case FrameType::kAck:
      return 0;
  }
  return 0;
}

std::size_t Frame::air_bytes() const {
  constexpr std::size_t kPhyOverhead = 4 + 1 + 1;  // preamble + SFD + LEN
  if (type == FrameType::kHack || type == FrameType::kAck)
    return kPhyOverhead + 5;  // FCF(2) + seq(1) + FCS(2)
  constexpr std::size_t kMhr = 9;  // FCF(2) + seq(1) + dst(2) + src(2) + PAN(2)
  constexpr std::size_t kFcs = 2;
  return kPhyOverhead + kMhr + payload_bytes() + kFcs;
}

std::string Frame::to_string() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s seq=%u src=%04x dst=%04x%s (%zuB)",
                radio::to_string(type), seq, src, dest,
                ack_request ? " AR" : "", air_bytes());
  return buf;
}

Frame make_hack(const Frame& acked) { return make_hack(acked.seq, acked.src); }

Frame make_hack(std::uint8_t seq, ShortAddr dest) {
  Frame hack;
  hack.type = FrameType::kHack;
  hack.seq = seq;
  hack.src = 0;  // 802.15.4 ACKs carry no addresses
  hack.dest = dest;
  return hack;
}

}  // namespace tcast::radio
