// Frame-slotted ALOHA inventory — the conventional RFID census baseline
// (EPCglobal Gen2-style Q protocol).
//
// The reader opens a frame of 2^Q slots; every unread matching tag picks a
// uniform slot; singleton slots read (and silence) one tag, collision slots
// read nothing. Between frames Q adapts with the standard Q-algorithm
// (Schoute-style: raise Qfp on collisions, lower it on idles). The census
// terminates when a frame completes with no unread tags left, or — for the
// threshold use case — as soon as t tags have been read.
//
// Cost unit: one slot ≡ one tcast query slot, so census and tcast costs
// plot on one axis.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "rfid/tag.hpp"

namespace tcast::rfid {

struct InventoryResult {
  std::size_t reads = 0;       ///< tags successfully inventoried
  std::size_t slots = 0;       ///< total slots consumed
  std::size_t collisions = 0;
  std::size_t idles = 0;
  std::size_t frames = 0;
  bool complete = false;       ///< census finished (vs early stop / cap)
};

/// Inventories `population` responding tags.
InventoryResult run_inventory(std::size_t population, RngStream& rng);

/// Threshold decision via early-stopped census: read until `t` matching
/// tags are seen (⇒ true) or the census completes with fewer (⇒ false).
struct InventoryThresholdResult {
  bool decision = false;
  std::size_t slots = 0;
  std::size_t reads = 0;
};

InventoryThresholdResult inventory_threshold(std::size_t population,
                                             std::size_t t, RngStream& rng);

}  // namespace tcast::rfid
