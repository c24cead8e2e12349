#include "rfid/gen2.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace tcast::rfid {

namespace {

constexpr std::size_t kQ0 = 4;  ///< initial Q
constexpr std::size_t kQMax = 15;
constexpr double kQStep = 0.3;  ///< Qfp adjustment per collision/idle
/// Safety valve on total slots.
constexpr std::size_t kMaxSlots = std::size_t{1} << 22;

/// The census; it stops early once `stop_after_reads` tags are read
/// (0 = never).
InventoryResult inventory(std::size_t population, RngStream& rng,
                          std::size_t stop_after_reads) {
  InventoryResult result;
  std::size_t unread = population;
  double qfp = static_cast<double>(kQ0);

  while (unread > 0) {
    ++result.frames;
    const auto q = static_cast<std::size_t>(std::lround(qfp));
    const std::size_t frame_slots = std::size_t{1} << std::min(q, kQMax);
    // Deal the unread tags into slots.
    std::vector<std::size_t> occupancy(frame_slots, 0);
    for (std::size_t tag = 0; tag < unread; ++tag)
      ++occupancy[static_cast<std::size_t>(rng.uniform_below(frame_slots))];

    for (std::size_t slot = 0; slot < frame_slots; ++slot) {
      ++result.slots;
      if (occupancy[slot] == 0) {
        ++result.idles;
        qfp = std::max(0.0, qfp - kQStep);
      } else if (occupancy[slot] == 1) {
        ++result.reads;
        --unread;
        if (stop_after_reads > 0 && result.reads >= stop_after_reads) {
          return result;  // early stop: threshold reached
        }
      } else {
        ++result.collisions;
        qfp = std::min(static_cast<double>(kQMax), qfp + kQStep);
      }
      if (result.slots >= kMaxSlots) return result;
      // Frame restart heuristic: if the frame is badly mis-sized (Qfp moved
      // a full step away from the frame's Q), abandon it early.
      const auto current_q = static_cast<std::size_t>(std::lround(qfp));
      if (current_q != std::min(q, kQMax) && occupancy[slot] != 1) break;
    }
  }
  result.complete = unread == 0;
  return result;
}

}  // namespace

InventoryResult run_inventory(std::size_t population, RngStream& rng) {
  return inventory(population, rng, 0);
}

InventoryThresholdResult inventory_threshold(std::size_t population,
                                             std::size_t t, RngStream& rng) {
  InventoryThresholdResult out;
  if (t == 0) {
    out.decision = true;
    return out;
  }
  const auto census = inventory(population, rng, t);
  out.decision = census.reads >= t;
  out.slots = census.slots;
  out.reads = census.reads;
  return out;
}

}  // namespace tcast::rfid
