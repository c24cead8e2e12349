// RFID inventory management — the paper's suggested second domain (Sec. I,
// II-C, VII): "the tcast operation may also be useful and adopted for RFID
// inventory management systems due to the scalability requirements of those
// systems."
//
// A reader faces a pallet of tags and asks stock-level questions — "are at
// least t tags of SKU s present?" — over the real RFID substrate: a reader
// Select mask addresses a subset of tags (a bin) and one reply slot reveals
// idle / single / collided, i.e. exactly the RCD primitive. The same tcast
// algorithms run unchanged; the conventional alternative is a Gen2
// frame-slotted-ALOHA census.
#include <cstdio>

#include "core/counting.hpp"
#include "core/registry.hpp"
#include "core/two_t_bins.hpp"
#include "rfid/gen2.hpp"
#include "rfid/rcd_channel.hpp"

int main() {
  using namespace tcast;
  constexpr rfid::Sku kSku = 42;
  constexpr std::size_t kThreshold = 50;  // reorder point for the SKU

  std::printf(
      "RFID stock check: 'at least %zu tags of this SKU present?'\n\n",
      kThreshold);
  std::printf("%8s %10s | %16s %16s | %16s %12s\n", "pallet", "matching",
              "tcast(2tbins)", "tcast(prob-abns)", "census(select)",
              "census(all)");

  for (const std::size_t pallet : {256u, 1024u, 4096u}) {
    for (const std::size_t matching : {8u, 200u}) {
      RngStream rng(pallet * 31 + matching);
      const auto field = rfid::TagField::make(pallet, matching, kSku, rng);

      rfid::RcdTagChannel::Config cfg;
      cfg.sku = kSku;
      cfg.model = group::CollisionModel::kOnePlus;
      rfid::RcdTagChannel channel(field, rng, cfg);
      const auto tags = field.all_ids();

      channel.reset_query_counter();
      const auto tcast_out =
          core::run_two_t_bins(channel, tags, kThreshold, rng);

      const auto* prob = core::find_algorithm("prob-abns");
      channel.reset_query_counter();
      const auto prob_out =
          prob->run(channel, tags, kThreshold, rng, core::EngineOptions{});

      const auto census =
          rfid::inventory_threshold(matching, kThreshold, rng);
      const auto full = rfid::run_inventory(pallet, rng);

      std::printf("%8zu %10zu | %13llu %s %13llu %s | %14zu %s %12zu\n",
                  pallet, matching,
                  static_cast<unsigned long long>(tcast_out.queries),
                  tcast_out.decision ? "y" : "n",
                  static_cast<unsigned long long>(prob_out.queries),
                  prob_out.decision ? "y" : "n", census.slots,
                  census.decision ? "y" : "n", full.slots);
    }
  }

  // Bonus: approximate stock level without a census.
  std::printf("\napproximate stock count (no census):\n");
  RngStream rng(99);
  const auto field = rfid::TagField::make(4096, 230, kSku, rng);
  rfid::RcdTagChannel::Config cfg;
  cfg.sku = kSku;
  rfid::RcdTagChannel channel(field, rng, cfg);
  const auto tags = field.all_ids();
  const auto est = core::run_newport_zheng_count(channel, tags, rng);
  std::printf("  true matching tags: 230   estimated: %.0f, claimed within "
              "±%.0f%% with probability %.2f   (%llu slots)\n",
              est.estimate, 100.0 * est.epsilon, est.confidence,
              static_cast<unsigned long long>(est.queries));
  std::printf(
      "\ntcast stays near t*log(N/t) while the census pays per tag it must\n"
      "read — the scalability gap the paper points at for RFID.\n");
  return 0;
}
