#include "common/rng.hpp"

namespace tcast {

namespace detail {

constexpr std::array<std::uint64_t, 4098> kReciprocals = [] {
  std::array<std::uint64_t, 4098> m{};
  for (std::uint64_t b = 2; b < m.size(); ++b) m[b] = ~std::uint64_t{0} / b;
  return m;
}();

}  // namespace detail

std::uint64_t trial_stream_id(std::uint64_t experiment_id,
                              std::uint64_t trial) {
  // Mix so that (experiment, trial) pairs land far apart in stream space.
  SplitMix64 sm(experiment_id * 0xd1342543de82ef95ULL + trial);
  return sm.next();
}

}  // namespace tcast
