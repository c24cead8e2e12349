// ddmin: Zeller's delta debugging over a sequence.
//
// Shrinks `items` to a 1-minimal subsequence on which `fails` still holds —
// removing any single remaining element makes it pass. Complement chunks
// are dropped at doubling granularity (back off by one after each success,
// whose chunk boundaries shifted); a lone survivor gets one try at the
// empty sequence, so an input that fails with no elements at all shrinks
// to zero. `fails` must be deterministic and is assumed to hold on `items`
// (callers check that first); it is called once per candidate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace tcast {

template <typename T, typename Fails>
std::vector<T> ddmin(std::vector<T> items, const Fails& fails) {
  std::size_t granularity = 2;
  while (items.size() >= 2) {
    const std::size_t chunk = (items.size() + granularity - 1) / granularity;
    bool removed = false;
    for (std::size_t lo = 0; lo < items.size(); lo += chunk) {
      // Candidate: `items` with chunk [lo, lo + chunk) deleted.
      std::vector<T> candidate;
      candidate.reserve(items.size());
      for (std::size_t i = 0; i < items.size(); ++i)
        if (i < lo || i >= lo + chunk) candidate.push_back(items[i]);
      if (fails(candidate)) {
        items = std::move(candidate);
        removed = true;
        break;
      }
    }
    if (removed) {
      granularity = std::max<std::size_t>(2, granularity - 1);
      continue;
    }
    if (granularity >= items.size()) break;  // no single element removable
    granularity = std::min(items.size(), granularity * 2);
  }
  if (items.size() == 1 && fails(std::vector<T>{})) items.clear();
  return items;
}

}  // namespace tcast
