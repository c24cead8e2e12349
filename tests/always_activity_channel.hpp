// AlwaysActivityChannel: a test channel that answers every query with
// undecoded activity, so no bin ever reads empty and no reply ever decodes.
// It drives the round engine and the counters to their worst case. The
// collision model and the `lossy()` bit are the only settings; two
// instances that differ in `lossy()` alone isolate the engine's soundness
// gate.
#pragma once

#include <span>

#include "group/query_channel.hpp"

namespace tcast {

class AlwaysActivityChannel final : public group::QueryChannel {
 public:
  AlwaysActivityChannel(group::CollisionModel model, bool lossy)
      : QueryChannel(model), lossy_(lossy) {}

  bool lossy() const override { return lossy_; }

 protected:
  group::BinQueryResult do_query_set(std::span<const NodeId>) override {
    return group::BinQueryResult::activity();
  }

 private:
  bool lossy_;
};

}  // namespace tcast
