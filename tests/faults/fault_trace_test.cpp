// FaultTrace: spec round-trip, parse rejection, and recording from a
// FaultyChannel run.
#include <gtest/gtest.h>

#include <vector>

#include "faults/fault_trace.hpp"
#include "faults/faulty_channel.hpp"
#include "group/exact_channel.hpp"

namespace tcast::faults {
namespace {

TEST(FaultTrace, SpecRoundTripsExactly) {
  const char* specs[] = {
      "lossy=0",
      "lossy=1",
      "lossy=1,3:fe,10:cr:2,15:rb:2",
      "lossy=0,0:sp,1:dg,2:dg:7,9:fe",
      "lossy=1,100:cr:0,100:rb:0",
  };
  for (const char* spec : specs) {
    const auto trace = FaultTrace::parse(spec);
    ASSERT_TRUE(trace.has_value()) << spec;
    EXPECT_EQ(trace->to_spec(), spec);
    EXPECT_EQ(FaultTrace::parse(trace->to_spec()), trace);
  }
}

TEST(FaultTrace, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",
      "3:fe",             // missing lossy header
      "lossy=2",          // bad lossy value
      "lossy=1,fe",       // missing query index
      "lossy=1,3:xx",     // unknown kind
      "lossy=1,3:cr",     // crash without node
      "lossy=1,3:rb",     // reboot without node
      "lossy=1,3:fe:2",   // false-empty with node
      "lossy=1,3:sp:2",   // spurious with node
      "lossy=1,a:fe",     // non-numeric index
      "lossy=1,3:cr:x",   // non-numeric node
      "lossy=1,3:cr:1:2", // too many fields
      "lossy=0, 3:fe,-1:cr:+2",  // space, negative index, signed node
      "lossy=0, 3:fe",    // leading space
      "lossy=1,-1:fe",    // negative index (was read as 2^64 - 1)
      "lossy=1,3:cr:+2",  // explicit sign
  };
  for (const char* spec : bad)
    EXPECT_FALSE(FaultTrace::parse(spec).has_value()) << spec;
}

TEST(FaultTrace, EventOrderAndNodesSurviveRoundTrip) {
  FaultTrace trace;
  trace.lossy = true;
  trace.events.push_back({FaultEvent::Kind::kCrash, 4, NodeId{3}});
  trace.events.push_back({FaultEvent::Kind::kFalseEmpty, 4, kNoNode});
  trace.events.push_back({FaultEvent::Kind::kReboot, 9, NodeId{3}});
  const auto back = FaultTrace::parse(trace.to_spec());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, trace);
}

TEST(FaultTrace, RecordSnapshotsTheFaultLog) {
  RngStream rng(1, 0);
  group::ExactChannel exact({true, true, true}, rng);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, *FaultPlan::parse("iid=1"));
  faulty.query_set(nodes);
  faulty.query_set(nodes);
  const auto trace = FaultTrace::record(faulty);
  EXPECT_TRUE(trace.lossy);
  EXPECT_EQ(trace.events, faulty.log().events());
  ASSERT_EQ(trace.events.size(), 2u);
  EXPECT_EQ(trace.to_spec(), "lossy=1,0:fe,1:fe");
}

TEST(FaultTrace, RecordOfCleanRunIsEmptyAndNotLossy) {
  RngStream rng(1, 0);
  group::ExactChannel exact({true}, rng);
  const auto nodes = exact.all_nodes();
  FaultyChannel faulty(exact, nodes, FaultPlan{});
  faulty.query_set(nodes);
  const auto trace = FaultTrace::record(faulty);
  EXPECT_FALSE(trace.lossy);
  EXPECT_TRUE(trace.events.empty());
  EXPECT_EQ(trace.to_spec(), "lossy=0");
}

}  // namespace
}  // namespace tcast::faults
