#include "obs/event_sink.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "scenario/engine.h"
#include "scenario/spec.h"
#include "sim/simulator.h"

namespace wsn {
namespace {

TEST(EventKind, NamesAreStable) {
  EXPECT_EQ(to_string(EventKind::kTx), "tx");
  EXPECT_EQ(to_string(EventKind::kRx), "rx");
  EXPECT_EQ(to_string(EventKind::kDuplicate), "dup");
  EXPECT_EQ(to_string(EventKind::kCollision), "coll");
  EXPECT_EQ(to_string(EventKind::kLossFading), "fade");
  EXPECT_EQ(to_string(EventKind::kLossCrash), "crash");
  EXPECT_EQ(to_string(EventKind::kRelayActivation), "relay_on");
  EXPECT_EQ(to_string(EventKind::kPipelineDefer), "defer");
}

TEST(EventSink, RecordsInOrder) {
  EventSink sink(8);
  sink.record({1, EventKind::kTx, 3});
  sink.record({1, EventKind::kRx, 4, 3});
  sink.record({2, EventKind::kCollision, 5, kInvalidNode, 0, 2});
  EXPECT_EQ(sink.total(), 3u);
  EXPECT_EQ(sink.size(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);

  const std::vector<Event> events = sink.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (Event{1, EventKind::kTx, 3}));
  EXPECT_EQ(events[1], (Event{1, EventKind::kRx, 4, 3}));
  EXPECT_EQ(events[2].detail, 2u);
}

TEST(EventSink, RingKeepsTheMostRecentEvents) {
  EventSink sink(4);
  EXPECT_EQ(sink.capacity(), 4u);
  for (Slot s = 1; s <= 10; ++s) sink.record({s, EventKind::kTx, 0});
  EXPECT_EQ(sink.total(), 10u);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.dropped(), 6u);

  const std::vector<Event> events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].slot, 7u + i);  // oldest retained first
  }
}

TEST(EventSink, KindCountsIncludeDroppedEvents) {
  EventSink sink(2);
  for (int i = 0; i < 5; ++i) sink.record({1, EventKind::kCollision, 0});
  sink.record({2, EventKind::kTx, 0});
  EXPECT_EQ(sink.count(EventKind::kCollision), 5u);
  EXPECT_EQ(sink.count(EventKind::kTx), 1u);
  EXPECT_EQ(sink.count(EventKind::kRx), 0u);
  EXPECT_EQ(sink.size(), 2u);  // only the tail is retained...
  EXPECT_EQ(sink.total(), 6u);  // ...but the totals see everything
}

TEST(EventSink, ClearForgetsEventsAndCounts) {
  EventSink sink(4);
  sink.record({1, EventKind::kTx, 0});
  sink.record({1, EventKind::kRx, 1, 0});
  sink.clear();
  EXPECT_EQ(sink.total(), 0u);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.count(EventKind::kTx), 0u);
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(sink.capacity(), 4u);

  sink.record({3, EventKind::kDuplicate, 2, 1});
  EXPECT_EQ(sink.total(), 1u);
  EXPECT_EQ(sink.events().front().slot, 3u);
}

TEST(EventSink, DefaultSinkAllocatesNothingUntilItsFirstRecord) {
  const std::uint64_t rings_before = EventSink::rings_allocated();
  EventSink sink;
  EXPECT_EQ(sink.capacity(), EventSink::kDefaultCapacity);
  EXPECT_EQ(sink.storage(), 0u);
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(EventSink::rings_allocated(), rings_before);

  // The first event buys a small ring, not the whole capacity.
  sink.record({1, EventKind::kTx, 0});
  EXPECT_GT(sink.storage(), 0u);
  EXPECT_LT(sink.storage(), EventSink::kDefaultCapacity / 1024);
  EXPECT_EQ(EventSink::rings_allocated(), rings_before + 1);

  // Growth never allocates past capacity, and later growth is not
  // counted as a new ring.
  for (Slot s = 2; s <= 5000; ++s) sink.record({s, EventKind::kTx, 0});
  EXPECT_GE(sink.storage(), 5000u);
  EXPECT_LT(sink.storage(), 2u * 5000u);
  EXPECT_EQ(EventSink::rings_allocated(), rings_before + 1);
}

TEST(EventSink, CapacityOneKeepsOnlyTheLatestEvent) {
  EventSink sink(1);
  EXPECT_EQ(sink.storage(), 0u);
  sink.record({1, EventKind::kTx, 0});
  EXPECT_EQ(sink.storage(), 1u);
  EXPECT_EQ(sink.dropped(), 0u);
  sink.record({2, EventKind::kRx, 1, 0});
  sink.record({3, EventKind::kDuplicate, 2, 1});
  EXPECT_EQ(sink.storage(), 1u);
  EXPECT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.total(), 3u);
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.count(EventKind::kRx), 1u);
  const std::vector<Event> events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], (Event{3, EventKind::kDuplicate, 2, 1}));
}

TEST(EventSink, WrapsExactlyWhereGrowthStops) {
  // A capacity that is not a power of two: the ring must stop growing at
  // exactly 5 and overwrite from the oldest slot on the sixth event.
  EventSink sink(5);
  for (Slot s = 1; s <= 5; ++s) sink.record({s, EventKind::kTx, 0});
  EXPECT_EQ(sink.size(), 5u);
  EXPECT_EQ(sink.storage(), 5u);
  EXPECT_EQ(sink.dropped(), 0u);
  std::vector<Event> events = sink.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].slot, 1u + i);

  sink.record({6, EventKind::kCollision, 0});
  EXPECT_EQ(sink.size(), 5u);
  EXPECT_EQ(sink.storage(), 5u);
  EXPECT_EQ(sink.total(), 6u);
  EXPECT_EQ(sink.dropped(), 1u);
  EXPECT_EQ(sink.count(EventKind::kTx), 5u);
  EXPECT_EQ(sink.count(EventKind::kCollision), 1u);
  events = sink.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].slot, 2u + i);

  // A full lap more: the oldest slot index wraps back to 0.
  for (Slot s = 7; s <= 11; ++s) sink.record({s, EventKind::kTx, 0});
  EXPECT_EQ(sink.dropped(), 6u);
  events = sink.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].slot, 7u + i);
}

TEST(EventSink, ClearAfterPartialGrowthThenRefillPastCapacity) {
  EventSink sink(6);
  for (Slot s = 1; s <= 4; ++s) sink.record({s, EventKind::kTx, 0});
  const std::size_t grown = sink.storage();
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.total(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.count(EventKind::kTx), 0u);
  EXPECT_EQ(sink.storage(), grown);  // storage is kept for reuse
  EXPECT_TRUE(sink.events().empty());

  for (Slot s = 10; s <= 17; ++s) sink.record({s, EventKind::kRx, 1, 0});
  EXPECT_EQ(sink.size(), 6u);
  EXPECT_EQ(sink.total(), 8u);
  EXPECT_EQ(sink.dropped(), 2u);
  EXPECT_EQ(sink.count(EventKind::kRx), 8u);
  EXPECT_EQ(sink.count(EventKind::kTx), 0u);
  const std::vector<Event> events = sink.events();
  ASSERT_EQ(events.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(events[i].slot, 12u + i);

  // Clear after wrapping restarts the growth phase from slot 0.
  sink.clear();
  sink.record({20, EventKind::kTx, 0});
  sink.record({21, EventKind::kTx, 0});
  const std::vector<Event> refilled = sink.events();
  ASSERT_EQ(refilled.size(), 2u);
  EXPECT_EQ(refilled[0].slot, 20u);
  EXPECT_EQ(refilled[1].slot, 21u);
}

TEST(EventSink, UnobservedScenarioJobAllocatesNoRing) {
  // run_scenario_job builds an event sink on every simulated job; without
  // a trace or an audit nothing records into it, so it must cost nothing.
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(
      "{\"scenarios\": [{\"name\": \"s\", \"family\": \"2D-4\","
      " \"dims\": [6, 4], \"sources\": [0], \"protocols\": [\"paper\"]}]}",
      doc, &error))
      << error;
  ScenarioSpec spec;
  ASSERT_TRUE(parse_scenario_spec(doc, spec, error)) << error;
  JobMatrix matrix;
  ASSERT_TRUE(expand_jobs(std::move(spec), matrix, error)) << error;
  ASSERT_EQ(matrix.jobs.size(), 1u);

  Simulator sim;
  const std::uint64_t before = EventSink::rings_allocated();
  const std::string plain =
      run_scenario_job(matrix, matrix.jobs[0], sim, nullptr, false);
  EXPECT_NE(plain.find("\"status\":\"ok\""), std::string::npos) << plain;
  EXPECT_EQ(EventSink::rings_allocated(), before);

  // The audited job of the same spec does record -- the counter sees it.
  const std::string audited =
      run_scenario_job(matrix, matrix.jobs[0], sim, nullptr, true);
  EXPECT_NE(audited.find("\"audit_violations\":0"), std::string::npos)
      << audited;
  EXPECT_EQ(EventSink::rings_allocated(), before + 1);
}

}  // namespace
}  // namespace wsn
