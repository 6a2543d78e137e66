#include "simkit/simulation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace moon::sim {
namespace {

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulation, EqualTimestampsAreFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation sim;
  Time fired_at = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulation, SchedulingInThePastThrows) {
  Simulation sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::logic_error);
  EXPECT_THROW(sim.schedule_after(-1, [] {}), std::logic_error);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_at(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 0);  // tombstone executes nothing, clock untouched
}

TEST(Simulation, CancelIsIdempotentAndSafeAfterFire) {
  Simulation sim;
  const EventId id = sim.schedule_at(1, [] {});
  sim.run();
  sim.cancel(id);  // no-op
  sim.cancel(id);
  SUCCEED();
}

TEST(Simulation, IsPendingTracksLifecycle) {
  Simulation sim;
  const EventId id = sim.schedule_at(10, [] {});
  EXPECT_TRUE(sim.is_pending(id));
  sim.run();
  EXPECT_FALSE(sim.is_pending(id));
}

TEST(Simulation, EventMayScheduleMoreEvents) {
  Simulation sim;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 5) sim.schedule_after(10, next);
  };
  sim.schedule_at(0, next);
  sim.run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(Simulation, EventMayCancelAnotherEvent) {
  Simulation sim;
  bool second_fired = false;
  const EventId victim = sim.schedule_at(20, [&] { second_fired = true; });
  sim.schedule_at(10, [&] { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(second_fired);
}

TEST(Simulation, RunUntilStopsAtBoundaryInclusive) {
  Simulation sim;
  std::vector<Time> fired;
  sim.schedule_at(10, [&] { fired.push_back(10); });
  sim.schedule_at(20, [&] { fired.push_back(20); });
  sim.schedule_at(30, [&] { fired.push_back(30); });
  sim.run_until(20);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Simulation, RunUntilAdvancesClockWithNoEvents) {
  Simulation sim;
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulation, RunUntilRechecksHorizonAfterFlush) {
  // The flush before the clock advances past 0 cancels the event due at 10
  // and re-arms it at 20 (as the FlowNetwork's coalesced settle does with
  // its completion event). run_until(15) must stop at 15 without running it.
  Simulation sim;
  bool late_ran = false;
  const EventId early = sim.schedule_at(10, [] {});
  const Simulation::FlushHookId hook = sim.add_flush_hook([&] {
    sim.cancel(early);
    sim.schedule_at(20, [&] { late_ran = true; });
  });
  sim.arm_flush(hook);
  sim.run_until(15);
  EXPECT_EQ(sim.now(), 15);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(late_ran);
  EXPECT_EQ(sim.now(), 20);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, ExecutedEventsCounter) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulation, RngSeedGovernsSequence) {
  Simulation a(42), b(42), c(43);
  EXPECT_EQ(a.rng().next_u64(), b.rng().next_u64());
  EXPECT_NE(Simulation(42).rng().next_u64(), c.rng().next_u64());
}

TEST(Simulation, ZeroDelayEventRunsAtCurrentTime) {
  Simulation sim;
  Time fired_at = -1;
  sim.schedule_at(5, [&] {
    sim.schedule_after(0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 5);
}

TEST(Simulation, TombstoneCompactionBoundsQueueDepth) {
  Simulation sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 10000; ++i) ids.push_back(sim.schedule_at(i, [] {}));
  // Cancel 90%: tombstones dominate, so the heap must have been rebuilt to
  // roughly the live set rather than retaining all 10000 entries.
  for (int i = 0; i < 10000; ++i) {
    if (i % 10 != 0) sim.cancel(ids[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(sim.pending_events(), 1000u);
  EXPECT_LE(sim.queued_entries(), 2001u);
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1000u);
}

TEST(Simulation, CompactionPreservesOrderAndFifoTies) {
  Simulation sim;
  std::vector<int> fired;
  std::vector<EventId> cancels;
  // Interleave survivors with victims, including FIFO ties at equal times.
  for (int i = 0; i < 200; ++i) {
    const Time t = i / 2;  // pairs share a timestamp
    if (i % 2 == 0) {
      sim.schedule_at(t, [&fired, i] { fired.push_back(i); });
    } else {
      cancels.push_back(sim.schedule_at(t, [&fired, i] { fired.push_back(i); }));
    }
  }
  // Force several compactions under kCompactMin-sized churn.
  for (int round = 0; round < 5; ++round) {
    std::vector<EventId> extra;
    for (int i = 0; i < 400; ++i) extra.push_back(sim.schedule_at(1000, [] {}));
    for (EventId id : extra) sim.cancel(id);
  }
  for (EventId id : cancels) sim.cancel(id);
  sim.run();
  ASSERT_EQ(fired.size(), 100u);
  for (std::size_t i = 0; i + 1 < fired.size(); ++i) {
    EXPECT_LT(fired[i], fired[i + 1]);  // time order with FIFO ties intact
  }
}

TEST(Simulation, CancelAllThenReschedule) {
  Simulation sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) ids.push_back(sim.schedule_at(i, [] {}));
  for (EventId id : ids) sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);
  bool ran = false;
  sim.schedule_at(7, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 7);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(seconds(1.5), 1'500'000);
  EXPECT_EQ(minutes(2.0), 120 * kSecond);
  EXPECT_EQ(hours(1.0), 3600 * kSecond);
  EXPECT_DOUBLE_EQ(to_seconds(2'500'000), 2.5);
}

}  // namespace
}  // namespace moon::sim
