#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace bc::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_EQ(e.events_processed(), 0u);
  EXPECT_FALSE(e.step());
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run_until(3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, TiesRunInSchedulingOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(5.0, [&] { order.push_back(1); });
  e.schedule_at(5.0, [&] { order.push_back(2); });
  e.schedule_at(5.0, [&] { order.push_back(3); });
  e.run_until(5.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ScheduleAfterUsesDelay) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(10.0, [&] {
    e.schedule_after(5.0, [&] { fired_at = e.now(); });
  });
  e.run_until(20.0);
  EXPECT_EQ(fired_at, 15.0);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  int count = 0;
  double last_at = -1.0;
  std::function<void()> chain = [&] {
    ++count;
    last_at = e.now();
    if (count < 5) e.schedule_after(1.0, chain);
  };
  e.schedule_at(0.0, chain);
  e.run_until(10.0);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(last_at, 4.0);
}

TEST(Engine, PeriodicFiresRepeatedly) {
  Engine e;
  int count = 0;
  e.schedule_periodic(10.0, 10.0, [&] { ++count; });
  e.run_until(45.0);
  EXPECT_EQ(count, 4);  // t = 10, 20, 30, 40
  EXPECT_EQ(e.now(), 45.0);
}

TEST(Engine, PeriodicKeepsItsSchedulingOrderAtEveryFiring) {
  // The periodic event keeps the id of its schedule_periodic call: at a
  // shared timestamp it runs after the one-shots scheduled before that
  // call and before those scheduled after it, on every firing, including
  // one-shots its own first firing schedules.
  Engine e;
  std::vector<std::string> order;
  auto note = [&](const std::string& tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  e.schedule_at(5.0, note("a5"));
  e.schedule_at(10.0, note("a10"));
  bool first = true;
  e.schedule_periodic(5.0, 5.0, [&] {
    order.push_back("p");
    if (first) e.schedule_at(10.0, note("c10"));
    first = false;
  });
  e.schedule_at(5.0, note("b5"));
  e.schedule_at(10.0, note("b10"));
  e.schedule_at(15.0, note("b15"));
  e.run_until(15.0);
  EXPECT_EQ(order, (std::vector<std::string>{"a5", "p", "b5", "a10", "p",
                                             "b10", "c10", "p", "b15"}));
}

TEST(Engine, CallbackSurvivesSchedulingThatGrowsSlots) {
  // A pointer and an int fit std::function's inline buffer, so these
  // callbacks live inside the engine's own storage. Each schedules
  // thousands of one-shot and periodic events while it runs and must still
  // read its captures afterwards (asan-ubsan reports any use of storage
  // that moved under it).
  constexpr int kBurst = 4096;
  struct World {
    Engine engine;
    std::vector<int> seen;
  } w;
  w.engine.schedule_at(1.0, [world = &w, tag = 11] {
    for (int i = 0; i < kBurst; ++i) {
      world->engine.schedule_at(2.0, [world] { world->seen.push_back(0); });
      world->engine.schedule_periodic(3.0, 1.0, [] {});
    }
    world->seen.push_back(tag);
  });
  w.engine.schedule_periodic(1.0, 10.0, [world = &w, tag = 22] {
    for (int i = 0; i < kBurst; ++i) {
      world->engine.schedule_after(0.5, [] {});
      world->engine.schedule_periodic(world->engine.now() + 2.0, 1.0, [] {});
    }
    world->seen.push_back(tag);
  });
  w.engine.run_until(1.0);
  EXPECT_EQ(w.seen, (std::vector<int>{11, 22}));
  w.engine.run_until(2.0);
  EXPECT_EQ(w.seen.size(), 2u + kBurst);
}

TEST(Engine, RunUntilStopsAtBoundaryInclusive) {
  Engine e;
  std::vector<double> fired;
  e.schedule_at(1.0, [&] { fired.push_back(1.0); });
  e.schedule_at(2.0, [&] { fired.push_back(2.0); });
  e.schedule_at(3.0, [&] { fired.push_back(3.0); });
  e.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(e.now(), 2.0);
  e.run_until(5.0);
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Engine, RunUntilAdvancesClockWithoutEvents) {
  Engine e;
  e.run_until(100.0);
  EXPECT_EQ(e.now(), 100.0);
}

TEST(EngineDeathTest, PastSchedulingRejected) {
  Engine e;
  e.schedule_at(5.0, [] {});
  e.run_until(5.0);
  EXPECT_DEATH(e.schedule_at(1.0, [] {}), "past");
}

TEST(EngineDeathTest, PastPeriodicStartRejected) {
  Engine e;
  e.run_until(5.0);
  EXPECT_DEATH(e.schedule_periodic(1.0, 1.0, [] {}), "past");
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine e;
  double last = -1.0;
  bool monotone = true;
  for (int i = 999; i >= 0; --i) {
    e.schedule_at(static_cast<double>(i % 100), [&, i] {
      if (e.now() < last) monotone = false;
      last = e.now();
      (void)i;
    });
  }
  e.run_until(100.0);
  EXPECT_TRUE(monotone);
  EXPECT_EQ(e.events_processed(), 1000u);
}

}  // namespace
}  // namespace bc::sim
