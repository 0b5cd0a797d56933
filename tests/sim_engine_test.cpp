// sim::Engine: one job per reachability class, conservative sub-windows
// inside each class. These tests drive the engine directly (no network) to
// pin the synchronization contract: sub-window outbox injection in fixed
// order, exact clock advancement, and execution order that is independent of
// the thread count and of how sites are grouped into classes.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

namespace plwg::sim {
namespace {

TEST(EngineTest, SingleSiteRunsLikeASimulator) {
  Engine engine(1);
  std::vector<int> order;
  engine.site(0).schedule_at(30, [&] { order.push_back(3); });
  engine.site(0).schedule_at(10, [&] { order.push_back(1); });
  engine.site(0).schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run_until(25), 2u);
  EXPECT_EQ(engine.now(), 25);
  EXPECT_EQ(engine.site(0).now(), 25);
  EXPECT_EQ(engine.run_until(100), 1u);
  EXPECT_EQ((std::vector<int>{1, 2, 3}), order);
  EXPECT_EQ(engine.now(), 100);
}

TEST(EngineTest, RunForAdvancesEverySiteExactly) {
  Engine engine(3);
  engine.set_lookahead(100);
  engine.run_for(12'345);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(engine.site(s).now(), 12'345);
  }
  EXPECT_EQ(engine.now(), 12'345);
}

TEST(EngineTest, ThreadCountIsClampedToSites) {
  Engine engine(2, 8);
  EXPECT_EQ(engine.threads(), 2u);
}

TEST(EngineTest, CrossSitePostArrivesAtItsTimestamp) {
  Engine engine(2);
  engine.set_lookahead(50);
  Time fired_at = -1;
  // Site 0 posts into site 1 at +120us (>= lookahead, as the network
  // guarantees by construction).
  engine.site(0).schedule_at(10, [&] {
    engine.post(1, 130, [&] { fired_at = engine.site(1).now(); });
  });
  engine.run_until(1'000);
  EXPECT_EQ(fired_at, 130);
}

TEST(EngineTest, IdlePostSchedulesDirectly) {
  Engine engine(2);
  engine.set_lookahead(50);
  bool fired = false;
  engine.post(1, 5, [&] { fired = true; });  // driver thread, idle
  engine.run_until(10);
  EXPECT_TRUE(fired);
}

TEST(EngineTest, BarrierHooksFireOncePerRun) {
  Engine engine(2);
  engine.set_lookahead(100);
  int barriers = 0;
  engine.add_barrier_hook([&] { ++barriers; });
  engine.run_until(1'000);  // 10 sub-windows, one end-of-run drain
  EXPECT_EQ(barriers, 1);
  engine.run_until(1'500);
  EXPECT_EQ(barriers, 2);
}

/// The determinism contract at engine level: a class-local event program —
/// sites {0,1} and {2,3} only post to their pair neighbor — produces the
/// same observable order at 1 thread and at many, whether the engine runs
/// all four sites as one class or the pairs as two classes, and whatever
/// class changes happen between run_until calls. `classes_at(k)` gives the
/// site classes for the k-th of `slices` equal run_until slices.
std::string run_program(std::size_t threads, std::size_t slices,
                        const std::function<std::vector<int>(std::size_t)>&
                            classes_at) {
  Engine engine(4, threads);
  engine.set_lookahead(100);
  std::string trace;  // appended at the end-of-run drain (single-threaded)
  std::vector<std::vector<std::pair<Time, int>>> site_events(4);
  // Each site runs a periodic local event and occasionally posts to its
  // pair neighbor; every event records (time, site) into its site's log.
  for (std::size_t s = 0; s < 4; ++s) {
    for (Time t = 10 + static_cast<Time>(s); t < 2'000; t += 37) {
      engine.site(s).schedule_at(t, [&, s, t] {
        site_events[s].emplace_back(t, static_cast<int>(s));
        if (t % 5 == 0) {
          const std::size_t dst = s ^ 1;
          engine.post(dst, t + 150, [&, dst, t] {
            site_events[dst].emplace_back(t + 150, 100 + static_cast<int>(dst));
          });
        }
      });
    }
  }
  engine.add_barrier_hook([&] {
    for (std::size_t s = 0; s < 4; ++s) {
      for (const auto& [t, tag] : site_events[s]) {
        trace += std::to_string(t) + ":" + std::to_string(tag) + ";";
      }
      site_events[s].clear();
    }
  });
  const Time end = 3'000;
  for (std::size_t k = 0; k < slices; ++k) {
    engine.set_site_classes(classes_at(k));
    engine.run_until(end * static_cast<Time>(k + 1) /
                     static_cast<Time>(slices));
  }
  return trace;
}

std::vector<int> one_class(std::size_t) { return {0, 0, 0, 0}; }
std::vector<int> two_classes(std::size_t) { return {0, 0, 2, 2}; }

TEST(EngineTest, TraceIsIdenticalAcrossThreadCounts) {
  const std::string seq = run_program(1, 1, one_class);
  EXPECT_FALSE(seq.empty());
  const std::string sliced = run_program(1, 7, one_class);
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(seq, run_program(threads, 1, one_class)) << threads;
    EXPECT_EQ(sliced, run_program(threads, 7, one_class)) << threads;
  }
}

/// The order run_program's trace must have, computed without the engine:
/// per site, its local events and its neighbor's posts merged by time. No
/// local time 10+s+37k equals a post time 160+(s^1)+37j, so there are no
/// ties to break.
std::string reference_trace() {
  std::string trace;
  for (std::size_t s = 0; s < 4; ++s) {
    std::vector<std::pair<Time, int>> events;
    for (Time t = 10 + static_cast<Time>(s); t < 2'000; t += 37) {
      events.emplace_back(t, static_cast<int>(s));
    }
    for (Time t = 10 + static_cast<Time>(s ^ 1); t < 2'000; t += 37) {
      if (t % 5 == 0) events.emplace_back(t + 150, 100 + static_cast<int>(s));
    }
    std::sort(events.begin(), events.end());
    for (const auto& [t, tag] : events) {
      trace += std::to_string(t) + ":" + std::to_string(tag) + ";";
    }
  }
  return trace;
}

// The shard planner this test was named for is gone; what it guarded —
// grouping sites into jobs never changes the trace — is checked here
// against an order computed without the engine, for both groupings.
TEST(EngineTest, TraceIsIdenticalWithPlannerOnOrOff) {
  const std::string expected = reference_trace();
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(expected, run_program(threads, 1, one_class)) << threads;
    EXPECT_EQ(expected, run_program(threads, 1, two_classes)) << threads;
  }
}

TEST(EngineTest, TraceIsIdenticalWhenClassesBecomeIslands) {
  const std::string seq = run_program(1, 1, one_class);
  EXPECT_FALSE(seq.empty());
  // One four-site class and two two-site classes advance on the same
  // sub-window grid: same trace either way, at any width.
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(seq, run_program(threads, 1, two_classes)) << threads;
  }
}

TEST(EngineTest, TraceIsIdenticalWhenClassesSplitAndMergeMidRun) {
  // The trace is flushed once per run_until, so compare against the same
  // seven slices run as one class throughout.
  const std::string seq = run_program(1, 7, one_class);
  // Split into pairs for the middle slices, merge back for the last ones.
  const auto split_then_merge = [](std::size_t k) {
    return k >= 2 && k < 5 ? two_classes(k) : one_class(k);
  };
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(seq, run_program(threads, 7, split_then_merge)) << threads;
  }
}

TEST(EngineTest, EventCountAggregatesAcrossSites) {
  Engine engine(2);
  engine.set_lookahead(10);
  int fired = 0;
  engine.site(0).schedule_at(5, [&] { ++fired; });
  engine.site(1).schedule_at(7, [&] { ++fired; });
  EXPECT_EQ(engine.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.site_events_run(0), 1u);
  EXPECT_EQ(engine.site_events_run(1), 1u);
}

}  // namespace
}  // namespace plwg::sim
