// sim::Engine: conservative lookahead sub-windows over per-segment sites.
// These tests drive the engine directly (no network) to pin the
// synchronization contract: sub-window outbox injection in fixed order,
// exact clock advancement, and an execution order that does not depend on
// how the run is sliced into run_until calls.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

/// The determinism contract at engine level: sites {0,1} and {2,3} each
/// run a periodic local event and occasionally post to their pair neighbor;
/// every event records (time, tag) into its site's log. Returns the logs
/// concatenated in site order, after running to the end in `slices` equal
/// run_until calls.
std::string run_program(std::size_t slices) {
  Engine engine(4);
  engine.set_lookahead(100);
  std::vector<std::vector<std::pair<Time, int>>> site_events(4);
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
  const Time end = 3'000;
  for (std::size_t k = 0; k < slices; ++k) {
    engine.run_until(end * static_cast<Time>(k + 1) /
                     static_cast<Time>(slices));
  }
  std::string trace;
  for (const auto& events : site_events) {
    for (const auto& [t, tag] : events) {
      trace += std::to_string(t) + ":" + std::to_string(tag) + ";";
    }
  }
  return trace;
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

TEST(EngineTest, TraceFollowsReferenceOrderWholeOrSliced) {
  const std::string expected = reference_trace();
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(expected, run_program(1));
  EXPECT_EQ(expected, run_program(7));
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
