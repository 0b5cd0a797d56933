// ChaosMonkey-driven soaks: after arbitrary injected partitions (and
// crashes), quiescence must always restore one consistent view per group
// among the surviving processes.
#include <gtest/gtest.h>

#include "harness/chaos.hpp"
#include "lwg_fixture.hpp"

namespace plwg::lwg::testing {
namespace {

class ChaosSoakTest : public LwgFixture,
                      public ::testing::WithParamInterface<std::uint64_t> {};

TEST_P(ChaosSoakTest, PartitionChaosConvergesAfterQuiesce) {
  harness::WorldConfig cfg;
  cfg.num_processes = 5;
  cfg.num_name_servers = 2;
  cfg.net.seed = GetParam();
  build(cfg);
  const LwgId id{1};
  form_lwg(id, {0, 1, 2, 3, 4});

  harness::ChaosConfig chaos_cfg;
  chaos_cfg.seed = GetParam();
  chaos_cfg.mean_interval_us = 4'000'000;
  chaos_cfg.mean_partition_us = 3'000'000;
  harness::ChaosMonkey chaos(world(), chaos_cfg);
  chaos.run_for(60'000'000);
  chaos.quiesce();
  EXPECT_GT(chaos.partitions_injected(), 0u);

  ASSERT_TRUE(run_until(
      [&] {
        return lwg_converged(id, {0, 1, 2, 3, 4},
                             members_of({0, 1, 2, 3, 4}));
      },
      300'000'000))
      << "seed " << GetParam();
  // The reunited group carries traffic.
  const auto before = user(4).total_delivered(id);
  lwg(0).send(id, payload(1));
  EXPECT_TRUE(run_until(
      [&] { return user(4).total_delivered(id) > before; }, 30'000'000));
}

TEST_P(ChaosSoakTest, CrashAndPartitionChaosConvergesToSurvivors) {
  harness::WorldConfig cfg;
  cfg.num_processes = 5;
  cfg.num_name_servers = 2;
  cfg.net.seed = GetParam() ^ 0xdead;
  build(cfg);
  const LwgId id{1};
  form_lwg(id, {0, 1, 2, 3, 4});

  harness::ChaosConfig chaos_cfg;
  chaos_cfg.seed = GetParam() ^ 0xbeef;
  chaos_cfg.mean_interval_us = 5'000'000;
  chaos_cfg.mean_partition_us = 3'000'000;
  chaos_cfg.crash_probability = 0.4;
  chaos_cfg.max_crashes = 2;
  harness::ChaosMonkey chaos(world(), chaos_cfg);
  chaos.run_for(60'000'000);
  chaos.quiesce();

  std::vector<std::size_t> alive;
  MemberSet survivors;
  for (std::size_t i = 0; i < 5; ++i) {
    if (!world().crashed(i)) {
      alive.push_back(i);
      survivors.insert(pid(i));
    }
  }
  ASSERT_TRUE(
      run_until([&] { return lwg_converged(id, alive, survivors); },
                300'000'000))
      << "seed " << GetParam() << " survivors " << survivors.to_string();
}

TEST_P(ChaosSoakTest, CrashRestartCyclesConvergeAfterQuiesce) {
  harness::WorldConfig cfg;
  cfg.num_processes = 5;
  cfg.num_name_servers = 2;
  cfg.net.seed = GetParam() ^ 0xf00d;
  build(cfg);
  const LwgId id{1};
  form_lwg(id, {0, 1, 2, 3, 4});

  harness::ChaosConfig chaos_cfg;
  chaos_cfg.seed = GetParam() ^ 0xcafe;
  chaos_cfg.mean_interval_us = 4'000'000;
  chaos_cfg.mean_partition_us = 3'000'000;
  chaos_cfg.crash_probability = 0.5;
  chaos_cfg.max_crashes = 2;
  chaos_cfg.restart_probability = 1.0;  // every crash comes back
  chaos_cfg.mean_downtime_us = 2'000'000;
  harness::ChaosMonkey chaos(world(), chaos_cfg);
  chaos.run_for(90'000'000);
  chaos.quiesce();
  EXPECT_EQ(chaos.restarts_fired(), chaos.crashes_injected());
  for (std::size_t i = 0; i < 5; ++i) EXPECT_FALSE(world().crashed(i)) << i;
  for (const harness::RestartEvent& ev : chaos.restart_log()) {
    EXPECT_GT(ev.restarted_at, ev.crashed_at);
  }

  // Everyone was promised back, so the FULL group must re-converge.
  ASSERT_TRUE(run_until(
      [&] {
        return lwg_converged(id, {0, 1, 2, 3, 4},
                             members_of({0, 1, 2, 3, 4}));
      },
      300'000'000))
      << "seed " << GetParam();
  const auto before = user(4).total_delivered(id);
  lwg(0).send(id, payload(1));
  EXPECT_TRUE(run_until(
      [&] { return user(4).total_delivered(id) > before; }, 30'000'000));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoakTest,
                         ::testing::Values(71, 72, 73, 74, 75, 76));

// Regression flushed out by the adversarial corpus (partition-chaos soak,
// seed 74): a send() accepted while the group is fully active at the LWG
// layer can land while the vsync endpoint underneath is mid-flush. The
// payload then crosses the view boundary inside the endpoint's pending
// queue, is multicast in the NEXT view still carrying the old LWG view
// stamp, and every receiver discards it as "late, superseded" — silent,
// permanent loss of an accepted message. The sender must recognise its own
// superseded copy and re-send it stamped with the live view.
using SendDuringFlushTest = LwgFixture;

TEST_F(SendDuringFlushTest, SendAcceptedMidFlushIsNotLost) {
  harness::WorldConfig cfg;
  cfg.num_processes = 5;
  cfg.num_name_servers = 2;
  cfg.net.seed = 74;
  build(cfg);
  const LwgId id{1};
  form_lwg(id, {0, 1, 2, 3, 4});
  const std::optional<HwgId> hwg = lwg(0).hwg_of(id);
  ASSERT_TRUE(hwg.has_value());

  // Cut p4 off, then catch the exact window where p0's endpoint has left
  // the active state for the flush that removes p4 while the LWG layer
  // still shows the old 5-member view. 0.5 ms probes: the window between
  // flush start and the next view install is only a few milliseconds wide.
  world().partition({{0, 1, 2, 3}, {4}});
  bool caught = false;
  for (int i = 0; i < 60'000 && !caught; ++i) {
    world().run_for(500);
    const vsync::GroupEndpoint* ep = world().vsync(0).endpoint(*hwg);
    const LwgView* v = lwg(0).view_of(id);
    caught = ep != nullptr &&
             ep->state() != vsync::GroupEndpoint::State::kActive &&
             v != nullptr && v->members.size() == 5;
  }
  ASSERT_TRUE(caught) << "never observed the mid-flush send window";

  const auto before = user(1).total_delivered(id);
  lwg(0).send(id, payload(9));
  // Without the missed-view re-send the copy is dropped everywhere and
  // user 1 never sees it.
  EXPECT_TRUE(run_until(
      [&] { return user(1).total_delivered(id) > before; }, 30'000'000));
  EXPECT_GE(lwg(0).stats().data_resent, 1u);
  world().heal();
  ASSERT_TRUE(run_until(
      [&] {
        return lwg_converged(id, {0, 1, 2, 3, 4},
                             members_of({0, 1, 2, 3, 4}));
      },
      120'000'000));
}

// Overlapping fault intervals: a second partition opens while the first is
// still in force, a crash-with-restart lands mid-partition, and a one-way
// link fault spans both. quiesce() must drain the whole interval set (heal
// everything, fire the pending restart, leave nothing scheduled) so the
// convergence check runs against a genuinely healthy network.
using OverlappingFaultTest = LwgFixture;

TEST_F(OverlappingFaultTest, CrashLandsMidPartitionAndQuiesceDrainsAll) {
  harness::WorldConfig cfg;
  cfg.num_processes = 6;
  cfg.num_name_servers = 2;
  cfg.net.seed = 7;
  build(cfg);
  const LwgId id{1};
  form_lwg(id, {0, 1, 2, 3, 4, 5});

  const harness::Scenario sc = harness::parse_scenario(R"json({
    "name": "overlap-inline",
    "events": [
      { "kind": "partition", "at_ms": 1000,
        "islands": [[0,1,2],[3,4,5]], "duration_ms": 8000 },
      { "kind": "link_down", "at_ms": 2000, "from": 0, "to": 3,
        "duration_ms": 9000 },
      { "kind": "crash", "at_ms": 3000, "node": 5, "down_ms": 3000 },
      { "kind": "partition", "at_ms": 4000,
        "islands": [[0,1],[2,3,4,5]], "duration_ms": 8000 }
    ]
  })json");
  harness::ChaosConfig chaos_cfg;
  chaos_cfg.random_faults = false;
  harness::ChaosMonkey chaos(world(), chaos_cfg);
  chaos.load(sc);

  std::size_t max_open = 0;
  for (int i = 0; i < 13'000 / 250; ++i) {
    chaos.run_for(250'000);
    max_open = std::max(max_open, chaos.open_partitions());
  }
  EXPECT_EQ(max_open, 2u) << "the two partition intervals never overlapped";
  EXPECT_EQ(chaos.crashes_injected(), 1u);
  EXPECT_EQ(chaos.restarts_fired(), 1u);  // came back mid-partition
  EXPECT_GE(chaos.link_faults_injected(), 1u);

  chaos.quiesce();
  EXPECT_FALSE(chaos.partitioned());
  EXPECT_EQ(chaos.open_partitions(), 0u);
  EXPECT_EQ(chaos.pending_actions(), 0u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_FALSE(world().crashed(i)) << i;

  ASSERT_TRUE(run_until(
      [&] {
        return lwg_converged(id, {0, 1, 2, 3, 4, 5},
                             members_of({0, 1, 2, 3, 4, 5}));
      },
      300'000'000));
  const auto before = user(5).total_delivered(id);
  lwg(0).send(id, payload(3));
  EXPECT_TRUE(run_until(
      [&] { return user(5).total_delivered(id) > before; }, 30'000'000));
}

// Who is down is the world's record: a process crashed through
// SimWorld::crash, outside the monkey, is down for the monkey too. A
// scripted crash of it is a no-op, and with max_crashes = 1 the random
// injector crashes no one else.
using ChaosCrashRecordTest = LwgFixture;

TEST_F(ChaosCrashRecordTest, CrashOutsideTheMonkeyCountsAsDown) {
  harness::WorldConfig cfg;
  cfg.num_processes = 5;
  cfg.num_name_servers = 2;
  cfg.net.seed = 11;
  build(cfg);
  const LwgId id{1};
  form_lwg(id, {0, 1, 2, 3, 4});
  world().crash(4);

  harness::ChaosConfig scripted_cfg;
  scripted_cfg.random_faults = false;
  harness::ChaosMonkey scripted(world(), scripted_cfg);
  scripted.load(harness::parse_scenario(R"json({
    "name": "crash-the-crashed",
    "processes": 5,
    "events": [ { "kind": "crash", "at_ms": 100, "node": 4 } ]
  })json"));
  scripted.run_for(1'000'000);
  EXPECT_EQ(scripted.crashes_injected(), 0u);
  EXPECT_EQ(scripted.pending_actions(), 0u);
  EXPECT_TRUE(world().crashed(4));

  harness::ChaosConfig random_cfg;
  random_cfg.seed = 11;
  random_cfg.mean_interval_us = 500'000;
  random_cfg.crash_probability = 1.0;
  random_cfg.max_crashes = 1;
  harness::ChaosMonkey random(world(), random_cfg);
  random.run_for(20'000'000);
  random.quiesce();
  EXPECT_EQ(random.crashes_injected(), 0u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FALSE(world().crashed(i)) << i;
  ASSERT_TRUE(run_until(
      [&] {
        return lwg_converged(id, {0, 1, 2, 3}, members_of({0, 1, 2, 3}));
      },
      300'000'000));
}

}  // namespace
}  // namespace plwg::lwg::testing
