// Gray-failure injection end to end: the sim::Network primitives (process
// stalls, CPU slow-down factors, clock-rate skew), their ChaosMonkey /
// scenario-DSL plumbing, and the determinism witness — a gray scenario's
// trace digest must be byte-identical when the seed is replayed.
#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "transport/node_runtime.hpp"

namespace plwg {
namespace {

struct Recorder : sim::NetHandler {
  explicit Recorder(sim::Simulator& sim) : sim_(sim) {}
  void on_packet(NodeId, std::span<const std::uint8_t>,
                 const BytesOwner&) override {
    arrivals.push_back(sim_.now());
  }
  sim::Simulator& sim_;
  std::vector<Time> arrivals;
};

// --- network-level semantics ----------------------------------------------

TEST(GrayNetworkTest, StallParksOutboundSendsUntilTheStallLifts) {
  sim::Engine engine;
  sim::Simulator& sim = engine.site(0);
  sim::Network net(engine, sim::NetworkConfig{});
  Recorder ra(sim), rb(sim);
  const NodeId a = net.add_node(ra);
  const NodeId b = net.add_node(rb);

  net.stall_node(b, 100'000);
  EXPECT_TRUE(net.node_stalled(b));
  net.unicast(b, a, {1});  // parked: b is mid-stall
  net.unicast(b, a, {2});
  sim.run();
  ASSERT_EQ(ra.arrivals.size(), 2u);
  EXPECT_GE(ra.arrivals[0], 100'000);  // burst out when the stall lifted
  EXPECT_EQ(net.stats().stalls, 1u);
  EXPECT_EQ(net.stats().stall_deferred_sends, 2u);
  EXPECT_FALSE(net.node_stalled(b));
}

TEST(GrayNetworkTest, StallDefersInboundProcessingLikeAFrozenProcess) {
  sim::Engine engine;
  sim::Simulator& sim = engine.site(0);
  sim::NetworkConfig cfg;
  cfg.node_process_cost_us = 10;
  sim::Network net(engine, cfg);
  Recorder ra(sim), rb(sim);
  const NodeId a = net.add_node(ra);
  const NodeId b = net.add_node(rb);

  net.stall_node(b, 50'000);
  net.unicast(a, b, {1});  // sender is healthy; the receiver is frozen
  sim.run();
  ASSERT_EQ(rb.arrivals.size(), 1u);
  EXPECT_GE(rb.arrivals[0], 50'000);
}

TEST(GrayNetworkTest, CpuFactorMultipliesPerPacketCost) {
  const auto arrival_with_factor = [](double factor) {
    sim::Engine engine;
    sim::Simulator& sim = engine.site(0);
    sim::NetworkConfig cfg;
    cfg.node_process_cost_us = 100;
    sim::Network net(engine, cfg);
    Recorder ra(sim), rb(sim);
    const NodeId a = net.add_node(ra);
    const NodeId b = net.add_node(rb);
    if (factor != 1.0) net.set_cpu_factor(b, factor);
    net.unicast(a, b, {1});
    net.unicast(a, b, {2});
    sim.run();
    return rb.arrivals.back();
  };
  const Time base = arrival_with_factor(1.0);
  const Time slow = arrival_with_factor(10.0);
  // Two packets serialize on the receiver's CPU: 10x cost pushes the second
  // arrival out by ~9 extra per-packet charges.
  EXPECT_GE(slow - base, 900);
}

TEST(GrayNetworkTest, ClockRateSkewsHostTimers) {
  sim::Engine engine;
  sim::Simulator& sim = engine.site(0);
  sim::Network net(engine, sim::NetworkConfig{});
  transport::NodeRuntime slow(net), fast(net), normal(net);
  net.set_clock_rate(slow.id(), 0.5);   // local clock runs at half speed
  net.set_clock_rate(fast.id(), 2.0);   // double speed
  Time slow_fired = -1, fast_fired = -1, normal_fired = -1;
  slow.after(1'000, [&] { slow_fired = sim.now(); });
  fast.after(1'000, [&] { fast_fired = sim.now(); });
  normal.after(1'000, [&] { normal_fired = sim.now(); });
  sim.run();
  EXPECT_EQ(normal_fired, 1'000);
  EXPECT_EQ(slow_fired, 2'000);  // a slow clock fires timers LATE
  EXPECT_EQ(fast_fired, 500);    // a fast clock fires them early
}

TEST(GrayNetworkTest, ClearNodeFaultsLiftsEverything) {
  sim::Engine engine;
  sim::Simulator& sim = engine.site(0);
  sim::Network net(engine, sim::NetworkConfig{});
  Recorder ra(sim), rb(sim);
  const NodeId a = net.add_node(ra);
  const NodeId b = net.add_node(rb);
  net.stall_node(a, 1'000'000);
  net.set_cpu_factor(b, 4.0);
  net.set_clock_rate(b, 0.8);
  EXPECT_EQ(net.node_fault_count(), 2u);  // two degraded NODES
  net.clear_node_faults();
  EXPECT_EQ(net.node_fault_count(), 0u);
  EXPECT_FALSE(net.node_stalled(a));
  EXPECT_EQ(net.cpu_factor(b), 1.0);
  EXPECT_EQ(net.clock_rate(b), 1.0);
}

// --- scenario DSL ----------------------------------------------------------

TEST(GrayScenarioDslTest, ParsesAllThreeGrayKinds) {
  const harness::Scenario s = harness::parse_scenario(R"({
    "name": "gray",
    "events": [
      {"kind": "stall", "at_ms": 100, "node": 1, "duration_ms": 50,
       "period_ms": 200, "count": 3},
      {"kind": "slow_node", "at_ms": 200, "node": 2, "factor": 8.5,
       "duration_ms": 1000},
      {"kind": "clock_drift", "at_ms": 300, "node": 3, "rate": 0.9}
    ]
  })");
  ASSERT_EQ(s.events.size(), 3u);
  EXPECT_EQ(s.events[0].kind, harness::ScenarioEvent::Kind::kStall);
  EXPECT_EQ(s.events[0].node, 1u);
  EXPECT_EQ(s.events[0].duration_us, 50'000);
  EXPECT_EQ(s.events[0].period_us, 200'000);
  EXPECT_EQ(s.events[0].count, 3u);
  EXPECT_EQ(s.events[1].kind, harness::ScenarioEvent::Kind::kSlowNode);
  EXPECT_DOUBLE_EQ(s.events[1].factor, 8.5);
  EXPECT_EQ(s.events[1].duration_us, 1'000'000);
  EXPECT_EQ(s.events[2].kind, harness::ScenarioEvent::Kind::kClockDrift);
  EXPECT_DOUBLE_EQ(s.events[2].rate, 0.9);
  EXPECT_EQ(s.events[2].duration_us, 0);  // skewed until quiesce
}

TEST(GrayScenarioDslTest, RejectsMalformedGrayEvents) {
  const auto bad = [](const char* events) {
    const std::string doc =
        std::string(R"({"name": "x", "events": [)") + events + "]}";
    EXPECT_THROW((void)harness::parse_scenario(doc), harness::ScenarioError)
        << events;
  };
  // A stall train needs a period.
  bad(R"({"kind": "stall", "at_ms": 0, "node": 0, "duration_ms": 10,
          "count": 3})");
  // The node must wake between stalls.
  bad(R"({"kind": "stall", "at_ms": 0, "node": 0, "duration_ms": 100,
          "period_ms": 100, "count": 2})");
  // slow_node can only slow down.
  bad(R"({"kind": "slow_node", "at_ms": 0, "node": 0, "factor": 0.5})");
  // Drift rates outside the sane band are almost certainly typos.
  bad(R"({"kind": "clock_drift", "at_ms": 0, "node": 0, "rate": 100})");
  // Unknown keys are rejected like everywhere else in the DSL.
  bad(R"({"kind": "stall", "at_ms": 0, "node": 0, "duration_ms": 10,
          "factor": 2})");
  // Node indexes are validated against the world size.
  bad(R"({"kind": "slow_node", "at_ms": 0, "node": 99, "factor": 2})");
}

// --- chaos integration ------------------------------------------------------

TEST(GrayChaosTest, QuiesceLiftsOpenGrayFaults) {
  harness::WorldConfig cfg;
  cfg.num_processes = 4;
  harness::SimWorld world(cfg);
  harness::ChaosConfig chaos_cfg;
  chaos_cfg.random_faults = false;
  harness::ChaosMonkey chaos(world, chaos_cfg);
  chaos.load(harness::parse_scenario(R"({
    "name": "open-gray",
    "processes": 4,
    "events": [
      {"kind": "slow_node", "at_ms": 10, "node": 1, "factor": 16},
      {"kind": "clock_drift", "at_ms": 10, "node": 2, "rate": 0.8},
      {"kind": "stall", "at_ms": 20, "node": 3, "duration_ms": 40,
       "period_ms": 100, "count": 5}
    ]
  })"));
  chaos.run_for(600'000);  // past the last stall of the train (t=420 ms)
  EXPECT_EQ(chaos.gray_faults_injected(), 2u);
  EXPECT_EQ(chaos.stalls_injected(), 5u);
  // The slow-down and the drift were opened with no duration: still in
  // force until quiesce.
  EXPECT_GE(world.network().node_fault_count(), 2u);
  chaos.quiesce();  // asserts internally that every fault drained
  EXPECT_EQ(world.network().node_fault_count(), 0u);
}

// --- determinism witness ----------------------------------------------------

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

TEST(GrayDeterminismTest, GrayScenarioReplaysToIdenticalDigest) {
  const harness::Scenario scenario = harness::load_scenario_file(
      harness::scenario_dir() + "/gray_degraded_segment.json");
  const std::uint64_t seeds = env_u64("PLWG_DET_SCENARIO_SEEDS", 2);
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const harness::ScenarioResult base = harness::run_scenario(scenario, seed);
    EXPECT_TRUE(base.formed) << "seed " << seed;
    EXPECT_TRUE(base.converged) << "seed " << seed << ": " << base.failure;
    EXPECT_TRUE(base.oracle_clean) << "seed " << seed << ": " << base.failure;
    const harness::ScenarioResult replay =
        harness::run_scenario(scenario, seed);
    EXPECT_EQ(base.digest, replay.digest)
        << "seed " << seed << ": gray digest diverged on replay";
    EXPECT_EQ(base.converged, replay.converged) << "seed " << seed;
    EXPECT_TRUE(replay.oracle_clean) << "seed " << seed << ": "
                                     << replay.failure;
    if (::testing::Test::HasFatalFailure()) break;
  }
}

TEST(GrayScenarioTest, StallStormFormsConvergesAndStaysOracleClean) {
  const harness::Scenario scenario = harness::load_scenario_file(
      harness::scenario_dir() + "/gray_stall_storm.json");
  const harness::ScenarioResult r = harness::run_scenario(scenario, 1);
  EXPECT_TRUE(r.formed);
  EXPECT_TRUE(r.converged) << r.failure;
  EXPECT_TRUE(r.oracle_clean) << r.failure;
}

}  // namespace
}  // namespace plwg
