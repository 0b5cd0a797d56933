#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace plwg::sim {
namespace {

struct Recorder : NetHandler {
  struct Packet {
    NodeId from;
    std::vector<std::uint8_t> data;
    Time at;
  };
  explicit Recorder(Simulator& sim) : sim_(sim) {}
  void on_packet(NodeId from, std::span<const std::uint8_t> data) override {
    packets.push_back(Packet{from, {data.begin(), data.end()}, sim_.now()});
  }
  Simulator& sim_;
  std::vector<Packet> packets;
};

struct NetFixture : ::testing::Test {
  NetFixture() {
    NetworkConfig cfg;
    cfg.node_process_cost_us = 100;
    cfg.bandwidth_bps = 10e6;
    config = cfg;
  }
  void build(std::size_t n) {
    net = std::make_unique<Network>(engine, config);
    for (std::size_t i = 0; i < n; ++i) {
      handlers.push_back(std::make_unique<Recorder>(sim));
      nodes.push_back(net->add_node(*handlers.back()));
    }
  }
  Engine engine;
  Simulator& sim = engine.site(0);
  NetworkConfig config;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<Recorder>> handlers;
  std::vector<NodeId> nodes;
};

TEST_F(NetFixture, UnicastDelivers) {
  build(2);
  net->unicast(nodes[0], nodes[1], {1, 2, 3});
  sim.run();
  ASSERT_EQ(handlers[1]->packets.size(), 1u);
  EXPECT_EQ(handlers[1]->packets[0].from, nodes[0]);
  EXPECT_EQ(handlers[1]->packets[0].data, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(handlers[0]->packets.size(), 0u);
}

TEST_F(NetFixture, MulticastReachesAllListedDestinations) {
  build(4);
  const std::vector<NodeId> dests{nodes[1], nodes[2], nodes[3]};
  net->multicast(nodes[0], dests, {9});
  sim.run();
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(handlers[i]->packets.size(), 1u) << "node " << i;
  }
}

TEST_F(NetFixture, LoopbackDeliveryWorks) {
  build(1);
  net->unicast(nodes[0], nodes[0], {7});
  sim.run();
  ASSERT_EQ(handlers[0]->packets.size(), 1u);
}

TEST_F(NetFixture, DeliveryLatencyIncludesBusAndProcessing) {
  build(2);
  net->unicast(nodes[0], nodes[1], std::vector<std::uint8_t>(54, 0));
  sim.run();
  // tx time for (54 + 46) bytes at 10 Mbps = 80 us (+1 rounding),
  // + 50 us propagation + 100 us processing.
  ASSERT_EQ(handlers[1]->packets.size(), 1u);
  EXPECT_EQ(handlers[1]->packets[0].at, 81 + 50 + 100);
}

TEST_F(NetFixture, SharedBusSerializesTransmissions) {
  build(3);
  // Two senders transmit simultaneously: the second waits for the bus.
  net->unicast(nodes[0], nodes[2], std::vector<std::uint8_t>(54, 0));
  net->unicast(nodes[1], nodes[2], std::vector<std::uint8_t>(54, 0));
  sim.run();
  ASSERT_EQ(handlers[2]->packets.size(), 2u);
  const Time t0 = handlers[2]->packets[0].at;
  const Time t1 = handlers[2]->packets[1].at;
  // Second arrival is one extra transmission *and* one processing slot later.
  EXPECT_GE(t1 - t0, 81);
}

TEST_F(NetFixture, PartitionBlocksCrossTraffic) {
  build(4);
  net->set_partitions({{nodes[0], nodes[1]}, {nodes[2], nodes[3]}});
  EXPECT_TRUE(net->reachable(nodes[0], nodes[1]));
  EXPECT_FALSE(net->reachable(nodes[1], nodes[2]));
  net->unicast(nodes[0], nodes[2], {1});
  net->unicast(nodes[0], nodes[1], {2});
  sim.run();
  EXPECT_EQ(handlers[2]->packets.size(), 0u);
  EXPECT_EQ(handlers[1]->packets.size(), 1u);
}

TEST_F(NetFixture, HealRestoresConnectivity) {
  build(2);
  net->set_partitions({{nodes[0]}, {nodes[1]}});
  net->unicast(nodes[0], nodes[1], {1});
  net->heal();
  net->unicast(nodes[0], nodes[1], {2});
  sim.run();
  ASSERT_EQ(handlers[1]->packets.size(), 1u);
  EXPECT_EQ(handlers[1]->packets[0].data[0], 2);
}

TEST_F(NetFixture, CrashedNodeNeitherSendsNorReceives) {
  build(2);
  net->crash(nodes[1]);
  EXPECT_TRUE(net->crashed(nodes[1]));
  net->unicast(nodes[0], nodes[1], {1});
  net->unicast(nodes[1], nodes[0], {2});
  sim.run();
  EXPECT_EQ(handlers[1]->packets.size(), 0u);
  EXPECT_EQ(handlers[0]->packets.size(), 0u);
}

TEST_F(NetFixture, DropProbabilityDropsDeliveries) {
  config.drop_probability = 1.0;
  build(2);
  net->unicast(nodes[0], nodes[1], {1});
  sim.run();
  EXPECT_EQ(handlers[1]->packets.size(), 0u);
  EXPECT_EQ(net->stats().drops, 1u);
}

TEST_F(NetFixture, StatsAccounting) {
  build(3);
  const std::vector<NodeId> dests{nodes[1], nodes[2]};
  net->multicast(nodes[0], dests, std::vector<std::uint8_t>(10, 0));
  sim.run();
  const NetworkStats& s = net->stats();
  EXPECT_EQ(s.frames_sent, 1u);     // one bus occupancy for the multicast
  EXPECT_EQ(s.deliveries, 2u);
  EXPECT_EQ(s.bytes_sent, 10u);
  EXPECT_EQ(s.bytes_on_wire, 56u);
  EXPECT_GT(s.bus_busy_us, 0);
}

TEST_F(NetFixture, SeparatePartitionsHaveSeparateBuses) {
  build(4);
  net->set_partitions({{nodes[0], nodes[1]}, {nodes[2], nodes[3]}});
  // Simultaneous sends in different partitions do not queue on each other.
  net->unicast(nodes[0], nodes[1], std::vector<std::uint8_t>(54, 0));
  net->unicast(nodes[2], nodes[3], std::vector<std::uint8_t>(54, 0));
  sim.run();
  ASSERT_EQ(handlers[1]->packets.size(), 1u);
  ASSERT_EQ(handlers[3]->packets.size(), 1u);
  EXPECT_EQ(handlers[1]->packets[0].at, handlers[3]->packets[0].at);
}

// The zero-copy fan-out invariant: a multicast is ONE transmission — the
// payload is encoded and charged once, no matter how many destinations
// share the buffer.
TEST_F(NetFixture, MulticastChargesPayloadBytesOncePerTransmission) {
  build(5);
  const std::vector<std::uint8_t> payload(200, 0xAA);
  net->multicast(nodes[0], std::array{nodes[1], nodes[2], nodes[3], nodes[4]},
                 payload);
  sim.run();
  for (int i = 1; i <= 4; ++i) {
    ASSERT_EQ(handlers[i]->packets.size(), 1u) << "node " << i;
  }
  const NetworkStats& st = net->stats();
  EXPECT_EQ(st.frames_sent, 1u);
  EXPECT_EQ(st.bytes_sent, payload.size());  // once, not 4x
  EXPECT_EQ(st.deliveries, 4u);
}

// The same invariant must hold when destinations straddle partition
// classes: the sender's transmission is charged once even though only the
// destinations sharing its partition receive it.
TEST_F(NetFixture, MulticastAcrossPartitionClassesStillChargesOnce) {
  build(4);
  net->set_partitions({{nodes[0], nodes[1]}, {nodes[2], nodes[3]}});
  const std::vector<std::uint8_t> payload(128, 0x5C);
  const auto base = net->stats();
  net->multicast(nodes[0], std::array{nodes[1], nodes[2], nodes[3]}, payload);
  sim.run();
  EXPECT_EQ(handlers[1]->packets.size(), 1u);
  EXPECT_TRUE(handlers[2]->packets.empty());
  EXPECT_TRUE(handlers[3]->packets.empty());
  const NetworkStats& st = net->stats();
  EXPECT_EQ(st.frames_sent - base.frames_sent, 1u);
  EXPECT_EQ(st.bytes_sent - base.bytes_sent, payload.size());
  EXPECT_EQ(st.deliveries - base.deliveries, 1u);
}

// --- per-directed-link faults -------------------------------------------

TEST_F(NetFixture, BlockedLinkFaultIsOneWay) {
  build(2);
  net->set_link_fault(nodes[0], nodes[1], LinkFault{.blocked = true});
  net->unicast(nodes[0], nodes[1], {1});
  net->unicast(nodes[1], nodes[0], {2});
  sim.run();
  // 0->1 is dead; the reverse direction is untouched.
  EXPECT_TRUE(handlers[1]->packets.empty());
  ASSERT_EQ(handlers[0]->packets.size(), 1u);
  EXPECT_EQ(net->stats().link_blocked, 1u);
  // Blocked at the link layer, not dropped by loss: drops stays clean.
  EXPECT_EQ(net->stats().drops, 0u);
}

TEST_F(NetFixture, BlockedLinkOnlyAffectsThatDestination) {
  build(3);
  net->set_link_fault(nodes[0], nodes[1], LinkFault{.blocked = true});
  net->multicast(nodes[0], std::array{nodes[1], nodes[2]}, {9});
  sim.run();
  EXPECT_TRUE(handlers[1]->packets.empty());
  EXPECT_EQ(handlers[2]->packets.size(), 1u);
}

TEST_F(NetFixture, ClearLinkFaultRestoresDelivery) {
  build(2);
  net->set_link_fault(nodes[0], nodes[1], LinkFault{.blocked = true});
  net->unicast(nodes[0], nodes[1], {1});
  sim.run();
  EXPECT_TRUE(handlers[1]->packets.empty());
  net->clear_link_fault(nodes[0], nodes[1]);
  EXPECT_EQ(net->link_fault_count(), 0u);
  net->unicast(nodes[0], nodes[1], {2});
  sim.run();
  ASSERT_EQ(handlers[1]->packets.size(), 1u);
  EXPECT_EQ(handlers[1]->packets[0].data, (std::vector<std::uint8_t>{2}));
}

TEST_F(NetFixture, LinkDropOverrideBeatsGlobalConfig) {
  // Global loss is zero; the faulted direction loses everything.
  build(3);
  net->set_link_fault(nodes[0], nodes[1],
                      LinkFault{.drop_probability = 1.0});
  for (int i = 0; i < 5; ++i) {
    net->multicast(nodes[0], std::array{nodes[1], nodes[2]}, {7});
  }
  sim.run();
  EXPECT_TRUE(handlers[1]->packets.empty());
  EXPECT_EQ(handlers[2]->packets.size(), 5u);
  EXPECT_EQ(net->stats().drops, 5u);
}

TEST_F(NetFixture, NegativeOverridesInheritGlobalConfig) {
  // A fault entry with both overrides negative behaves like a healthy link.
  build(2);
  net->set_link_fault(nodes[0], nodes[1], LinkFault{});
  net->unicast(nodes[0], nodes[1], {3});
  sim.run();
  ASSERT_EQ(handlers[1]->packets.size(), 1u);
}

TEST_F(NetFixture, LinkJitterOverrideDelaysOnlyThatDirection) {
  config.jitter_us = 0;
  build(3);
  net->set_link_fault(nodes[0], nodes[1], LinkFault{.jitter_us = 20'000});
  for (int i = 0; i < 8; ++i) {
    net->multicast(nodes[0], std::array{nodes[1], nodes[2]}, {1});
    sim.run();
  }
  ASSERT_EQ(handlers[1]->packets.size(), 8u);
  ASSERT_EQ(handlers[2]->packets.size(), 8u);
  bool any_later = false;
  for (std::size_t i = 0; i < 8; ++i) {
    // Jittered copies never arrive before the clean ones, and the uniform
    // draw makes at least one strictly later across eight sends.
    EXPECT_GE(handlers[1]->packets[i].at, handlers[2]->packets[i].at);
    any_later |= handlers[1]->packets[i].at > handlers[2]->packets[i].at;
  }
  EXPECT_TRUE(any_later);
}

}  // namespace
}  // namespace plwg::sim
