// Network::charge_cpu: protocol-processing charges serialize with packet
// reception at a node (the cost model behind the Fig. 2 recovery shapes).
#include <gtest/gtest.h>

#include "sim/network.hpp"

namespace plwg::sim {
namespace {

struct Recorder : NetHandler {
  explicit Recorder(Simulator& sim) : sim_(sim) {}
  void on_packet(NodeId, std::span<const std::uint8_t>,
                 const BytesOwner&) override {
    arrivals.push_back(sim_.now());
  }
  Simulator& sim_;
  std::vector<Time> arrivals;
};

TEST(CpuCharge, DelaysSubsequentDeliveries) {
  Engine engine;
  Simulator& sim = engine.site(0);
  NetworkConfig cfg;
  cfg.node_process_cost_us = 100;
  Network net(engine, cfg);
  Recorder sender(sim), receiver(sim);
  const NodeId a = net.add_node(sender);
  const NodeId b = net.add_node(receiver);

  net.unicast(a, b, {1});
  sim.run();
  const Time baseline = receiver.arrivals.at(0);

  // Same send again, but with 10 ms of protocol work charged first.
  net.charge_cpu(b, 10'000);
  net.unicast(a, b, {2});
  sim.run();
  const Time delayed = receiver.arrivals.at(1);
  EXPECT_GE(delayed - baseline, 10'000);
}

TEST(CpuCharge, ChargesAccumulate) {
  Engine engine;
  Simulator& sim = engine.site(0);
  NetworkConfig cfg;
  cfg.node_process_cost_us = 10;
  Network net(engine, cfg);
  Recorder sender(sim), receiver(sim);
  const NodeId a = net.add_node(sender);
  const NodeId b = net.add_node(receiver);
  net.charge_cpu(b, 1'000);
  net.charge_cpu(b, 1'000);
  net.charge_cpu(b, 1'000);
  net.unicast(a, b, {1});
  sim.run();
  EXPECT_GE(receiver.arrivals.at(0), 3'000);
}

TEST(CpuCharge, DoesNotAffectOtherNodes) {
  Engine engine;
  Simulator& sim = engine.site(0);
  Network net(engine, NetworkConfig{});
  Recorder sender(sim), r1(sim), r2(sim);
  const NodeId a = net.add_node(sender);
  const NodeId b = net.add_node(r1);
  const NodeId c = net.add_node(r2);
  net.charge_cpu(b, 50'000);
  const std::vector<NodeId> dests{b, c};
  net.multicast(a, dests, {1});
  sim.run();
  ASSERT_EQ(r1.arrivals.size(), 1u);
  ASSERT_EQ(r2.arrivals.size(), 1u);
  EXPECT_LT(r2.arrivals[0], r1.arrivals[0]);
}

TEST(CpuCharge, ZeroChargeIsNoop) {
  Engine engine;
  Simulator& sim = engine.site(0);
  Network net(engine, NetworkConfig{});
  Recorder sender(sim), receiver(sim);
  const NodeId a = net.add_node(sender);
  const NodeId b = net.add_node(receiver);
  net.unicast(a, b, {1});
  sim.run();
  const Time baseline = receiver.arrivals.at(0);
  net.charge_cpu(b, 0);
  net.unicast(a, b, {2});
  sim.run();
  EXPECT_EQ(receiver.arrivals.at(1), 2 * baseline);
}

}  // namespace
}  // namespace plwg::sim
