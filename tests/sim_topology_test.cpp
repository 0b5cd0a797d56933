// Multi-LAN topology: intra-segment traffic behaves like the single bus;
// inter-segment traffic pays the store-and-forward backbone; WAN cuts are
// partitions along segment lines and the whole group stack works across
// LANs.
#include <gtest/gtest.h>

#include "harness/world.hpp"
#include "lwg_fixture.hpp"
#include "sim/network.hpp"

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

class TopologyTest : public ::testing::Test {
 protected:
  void build(std::size_t n) {
    net_ = std::make_unique<sim::Network>(engine_, sim::NetworkConfig{});
    for (std::size_t i = 0; i < n; ++i) {
      handlers_.push_back(std::make_unique<Recorder>(sim_));
      nodes_.push_back(net_->add_node(*handlers_.back()));
    }
  }
  sim::Engine engine_;
  sim::Simulator& sim_ = engine_.site(0);
  std::unique_ptr<sim::Network> net_;
  std::vector<std::unique_ptr<Recorder>> handlers_;
  std::vector<NodeId> nodes_;
};

TEST_F(TopologyTest, IntraSegmentLatencyUnchanged) {
  build(4);
  net_->unicast(nodes_[0], nodes_[1], {1});
  sim_.run();
  const Time single_bus = handlers_[1]->arrivals.at(0);

  handlers_[1]->arrivals.clear();
  net_->set_segments({{nodes_[0], nodes_[1]}, {nodes_[2], nodes_[3]}},
                     sim::WanConfig{});
  net_->unicast(nodes_[0], nodes_[1], {1});
  sim_.run();
  EXPECT_EQ(handlers_[1]->arrivals.at(0) - single_bus, single_bus);
}

TEST_F(TopologyTest, InterSegmentPaysTheBackbone) {
  build(4);
  sim::WanConfig wan;
  wan.propagation_delay_us = 5'000;
  net_->set_segments({{nodes_[0], nodes_[1]}, {nodes_[2], nodes_[3]}}, wan);
  net_->unicast(nodes_[0], nodes_[1], {1});  // same LAN
  net_->unicast(nodes_[0], nodes_[2], {1});  // cross LAN
  sim_.run();
  const Time local = handlers_[1]->arrivals.at(0);
  const Time remote = handlers_[2]->arrivals.at(0);
  EXPECT_GE(remote - local, wan.propagation_delay_us);
}

TEST_F(TopologyTest, MulticastForwardsOncePerRemoteSegment) {
  build(6);
  net_->set_segments({{nodes_[0], nodes_[1]},
                      {nodes_[2], nodes_[3]},
                      {nodes_[4], nodes_[5]}},
                     sim::WanConfig{});
  net_->reset_stats();
  const std::vector<NodeId> dests{nodes_[1], nodes_[2], nodes_[3], nodes_[4],
                                  nodes_[5]};
  net_->multicast(nodes_[0], dests, std::vector<std::uint8_t>(100, 0));
  sim_.run();
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_EQ(handlers_[i]->arrivals.size(), 1u) << "node " << i;
  }
  // One source transmission + two remote-segment re-transmissions: three
  // LAN bus occupancies (plus the backbone, accounted separately).
  EXPECT_EQ(net_->stats().frames_sent, 1u);
  // Same-segment pairs arrive together; cross-segment later.
  EXPECT_EQ(handlers_[2]->arrivals[0] > handlers_[1]->arrivals[0], true);
}

TEST_F(TopologyTest, BackboneSerializesCrossTraffic) {
  build(4);
  sim::WanConfig wan;
  wan.bandwidth_bps = 1e6;  // slow backbone
  net_->set_segments({{nodes_[0], nodes_[1]}, {nodes_[2], nodes_[3]}}, wan);
  net_->unicast(nodes_[0], nodes_[2], std::vector<std::uint8_t>(500, 0));
  net_->unicast(nodes_[1], nodes_[3], std::vector<std::uint8_t>(500, 0));
  sim_.run();
  const Time a = handlers_[2]->arrivals.at(0);
  const Time b = handlers_[3]->arrivals.at(0);
  // The second crossing waits for the first on the backbone: gap at least
  // one backbone transmission time ((500+46)*8 / 1 Mbps ≈ 4.4 ms).
  EXPECT_GE(b - a, 4'000);
}

class LwgOverWanTest : public lwg::testing::LwgFixture {};

TEST_F(LwgOverWanTest, GroupSpansTwoLansAndSurvivesWanCut) {
  harness::WorldConfig cfg;
  cfg.num_processes = 4;
  cfg.num_name_servers = 2;  // one per LAN
  cfg.segments = {{0, 1}, {2, 3}};
  cfg.wan.propagation_delay_us = 3'000;
  build(cfg);
  const LwgId id{1};
  form_lwg(id, {0, 1, 2, 3});

  // WAN failure: the canonical geographic partition.
  world().cut_wan();
  ASSERT_TRUE(run_until(
      [&] {
        return lwg_converged(id, {0, 1}, members_of({0, 1})) &&
               lwg_converged(id, {2, 3}, members_of({2, 3}));
      },
      40'000'000));
  // Both LANs keep working through their local name server.
  lwg(0).send(id, payload(1));
  lwg(2).send(id, payload(2));
  ASSERT_TRUE(run_until(
      [&] {
        return user(1).total_delivered(id) >= 1 &&
               user(3).total_delivered(id) >= 1;
      },
      15'000'000));

  world().heal();
  ASSERT_TRUE(run_until(
      [&] { return lwg_converged(id, {0, 1, 2, 3}, members_of({0, 1, 2, 3})); },
      120'000'000));
}

}  // namespace
}  // namespace plwg
