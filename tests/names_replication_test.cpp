// Multi-replica naming-service behaviour: propagation chains across three
// servers, reconciliation after multi-way partitions, server crashes, and
// genealogy chains spanning several generations.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>

#include "names/naming_agent.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "transport/node_runtime.hpp"

namespace plwg::names {
namespace {

MappingEntry entry(std::uint32_t coord, std::uint32_t seq, std::uint64_t hwg,
                   std::initializer_list<std::uint32_t> members = {0},
                   std::uint64_t stamp = 1) {
  MappingEntry e;
  e.lwg_view = ViewId{ProcessId{coord}, seq};
  for (auto m : members) e.lwg_members.insert(ProcessId{m});
  e.hwg = HwgId{hwg};
  e.hwg_members = e.lwg_members;
  e.stamp = stamp;
  return e;
}

class ThreeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<sim::Network>(engine_, sim::NetworkConfig{});
    for (int i = 0; i < 2; ++i) {
      clients_.push_back(std::make_unique<transport::NodeRuntime>(*net_));
    }
    for (int j = 0; j < 3; ++j) {
      server_nodes_.push_back(std::make_unique<transport::NodeRuntime>(*net_));
    }
    std::vector<NodeId> ids;
    for (const auto& s : server_nodes_) ids.push_back(s->id());
    for (int j = 0; j < 3; ++j) {
      servers_.push_back(std::make_unique<NamingAgent>(
          *server_nodes_[static_cast<std::size_t>(j)], ids));
      std::vector<NodeId> peers;
      for (int k = 0; k < 3; ++k) {
        if (k != j) peers.push_back(ids[static_cast<std::size_t>(k)]);
      }
      servers_.back()->enable_server(peers);
    }
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      std::vector<NodeId> order = ids;
      std::rotate(order.begin(),
                  order.begin() + static_cast<std::ptrdiff_t>(i % 3),
                  order.end());
      client_agents_.push_back(
          std::make_unique<NamingAgent>(*clients_[i], order));
    }
  }

  void run_for(Duration us) { sim_.run_until(sim_.now() + us); }

  sim::Engine engine_;
  sim::Simulator& sim_ = engine_.site(0);
  std::unique_ptr<sim::Network> net_;
  std::vector<std::unique_ptr<transport::NodeRuntime>> clients_;
  std::vector<std::unique_ptr<transport::NodeRuntime>> server_nodes_;
  std::vector<std::unique_ptr<NamingAgent>> servers_;
  std::vector<std::unique_ptr<NamingAgent>> client_agents_;
};

TEST_F(ThreeServerTest, WriteReachesAllReplicas) {
  client_agents_[0]->set(LwgId{1}, entry(1, 1, 100), {});
  run_for(3'000'000);
  for (int j = 0; j < 3; ++j) {
    EXPECT_TRUE(servers_[static_cast<std::size_t>(j)]
                    ->database()
                    .records.contains(LwgId{1}))
        << "server " << j;
  }
}

TEST_F(ThreeServerTest, ThreeWayPartitionReconcilesTransitively) {
  // Each server isolated with one (or zero) clients; three different
  // mappings accumulate; after heal all three replicas converge.
  net_->set_partitions({{clients_[0]->id(), server_nodes_[0]->id()},
                        {clients_[1]->id(), server_nodes_[1]->id()},
                        {server_nodes_[2]->id()}});
  client_agents_[0]->set(LwgId{1}, entry(1, 1, 100, {0}), {});
  client_agents_[1]->set(LwgId{1}, entry(2, 1, 200, {1}), {});
  run_for(3'000'000);
  net_->heal();
  run_for(4'000'000);
  for (int j = 0; j < 3; ++j) {
    const auto& rec =
        servers_[static_cast<std::size_t>(j)]->database().records.at(LwgId{1});
    EXPECT_EQ(rec.entries.size(), 2u) << "server " << j;
    EXPECT_TRUE(rec.has_conflict()) << "server " << j;
  }
}

TEST_F(ThreeServerTest, ChainedGenealogyGCsTransitively) {
  // v1 superseded by v2, v2 superseded by v3 — applied to different
  // replicas, in an order that lets tombstones chase entries across syncs.
  client_agents_[0]->set(LwgId{1}, entry(1, 1, 100), {});
  run_for(2'500'000);
  client_agents_[1]->set(LwgId{1}, entry(1, 2, 100, {0}, 2),
                         {ViewId{ProcessId{1}, 1}});
  run_for(2'500'000);
  client_agents_[0]->set(LwgId{1}, entry(1, 3, 200, {0}, 3),
                         {ViewId{ProcessId{1}, 2}});
  run_for(4'000'000);
  for (int j = 0; j < 3; ++j) {
    const auto& rec =
        servers_[static_cast<std::size_t>(j)]->database().records.at(LwgId{1});
    ASSERT_EQ(rec.entries.size(), 1u) << "server " << j;
    EXPECT_EQ(rec.entries.begin()->first, (ViewId{ProcessId{1}, 3}));
    EXPECT_EQ(rec.superseded.size(), 2u);
  }
}

TEST_F(ThreeServerTest, SurvivesOneServerCrash) {
  client_agents_[0]->set(LwgId{1}, entry(1, 1, 100), {});
  run_for(2'000'000);
  net_->crash(server_nodes_[0]->id());  // client 0's preferred server
  // Reads fail over; writes keep replicating between the two survivors.
  std::optional<std::size_t> read_size;
  client_agents_[0]->read(LwgId{1},
                          [&](LwgId, const std::vector<MappingEntry>& e) {
                            read_size = e.size();
                          });
  client_agents_[1]->set(LwgId{2}, entry(2, 1, 300), {});
  run_for(4'000'000);
  ASSERT_TRUE(read_size.has_value());
  EXPECT_EQ(*read_size, 1u);
  EXPECT_TRUE(servers_[1]->database().records.contains(LwgId{2}));
  EXPECT_TRUE(servers_[2]->database().records.contains(LwgId{2}));
}

TEST_F(ThreeServerTest, StampPreventsRegressionAcrossReplicas) {
  // A newer re-registration of the same view must win everywhere, even when
  // the stale version arrives later via a slow replica.
  net_->set_partitions({{clients_[0]->id(), server_nodes_[0]->id()},
                        {clients_[1]->id(), server_nodes_[1]->id(),
                         server_nodes_[2]->id()}});
  client_agents_[0]->set(LwgId{1}, entry(1, 1, 100, {0}, /*stamp=*/1), {});
  client_agents_[1]->set(LwgId{1}, entry(1, 1, 500, {0}, /*stamp=*/5), {});
  run_for(3'000'000);
  net_->heal();
  run_for(4'000'000);
  for (int j = 0; j < 3; ++j) {
    const auto& rec =
        servers_[static_cast<std::size_t>(j)]->database().records.at(LwgId{1});
    ASSERT_EQ(rec.entries.size(), 1u);
    EXPECT_EQ(rec.entries.begin()->second.hwg, HwgId{500}) << "server " << j;
  }
}

}  // namespace
}  // namespace plwg::names
