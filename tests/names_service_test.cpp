// End-to-end naming-service tests: Table 2 primitives over the simulated
// network, server fail-over, anti-entropy reconciliation across partitions,
// and the MULTIPLE-MAPPINGS callback (paper Sects. 5.2, 6.1).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>

#include "names/naming_agent.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "transport/node_runtime.hpp"

namespace plwg::names {
namespace {

MappingEntry entry(std::uint32_t coord, std::uint32_t seq, std::uint64_t hwg,
                   std::initializer_list<std::uint32_t> members = {0, 1},
                   std::uint64_t stamp = 1) {
  MappingEntry e;
  e.lwg_view = ViewId{ProcessId{coord}, seq};
  for (auto m : members) e.lwg_members.insert(ProcessId{m});
  e.hwg = HwgId{hwg};
  e.hwg_members = e.lwg_members;
  e.stamp = stamp;
  return e;
}

class RecordingListener : public ConflictListener {
 public:
  explicit RecordingListener(const sim::Simulator* clock = nullptr)
      : clock_(clock) {}
  void on_multiple_mappings(LwgId lwg,
                            const std::vector<MappingEntry>& entries) override {
    callbacks.emplace_back(lwg, entries);
    if (clock_ != nullptr) times[lwg].push_back(clock_->now());
  }
  std::vector<std::pair<LwgId, std::vector<MappingEntry>>> callbacks;
  std::map<LwgId, std::vector<Time>> times;  // arrivals, if given a clock

 private:
  const sim::Simulator* clock_;
};

/// The server's re-notify period for a persisting conflict
/// (kCallbackRepeatUs in naming_agent.cpp).
constexpr Duration kCallbackRepeatUs = 2'000'000;

class NamesServiceTest : public ::testing::Test {
 protected:
  /// `clients` client nodes and `servers` server nodes.
  void build(std::size_t clients, std::size_t servers,
             sim::NetworkConfig cfg = {}) {
    net_ = std::make_unique<sim::Network>(engine_, cfg);
    for (std::size_t i = 0; i < clients; ++i) {
      client_nodes_.push_back(std::make_unique<transport::NodeRuntime>(*net_));
    }
    for (std::size_t j = 0; j < servers; ++j) {
      server_nodes_.push_back(std::make_unique<transport::NodeRuntime>(*net_));
    }
    std::vector<NodeId> server_ids;
    for (const auto& s : server_nodes_) server_ids.push_back(s->id());
    for (std::size_t j = 0; j < servers; ++j) {
      server_agents_.push_back(std::make_unique<NamingAgent>(
          *server_nodes_[j], server_ids));
      std::vector<NodeId> peers;
      for (std::size_t k = 0; k < servers; ++k) {
        if (k != j) peers.push_back(server_ids[k]);
      }
      server_agents_[j]->enable_server(peers);
    }
    for (std::size_t i = 0; i < clients; ++i) {
      std::vector<NodeId> order = server_ids;
      std::rotate(order.begin(),
                  order.begin() + static_cast<std::ptrdiff_t>(i % servers),
                  order.end());
      client_agents_.push_back(
          std::make_unique<NamingAgent>(*client_nodes_[i], order));
    }
  }

  void run_for(Duration us) { sim_.run_until(sim_.now() + us); }

  /// One client node (id 0) and one server node (id 1) whose replica
  /// starts from `db`, as a restarted server reloads its disk copy.
  void build_with_durable_db(Database db) {
    net_ = std::make_unique<sim::Network>(engine_, sim::NetworkConfig{});
    client_nodes_.push_back(std::make_unique<transport::NodeRuntime>(*net_));
    server_nodes_.push_back(std::make_unique<transport::NodeRuntime>(*net_));
    const std::vector<NodeId> servers{server_nodes_[0]->id()};
    server_agents_.push_back(
        std::make_unique<NamingAgent>(*server_nodes_[0], servers));
    server_agents_[0]->enable_server({}, std::move(db));
    client_agents_.push_back(
        std::make_unique<NamingAgent>(*client_nodes_[0], servers));
  }

  NamingAgent& client(std::size_t i) { return *client_agents_[i]; }
  NamingAgent& server(std::size_t j) { return *server_agents_[j]; }

  sim::Engine engine_;
  sim::Simulator& sim_ = engine_.site(0);
  std::unique_ptr<sim::Network> net_;
  std::vector<std::unique_ptr<transport::NodeRuntime>> client_nodes_;
  std::vector<std::unique_ptr<transport::NodeRuntime>> server_nodes_;
  std::vector<std::unique_ptr<NamingAgent>> client_agents_;
  std::vector<std::unique_ptr<NamingAgent>> server_agents_;
};

TEST_F(NamesServiceTest, SetThenReadReturnsMapping) {
  build(2, 1);
  const LwgId lwg{7};
  client(0).set(lwg, entry(1, 1, 100), {});
  run_for(500'000);
  std::optional<std::vector<MappingEntry>> result;
  client(1).read(lwg, [&](LwgId, const std::vector<MappingEntry>& entries) {
    result = entries;
  });
  run_for(500'000);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].hwg, HwgId{100});
}

TEST_F(NamesServiceTest, ReadOfUnknownLwgReturnsEmpty) {
  build(1, 1);
  std::optional<std::vector<MappingEntry>> result;
  client(0).read(LwgId{99}, [&](LwgId, const std::vector<MappingEntry>& e) {
    result = e;
  });
  run_for(500'000);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

TEST_F(NamesServiceTest, TestSetFirstWriterWins) {
  build(2, 1);
  const LwgId lwg{7};
  std::optional<std::vector<MappingEntry>> r0, r1;
  client(0).testset(lwg, entry(1, 1, 100),
                    [&](LwgId, const std::vector<MappingEntry>& e) { r0 = e; });
  client(1).testset(lwg, entry(2, 1, 200),
                    [&](LwgId, const std::vector<MappingEntry>& e) { r1 = e; });
  run_for(500'000);
  ASSERT_TRUE(r0 && r1);
  ASSERT_EQ(r0->size(), 1u);
  ASSERT_EQ(r1->size(), 1u);
  // Both see the same winner (whoever the server processed first).
  EXPECT_EQ((*r0)[0].hwg, (*r1)[0].hwg);
}

TEST_F(NamesServiceTest, ClientFailsOverToSecondServer) {
  build(1, 2);
  net_->crash(server_nodes_[0]->id());  // the client's preferred server
  const LwgId lwg{7};
  client(0).set(lwg, entry(1, 1, 100), {});
  std::optional<std::vector<MappingEntry>> result;
  client(0).read(lwg, [&](LwgId, const std::vector<MappingEntry>& e) {
    result = e;
  });
  run_for(3'000'000);  // one timeout + retry on server 1
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->size(), 1u);
}

TEST_F(NamesServiceTest, AntiEntropyPropagatesBetweenServers) {
  build(2, 2);
  const LwgId lwg{7};
  client(0).set(lwg, entry(1, 1, 100), {});  // lands on server 0
  run_for(3'000'000);                        // sync interval passes
  EXPECT_TRUE(server(1).database().records.contains(lwg));
}

TEST_F(NamesServiceTest, PartitionedServersReconcileOnHeal) {
  build(2, 2);
  // Client 0 + server 0 on one side; client 1 + server 1 on the other.
  net_->set_partitions({{client_nodes_[0]->id(), server_nodes_[0]->id()},
                        {client_nodes_[1]->id(), server_nodes_[1]->id()}});
  const LwgId lwg{7};
  client(0).set(lwg, entry(1, 1, 100, {0}), {});
  client(1).set(lwg, entry(2, 1, 200, {1}), {});
  run_for(3'000'000);
  // Divergent while partitioned.
  EXPECT_EQ(server(0).database().records.at(lwg).entries.size(), 1u);
  EXPECT_EQ(server(1).database().records.at(lwg).entries.size(), 1u);
  net_->heal();
  run_for(3'000'000);
  // Reconciled: both servers hold both mappings (paper Table 3).
  EXPECT_EQ(server(0).database().records.at(lwg).entries.size(), 2u);
  EXPECT_EQ(server(1).database().records.at(lwg).entries.size(), 2u);
  EXPECT_TRUE(server(0).database().records.at(lwg).has_conflict());
}

TEST_F(NamesServiceTest, ConflictTriggersMultipleMappingsCallback) {
  build(2, 2);
  RecordingListener listener0, listener1;
  client(0).set_conflict_listener(&listener0);
  client(1).set_conflict_listener(&listener1);
  net_->set_partitions({{client_nodes_[0]->id(), server_nodes_[0]->id()},
                        {client_nodes_[1]->id(), server_nodes_[1]->id()}});
  const LwgId lwg{7};
  // Client node ids are 0 and 1: register each as the member of its view so
  // the callbacks have deliverable targets.
  client(0).set(lwg, entry(1, 1, 100, {0}), {});
  client(1).set(lwg, entry(2, 1, 200, {1}), {});
  run_for(3'000'000);
  EXPECT_TRUE(listener0.callbacks.empty());
  net_->heal();
  run_for(4'000'000);
  // Both sides' members were notified with all mappings.
  ASSERT_FALSE(listener0.callbacks.empty());
  ASSERT_FALSE(listener1.callbacks.empty());
  EXPECT_EQ(listener0.callbacks[0].first, lwg);
  EXPECT_EQ(listener0.callbacks[0].second.size(), 2u);
}

TEST_F(NamesServiceTest, CallbackRepeatsWhileConflictPersists) {
  build(1, 1);
  RecordingListener listener;
  client(0).set_conflict_listener(&listener);
  const LwgId lwg{7};
  client(0).set(lwg, entry(1, 1, 100, {0}), {});
  client(0).set(lwg, entry(2, 1, 200, {0}), {});
  run_for(6'000'000);
  // Initial notification plus at least one periodic re-send.
  EXPECT_GE(listener.callbacks.size(), 2u);
}

TEST_F(NamesServiceTest, ResolvingConflictStopsCallbacks) {
  build(1, 1);
  RecordingListener listener;
  client(0).set_conflict_listener(&listener);
  const LwgId lwg{7};
  client(0).set(lwg, entry(1, 1, 100, {0}), {});
  client(0).set(lwg, entry(2, 1, 200, {0}), {});
  run_for(1'000'000);
  ASSERT_FALSE(listener.callbacks.empty());
  // A merged view supersedes both conflicting mappings.
  client(0).set(lwg, entry(1, 9, 200, {0}, 2),
                {ViewId{ProcessId{1}, 1}, ViewId{ProcessId{2}, 1}});
  run_for(500'000);
  const std::size_t count = listener.callbacks.size();
  run_for(8'000'000);
  EXPECT_EQ(listener.callbacks.size(), count);
}

TEST_F(NamesServiceTest, UntouchedConflictRenotifiesWhileOtherLwgsChange) {
  // Without a shared bus every delivery takes the same time, so the gaps
  // between arrivals at the idle client are the gaps between sends.
  sim::NetworkConfig cfg;
  cfg.shared_bus = false;
  build(2, 1, cfg);
  RecordingListener listener(&sim_);
  client(0).set_conflict_listener(&listener);
  const LwgId conflicted{7};
  client(0).set(conflicted, entry(1, 1, 100, {0}), {});
  client(0).set(conflicted, entry(2, 1, 200, {0}), {});
  // Client 1 re-registers another LWG every 100 ms; every such set runs a
  // conflict check, and the untouched conflicted LWG must be re-notified by
  // the first check at which its repeat period has passed.
  const LwgId busy{8};
  for (std::uint64_t k = 1; k <= 100; ++k) {
    client(1).set(busy, entry(3, 1, 300, {1}, k), {});
    run_for(100'000);
  }
  const std::vector<Time>& at = listener.times[conflicted];
  ASSERT_GE(at.size(), 4u);
  for (std::size_t k = 1; k < at.size(); ++k) {
    EXPECT_GE(at[k] - at[k - 1], kCallbackRepeatUs) << "callback " << k;
    EXPECT_LT(at[k] - at[k - 1], kCallbackRepeatUs + 100'000)
        << "callback " << k;
  }
  EXPECT_FALSE(listener.times.contains(busy));
}

TEST_F(NamesServiceTest, DurableConflictIsNotifiedOnFirstCheck) {
  // A server restarted from its disk copy may already hold a conflict that
  // no request will ever touch again.
  const LwgId conflicted{7};
  Database db;
  db.records[conflicted].apply(entry(1, 1, 100, {0}), {});
  db.records[conflicted].apply(entry(2, 1, 200, {0}), {});
  build_with_durable_db(std::move(db));
  RecordingListener listener;
  client(0).set_conflict_listener(&listener);
  // A set on another LWG runs the server's first conflict check well before
  // its first periodic (anti-entropy tick) check at 1 s.
  client(0).set(LwgId{8}, entry(3, 1, 300, {0}), {});
  run_for(500'000);
  ASSERT_EQ(listener.callbacks.size(), 1u);
  EXPECT_EQ(listener.callbacks[0].first, conflicted);
  EXPECT_EQ(listener.callbacks[0].second.size(), 2u);
}

TEST_F(NamesServiceTest, ConflictChecksVisitTouchedAndDueRecordsOnly) {
  // 500 conflicted LWGs that nobody touches, and 1,000 sets on one other
  // LWG. Checking every record on every request would visit ~500,000
  // records; visiting only the touched LWG plus the LWGs whose re-notify is
  // due keeps it linear in requests plus due re-notifies.
  constexpr std::uint64_t kConflicted = 500;
  constexpr std::uint64_t kSets = 1'000;
  Database db;
  for (std::uint64_t g = 1; g <= kConflicted; ++g) {
    db.records[LwgId{g}].apply(entry(1, 1, 100, {0}), {});
    db.records[LwgId{g}].apply(entry(2, 1, 200, {0}), {});
  }
  build_with_durable_db(std::move(db));
  const LwgId busy{kConflicted + 1};
  constexpr Duration kSpacingUs = 2'000;
  for (std::uint64_t k = 1; k <= kSets; ++k) {
    client(0).set(busy, entry(3, 1, 300, {0}, k), {});
    run_for(kSpacingUs);
  }
  run_for(500'000);  // let the last requests land
  const NamingAgent::Stats& st = server(0).stats();
  ASSERT_EQ(st.set_requests, kSets);
  // Every conflicted LWG is notified once per repeat period at most.
  const Duration elapsed = kSets * kSpacingUs + 500'000;
  const std::uint64_t due_rounds = elapsed / kCallbackRepeatUs + 1;
  const std::uint64_t bound =
      (kConflicted + 1)                   // the first check scans all
      + st.set_requests                   // one touched LWG per set
      + kConflicted * due_rounds;         // periodic re-notifies
  EXPECT_LE(st.conflict_checks, bound);
  EXPECT_GE(st.conflict_checks, kConflicted + st.set_requests);
}

TEST_F(NamesServiceTest, SetIsRetriedUntilAcked) {
  sim::NetworkConfig cfg;
  cfg.drop_probability = 0.4;
  cfg.seed = 7;
  net_ = std::make_unique<sim::Network>(engine_, cfg);
  client_nodes_.push_back(std::make_unique<transport::NodeRuntime>(*net_));
  server_nodes_.push_back(std::make_unique<transport::NodeRuntime>(*net_));
  const std::vector<NodeId> servers{server_nodes_[0]->id()};
  server_agents_.push_back(
      std::make_unique<NamingAgent>(*server_nodes_[0], servers));
  server_agents_[0]->enable_server({});
  client_agents_.push_back(
      std::make_unique<NamingAgent>(*client_nodes_[0], servers));
  client(0).set(LwgId{7}, entry(1, 1, 100), {});
  run_for(20'000'000);
  EXPECT_TRUE(server(0).database().records.contains(LwgId{7}));
}

}  // namespace
}  // namespace plwg::names
