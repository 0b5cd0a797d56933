// SimWorld harness: wiring invariants, partition helpers with name-server
// placement, and whole-run determinism (identical configs produce identical
// evolutions — the property every experiment in bench/ relies on).
#include <gtest/gtest.h>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"

namespace plwg::harness {
namespace {

class CountingUser : public lwg::LwgUser {
 public:
  void on_lwg_view(LwgId, const lwg::LwgView& view) override {
    views.push_back(view);
  }
  void on_lwg_data(LwgId, ProcessId src,
                   std::span<const std::uint8_t> data) override {
    deliveries.emplace_back(src, std::vector<std::uint8_t>(data.begin(),
                                                           data.end()));
  }
  std::vector<lwg::LwgView> views;
  std::vector<std::pair<ProcessId, std::vector<std::uint8_t>>> deliveries;
};

TEST(SimWorld, ProcessIdsMatchIndexes) {
  WorldConfig cfg;
  cfg.num_processes = 3;
  SimWorld world(cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(world.pid(i).value(), i);
    EXPECT_EQ(world.node(i).value(), i);
  }
  // Name servers occupy the node ids after the processes.
  EXPECT_EQ(world.server_node(0).value(), 3u);
}

TEST(SimWorld, RunForAdvancesSimulatedTime) {
  SimWorld world(WorldConfig{});
  const Time before = world.simulator().now();
  world.run_for(123'456);
  EXPECT_EQ(world.simulator().now(), before + 123'456);
}

TEST(SimWorld, RunUntilStopsEarlyOnPredicate) {
  SimWorld world(WorldConfig{});
  const Time start = world.simulator().now();
  EXPECT_TRUE(world.run_until(
      [&] { return world.simulator().now() >= start + 50'000; }, 10'000'000));
  EXPECT_LT(world.simulator().now(), start + 1'000'000);
}

TEST(SimWorld, PartitionPlacesServersOnRequestedSides) {
  WorldConfig cfg;
  cfg.num_processes = 4;
  cfg.num_name_servers = 2;
  SimWorld world(cfg);
  world.partition({{0, 1}, {2, 3}}, {0, 1});
  EXPECT_TRUE(world.network().reachable(world.node(0), world.server_node(0)));
  EXPECT_FALSE(world.network().reachable(world.node(0), world.server_node(1)));
  EXPECT_TRUE(world.network().reachable(world.node(2), world.server_node(1)));
  world.heal();
  EXPECT_TRUE(world.network().reachable(world.node(0), world.server_node(1)));
}

TEST(SimWorld, IdenticalConfigsEvolveIdentically) {
  // Run the same scripted scenario twice in fresh worlds; every observable
  // (view ids, delivery order, simulated timestamps of convergence) must
  // match bit for bit.
  auto run_scenario = [] {
    WorldConfig cfg;
    cfg.num_processes = 4;
    cfg.num_name_servers = 2;
    SimWorld world(cfg);
    std::vector<CountingUser> users(4);
    const LwgId id{9};
    for (std::size_t i = 0; i < 4; ++i) world.lwg(i).join(id, users[i]);
    world.run_until(
        [&] {
          for (std::size_t i = 0; i < 4; ++i) {
            const lwg::LwgView* v = world.lwg(i).view_of(id);
            if (v == nullptr || v->members.size() != 4) return false;
          }
          return true;
        },
        60'000'000);
    world.lwg(1).send(id, {1, 2, 3});
    world.partition({{0, 1}, {2, 3}}, {0, 1});
    world.run_for(10'000'000);
    world.heal();
    world.run_until(
        [&] {
          const lwg::LwgView* v = world.lwg(0).view_of(id);
          return v != nullptr && v->members.size() == 4;
        },
        120'000'000);
    struct Observation {
      Time end_time;
      lwg::LwgView final_view;
      std::size_t views_seen;
      std::size_t deliveries;
    };
    return Observation{world.simulator().now(), *world.lwg(0).view_of(id),
                       users[0].views.size(), users[0].deliveries.size()};
  };
  const auto a = run_scenario();
  const auto b = run_scenario();
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_TRUE(a.final_view == b.final_view);
  EXPECT_EQ(a.views_seen, b.views_seen);
  EXPECT_EQ(a.deliveries, b.deliveries);
}

TEST(SimWorld, CrashStopsAProcess) {
  WorldConfig cfg;
  cfg.num_processes = 2;
  SimWorld world(cfg);
  world.crash(1);
  EXPECT_TRUE(world.network().crashed(world.node(1)));
  EXPECT_FALSE(world.network().crashed(world.node(0)));
}

MemberSet pids(const SimWorld& world, const std::vector<std::size_t>& members) {
  MemberSet out;
  for (std::size_t i : members) out.insert(world.pid(i));
  return out;
}

TEST(SimWorldFormation, FormLwgConvergesEveryListedProcess) {
  WorldConfig cfg;
  cfg.num_processes = 4;
  SimWorld world(cfg);
  lwg::NoopUser user;
  const LwgId id{1};
  const std::vector<std::size_t> all = process_range(0, 4);
  ASSERT_TRUE(world.form_lwg(id, all, user));
  EXPECT_TRUE(world.lwg_formed(id, all));
  for (std::size_t i : all) {
    const lwg::LwgView* v = world.lwg(i).view_of(id);
    ASSERT_NE(v, nullptr) << "process " << i;
    EXPECT_EQ(v->members, pids(world, all)) << "process " << i;
  }
}

TEST(SimWorldFormation, FormLwgFailsWhenAMemberIsCutOffFromTheFounder) {
  WorldConfig cfg;
  cfg.num_processes = 4;
  SimWorld world(cfg);
  world.partition({{0, 1, 2}, {3}});
  lwg::NoopUser user;
  const LwgId id{1};
  const Time start = world.simulator().now();
  EXPECT_FALSE(world.form_lwg(id, process_range(0, 4), user));
  // The founder's wait ends early; the convergence wait spends its budget.
  EXPECT_GE(world.simulator().now(), start + SimWorld::kFormBudgetUs);
  EXPECT_TRUE(world.lwg_formed(id, {0, 1, 2}));
}

TEST(SimWorldFormation, LwgFormedRejectsAViewOfAnotherMemberSet) {
  WorldConfig cfg;
  cfg.num_processes = 4;
  cfg.num_name_servers = 2;
  SimWorld world(cfg);
  lwg::NoopUser user;
  const LwgId id{1};
  const std::vector<std::size_t> all = process_range(0, 4);
  ASSERT_TRUE(world.form_lwg(id, all, user));
  // Every listed process holds a view, but of all four.
  EXPECT_FALSE(world.lwg_formed(id, {0, 1, 2}));

  world.partition({{0, 1}, {2, 3}}, {0, 1});
  ASSERT_TRUE(world.run_until(
      [&] {
        return world.lwg_formed(id, {0, 1}) && world.lwg_formed(id, {2, 3});
      },
      60'000'000));
  // Each side holds a view of its own half, not of all four.
  EXPECT_FALSE(world.lwg_formed(id, all));
}

}  // namespace
}  // namespace plwg::harness
