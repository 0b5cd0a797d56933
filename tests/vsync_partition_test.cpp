// Partitionable operation of the heavy-weight group layer: view splits under
// partition, concurrent views, merge probes, and view merging on heal
// (paper Sect. 5.1 requirements on the HWG substrate).
#include <gtest/gtest.h>

#include <algorithm>

#include "vsync_fixture.hpp"

namespace plwg::vsync::testing {
namespace {

class VsyncPartitionTest : public VsyncFixture {
 protected:
  HwgId form_group(std::size_t n) {
    build(n);
    const HwgId gid = host(0).allocate_group_id();
    host(0).create_group(gid, user(0));
    std::vector<std::size_t> all{0};
    MemberSet members{pid(0)};
    for (std::size_t i = 1; i < n; ++i) {
      host(i).join_group(gid, MemberSet{pid(0)}, user(i));
      all.push_back(i);
      members.insert(pid(i));
    }
    EXPECT_TRUE(
        run_until([&] { return converged(gid, all, members); }, 10'000'000));
    return gid;
  }

  void split(const std::vector<std::vector<std::size_t>>& classes) {
    std::vector<std::vector<NodeId>> node_classes;
    for (const auto& cls : classes) {
      std::vector<NodeId> nodes;
      for (std::size_t i : cls) nodes.push_back(node(i));
      node_classes.push_back(std::move(nodes));
    }
    net_->set_partitions(node_classes);
  }
};

TEST_F(VsyncPartitionTest, PartitionSplitsIntoConcurrentViews) {
  const HwgId gid = form_group(4);
  split({{0, 1}, {2, 3}});
  ASSERT_TRUE(run_until(
      [&] {
        return converged(gid, {0, 1}, members_of({0, 1})) &&
               converged(gid, {2, 3}, members_of({2, 3}));
      },
      15'000'000));
  // The two sides hold *different* view identifiers.
  const View* a = host(0).view_of(gid);
  const View* b = host(2).view_of(gid);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(a->id == b->id);
}

TEST_F(VsyncPartitionTest, BothSidesRemainOperational) {
  const HwgId gid = form_group(4);
  split({{0, 1}, {2, 3}});
  ASSERT_TRUE(run_until(
      [&] {
        return converged(gid, {0, 1}, members_of({0, 1})) &&
               converged(gid, {2, 3}, members_of({2, 3}));
      },
      15'000'000));
  const auto before0 = user(1).total_delivered(gid);
  const auto before2 = user(3).total_delivered(gid);
  host(0).send(gid, payload(1));
  host(2).send(gid, payload(2));
  ASSERT_TRUE(run_until(
      [&] {
        return user(1).total_delivered(gid) > before0 &&
               user(3).total_delivered(gid) > before2;
      },
      5'000'000));
}

TEST_F(VsyncPartitionTest, HealMergesViews) {
  const HwgId gid = form_group(4);
  split({{0, 1}, {2, 3}});
  ASSERT_TRUE(run_until(
      [&] {
        return converged(gid, {0, 1}, members_of({0, 1})) &&
               converged(gid, {2, 3}, members_of({2, 3}));
      },
      15'000'000));
  net_->heal();
  ASSERT_TRUE(run_until(
      [&] {
        return converged(gid, {0, 1, 2, 3}, members_of({0, 1, 2, 3}));
      },
      20'000'000));
  // The merged view's predecessors record both constituent views (the
  // genealogy the naming service GC relies on).
  const View* merged = host(0).view_of(gid);
  ASSERT_NE(merged, nullptr);
  EXPECT_GE(merged->predecessors.size(), 2u);
}

// Regression: a heal that lands while the suspecting side is mid-flush
// must not orphan that flush. One-way cuts make 1 and 3 stop hearing 0 and
// 2 while 0 and 4 still hear everyone. p1, acting coordinator of {1,3,4}
// once it suspects 0, starts a flush that excludes 0 and 2; p3 accepts it,
// p4 (which trusts 0) rejects it, so it waits for a retry. The cuts heal
// inside that wait. When hearing 0 again cleared the flushing members'
// suspicion, p1 stopped being the acting coordinator, its flush restart
// returned early, and p1 and p3 stayed flushing forever while 0, 2 and 4
// never learned of it.
TEST_F(VsyncPartitionTest, HealMidFlushDoesNotOrphanTheFlush) {
  const HwgId gid = form_group(5);
  for (std::size_t from : {0, 2}) {
    for (std::size_t to : {1, 3}) {
      net_->set_link_fault(node(from), node(to),
                           sim::LinkFault{.blocked = true});
    }
  }
  auto flushing = [&](std::size_t i) {
    const GroupEndpoint* ep = host(i).endpoint(gid);
    return ep != nullptr && ep->state() != GroupEndpoint::State::kActive;
  };
  ASSERT_TRUE(run_until([&] { return flushing(1) && flushing(3); },
                        10'000'000))
      << "p1 never started the flush that excludes 0";
  ASSERT_FALSE(flushing(0));
  run_for(100'000);  // p4's rejection is in; p1 waits to retry
  net_->clear_link_faults();

  const std::vector<std::size_t> all{0, 1, 2, 3, 4};
  EXPECT_TRUE(run_until(
      [&] {
        return converged(gid, all, members_of({0, 1, 2, 3, 4})) &&
               std::ranges::none_of(all, flushing);
      },
      60'000'000));
  for (std::size_t i : all) EXPECT_FALSE(flushing(i)) << "p" << i;
}

TEST_F(VsyncPartitionTest, MergedGroupCarriesTraffic) {
  const HwgId gid = form_group(4);
  split({{0, 1}, {2, 3}});
  ASSERT_TRUE(run_until(
      [&] {
        return converged(gid, {0, 1}, members_of({0, 1})) &&
               converged(gid, {2, 3}, members_of({2, 3}));
      },
      15'000'000));
  net_->heal();
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2, 3}, members_of({0, 1, 2, 3})); },
      20'000'000));
  const auto before = user(3).total_delivered(gid);
  host(0).send(gid, payload(5));
  ASSERT_TRUE(run_until(
      [&] { return user(3).total_delivered(gid) > before; }, 5'000'000));
}

TEST_F(VsyncPartitionTest, ThreeWayPartitionConvergesAfterHeal) {
  const HwgId gid = form_group(6);
  split({{0, 1}, {2, 3}, {4, 5}});
  ASSERT_TRUE(run_until(
      [&] {
        return converged(gid, {0, 1}, members_of({0, 1})) &&
               converged(gid, {2, 3}, members_of({2, 3})) &&
               converged(gid, {4, 5}, members_of({4, 5}));
      },
      20'000'000));
  net_->heal();
  // Pairwise merges converge in a couple of probe rounds.
  ASSERT_TRUE(run_until(
      [&] {
        return converged(gid, {0, 1, 2, 3, 4, 5},
                         members_of({0, 1, 2, 3, 4, 5}));
      },
      40'000'000));
}

TEST_F(VsyncPartitionTest, SingletonPartitionRejoins) {
  const HwgId gid = form_group(3);
  split({{0, 1}, {2}});
  ASSERT_TRUE(run_until(
      [&] {
        return converged(gid, {0, 1}, members_of({0, 1})) &&
               converged(gid, {2}, members_of({2}));
      },
      15'000'000));
  net_->heal();
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2}, members_of({0, 1, 2})); },
      20'000'000));
}

TEST_F(VsyncPartitionTest, RepeatedPartitionHealCyclesStayConsistent) {
  const HwgId gid = form_group(4);
  for (int cycle = 0; cycle < 3; ++cycle) {
    split({{0, 1}, {2, 3}});
    ASSERT_TRUE(run_until(
        [&] {
          return converged(gid, {0, 1}, members_of({0, 1})) &&
                 converged(gid, {2, 3}, members_of({2, 3}));
        },
        20'000'000))
        << "cycle " << cycle;
    net_->heal();
    ASSERT_TRUE(run_until(
        [&] {
          return converged(gid, {0, 1, 2, 3}, members_of({0, 1, 2, 3}));
        },
        30'000'000))
        << "cycle " << cycle;
  }
}

TEST_F(VsyncPartitionTest, PartitionDuringTrafficKeepsPerSideAgreement) {
  const HwgId gid = form_group(4);
  for (int m = 0; m < 10; ++m) {
    for (std::size_t i = 0; i < 4; ++i) {
      host(i).send(gid, payload(static_cast<std::uint8_t>(m)));
    }
  }
  run_for(20'000);
  split({{0, 1}, {2, 3}});
  ASSERT_TRUE(run_until(
      [&] {
        return converged(gid, {0, 1}, members_of({0, 1})) &&
               converged(gid, {2, 3}, members_of({2, 3}));
      },
      20'000'000));
  // Within each side, processes agree on what was delivered in the shared
  // pre-partition view.
  auto deliveries_in_epoch = [&](std::size_t i, std::size_t back_off) {
    const auto& epochs = user(i).log(gid).epochs;
    return epochs[epochs.size() - 1 - back_off].delivered;
  };
  EXPECT_EQ(deliveries_in_epoch(0, 1), deliveries_in_epoch(1, 1));
  EXPECT_EQ(deliveries_in_epoch(2, 1), deliveries_in_epoch(3, 1));
}

}  // namespace
}  // namespace plwg::vsync::testing
