// Crash handling in the heavy-weight group layer: failure detection, view
// exclusion, coordinator takeover, and message stability across crashes.
#include <gtest/gtest.h>

#include "vsync_fixture.hpp"

namespace plwg::vsync::testing {
namespace {

class VsyncFailureTest : public VsyncFixture {
 protected:
  /// Builds `total` processes and forms a group over the first `n`.
  HwgId form_group(std::size_t n, std::size_t total = 0,
                   VsyncConfig vs_cfg = {}) {
    build(total == 0 ? n : total, {}, vs_cfg);
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
};

TEST(VsyncConfigTest, SuspectsOnlySilenceStrictlyLongerThanTheTimeout) {
  constexpr VsyncConfig cfg{.suspect_timeout_us = 1'000'000};
  // Silence of exactly the timeout is tolerated; one microsecond more is not.
  EXPECT_FALSE(cfg.suspects(1'000'000));
  EXPECT_TRUE(cfg.suspects(1'000'001));
}

TEST_F(VsyncFailureTest, SuspectTimeoutSetsWhenACrashedMemberIsExcluded) {
  VsyncConfig cfg;
  cfg.suspect_timeout_us = 3'000'000;
  const HwgId gid = form_group(4, 0, cfg);
  const Time crashed_at = sim_.now();
  net_->crash(node(3));
  // Well past the default 1 s timeout the crashed member is still in view...
  sim_.run_until(crashed_at + 2'500'000);
  ASSERT_NE(host(0).view_of(gid), nullptr);
  EXPECT_TRUE(host(0).view_of(gid)->members.contains(pid(3)));
  // ...and soon after the configured 3 s it is gone at every survivor.
  sim_.run_until(crashed_at + 4'500'000);
  EXPECT_TRUE(converged(gid, {0, 1, 2}, members_of({0, 1, 2})));
}

TEST_F(VsyncFailureTest, CrashedMemberIsExcluded) {
  const HwgId gid = form_group(4);
  net_->crash(node(3));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2}, members_of({0, 1, 2})); },
      10'000'000));
}

TEST_F(VsyncFailureTest, CrashedCoordinatorIsReplaced) {
  const HwgId gid = form_group(4);
  net_->crash(node(0));  // process 0 is both sequencer and coordinator
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {1, 2, 3}, members_of({1, 2, 3})); },
      10'000'000));
  // The group still delivers traffic under the new sequencer.
  host(1).send(gid, payload(1));
  ASSERT_TRUE(run_until(
      [&] {
        return user(2).total_delivered(gid) >= 1 &&
               user(3).total_delivered(gid) >= 1;
      },
      5'000'000));
}

TEST_F(VsyncFailureTest, DoubleCrashConvergesToSurvivors) {
  const HwgId gid = form_group(5);
  net_->crash(node(0));
  net_->crash(node(2));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {1, 3, 4}, members_of({1, 3, 4})); },
      15'000'000));
}

TEST_F(VsyncFailureTest, CrashDuringTrafficPreservesAgreementOnDeliveries) {
  const HwgId gid = form_group(4);
  for (int m = 0; m < 20; ++m) {
    for (std::size_t i = 0; i < 4; ++i) {
      host(i).send(gid, payload(static_cast<std::uint8_t>(m)));
    }
  }
  run_for(30'000);  // part of the traffic is in flight
  net_->crash(node(0));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {1, 2, 3}, members_of({1, 2, 3})); },
      15'000'000));
  // Virtual synchrony: the survivors delivered identical sequences in the
  // view they shared (the one before the exclusion view).
  const auto& e1 = user(1).log(gid).epochs;
  const auto& e2 = user(2).log(gid).epochs;
  const auto& e3 = user(3).log(gid).epochs;
  ASSERT_GE(e1.size(), 2u);
  const auto& d1 = e1[e1.size() - 2].delivered;
  const auto& d2 = e2[e2.size() - 2].delivered;
  const auto& d3 = e3[e3.size() - 2].delivered;
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d2, d3);
}

TEST_F(VsyncFailureTest, SurvivorOfTotalCrashKeepsSingletonView) {
  const HwgId gid = form_group(3);
  net_->crash(node(1));
  net_->crash(node(2));
  ASSERT_TRUE(run_until([&] { return converged(gid, {0}, members_of({0})); },
                        15'000'000));
  host(0).send(gid, payload(8));
  ASSERT_TRUE(
      run_until([&] { return user(0).total_delivered(gid) >= 1; }, 2'000'000));
}

TEST_F(VsyncFailureTest, JoinThroughDeadContactSucceedsViaLiveOne) {
  const HwgId gid = form_group(3, /*total=*/4);
  net_->crash(node(0));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {1, 2}, members_of({1, 2})); }, 15'000'000));
  // The joiner's contact list names the dead coordinator first.
  host(3).join_group(gid, MemberSet{pid(0), pid(1)}, user(3));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {1, 2, 3}, members_of({1, 2, 3})); },
      15'000'000));
}

TEST_F(VsyncFailureTest, MessageFromCrashedSenderStillStabilizes) {
  const HwgId gid = form_group(3);
  host(0).send(gid, payload(77));
  run_for(400);  // the ORDERED multicast is on the wire / partially received
  net_->crash(node(0));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {1, 2}, members_of({1, 2})); }, 15'000'000));
  EXPECT_EQ(user(1).total_delivered(gid), user(2).total_delivered(gid));
}

TEST_F(VsyncFailureTest, LossyNetworkStillDeliversEverythingInOrder) {
  sim::NetworkConfig net_cfg;
  net_cfg.drop_probability = 0.03;
  net_cfg.jitter_us = 300;
  build(3, net_cfg);
  const HwgId gid = host(0).allocate_group_id();
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, user(1));
  host(2).join_group(gid, MemberSet{pid(0)}, user(2));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2}, members_of({0, 1, 2})); },
      20'000'000));
  constexpr int kMsgs = 30;
  for (int m = 0; m < kMsgs; ++m) {
    host(m % 3).send(gid, payload(static_cast<std::uint8_t>(m)));
  }
  ASSERT_TRUE(run_until(
      [&] {
        // NACK repair (and, if a view change intervened, the flush cut)
        // must eventually deliver everything everywhere.
        return user(0).total_delivered(gid) >= kMsgs &&
               user(1).total_delivered(gid) >= kMsgs &&
               user(2).total_delivered(gid) >= kMsgs;
      },
      30'000'000));
  // Identical delivery order at every member, view epoch by view epoch.
  EXPECT_EQ(user(0).log(gid).epochs.back().delivered,
            user(1).log(gid).epochs.back().delivered);
}

}  // namespace
}  // namespace plwg::vsync::testing
