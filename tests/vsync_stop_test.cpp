// The Stop / StopOk handshake (paper Table 1): the flush must wait for the
// user's confirmation, and sends issued between Stop and StopOk are queued.
#include <gtest/gtest.h>

#include "vsync_fixture.hpp"

namespace plwg::vsync::testing {
namespace {

/// A user that does NOT answer Stop until told to.
class SlowStopUser : public GroupUser {
 public:
  explicit SlowStopUser(VsyncHost& host) : host_(host) {}
  void on_view(HwgId, const View& view) override { views.push_back(view); }
  void on_data(HwgId, ProcessId, std::span<const std::uint8_t> data) override {
    delivered.push_back(data[0]);
  }
  void on_stop(HwgId gid) override {
    pending_stops.push_back(gid);
  }
  void release_stops() {
    for (HwgId gid : pending_stops) host_.stop_ok(gid);
    pending_stops.clear();
  }
  VsyncHost& host_;
  std::vector<View> views;
  std::vector<std::uint8_t> delivered;
  std::vector<HwgId> pending_stops;
};

class VsyncStopTest : public VsyncFixture {};

TEST_F(VsyncStopTest, FlushWaitsForStopOk) {
  build(2);
  const HwgId gid = host(0).allocate_group_id();
  SlowStopUser slow(host(1));
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, slow);
  ASSERT_TRUE(run_until(
      [&] {
        return !slow.views.empty() && slow.views.back().members.size() == 2;
      },
      10'000'000));
  const std::size_t views_before = slow.views.size();
  host(0).endpoint(gid)->force_flush();
  run_for(1'000'000);
  // The flush is stalled on the unanswered Stop: no new view anywhere.
  ASSERT_FALSE(slow.pending_stops.empty());
  EXPECT_EQ(slow.views.size(), views_before);
  const View* v0 = host(0).view_of(gid);
  ASSERT_NE(v0, nullptr);
  // Releasing the StopOk lets the flush complete.
  slow.release_stops();
  ASSERT_TRUE(run_until([&] { return slow.views.size() > views_before; },
                        10'000'000));
  EXPECT_EQ(slow.views.back().members, members_of({0, 1}));
}

TEST_F(VsyncStopTest, SendsBetweenStopAndStopOkAreDeliveredNextView) {
  build(2);
  const HwgId gid = host(0).allocate_group_id();
  SlowStopUser slow(host(1));
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, slow);
  ASSERT_TRUE(run_until(
      [&] {
        return !slow.views.empty() && slow.views.back().members.size() == 2;
      },
      10'000'000));
  host(0).endpoint(gid)->force_flush();
  ASSERT_TRUE(
      run_until([&] { return !slow.pending_stops.empty(); }, 5'000'000));
  // The stopped member submits a message mid-flush: queued, not lost.
  host(1).send(gid, payload(0x55));
  slow.release_stops();
  ASSERT_TRUE(run_until(
      [&] {
        return !slow.delivered.empty() && user(0).total_delivered(gid) >= 1;
      },
      10'000'000));
  EXPECT_EQ(slow.delivered.back(), 0x55);
}

TEST_F(VsyncStopTest, UnansweredStopIsEventuallyForcedOutByTimeout) {
  // A member that never answers Stop stalls the flush until the initiator's
  // retry machinery suspects it — liveness is preserved at the cost of
  // excluding the unresponsive member (virtual-partition semantics).
  build(3);
  const HwgId gid = host(0).allocate_group_id();
  SlowStopUser mute(host(2));
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, user(1));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1}, members_of({0, 1})); }, 10'000'000));
  host(2).join_group(gid, MemberSet{pid(0)}, mute);
  ASSERT_TRUE(run_until(
      [&] {
        return !mute.views.empty() && mute.views.back().members.size() == 3;
      },
      10'000'000));
  host(0).endpoint(gid)->force_flush();
  // mute never calls stop_ok.
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1}, members_of({0, 1})); },
      30'000'000));
}

}  // namespace
}  // namespace plwg::vsync::testing
