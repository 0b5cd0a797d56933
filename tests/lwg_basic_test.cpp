// Basic light-weight group behaviour across all three service modes:
// join/view/send/leave through the Table 1 interface, mapping via the
// naming service, and the sharing property (many LWGs on few HWGs).
#include <gtest/gtest.h>

#include "lwg_fixture.hpp"

namespace plwg::lwg::testing {
namespace {

harness::WorldConfig base_config(std::size_t processes, MappingMode mode) {
  harness::WorldConfig cfg;
  cfg.num_processes = processes;
  cfg.num_name_servers = 1;
  cfg.lwg.mode = mode;
  if (mode == MappingMode::kStaticSingle) {
    cfg.lwg.static_hwg = HwgId{0xFFFF'0001};
    MemberSet contacts;
    for (std::size_t i = 0; i < processes; ++i) {
      contacts.insert(ProcessId{static_cast<std::uint32_t>(i)});
    }
    cfg.lwg.static_contacts = contacts;
  }
  return cfg;
}

class LwgBasicTest : public LwgFixture {};

TEST_F(LwgBasicTest, FounderGetsSingletonView) {
  build(base_config(2, MappingMode::kDynamic));
  const LwgId id{1};
  lwg(0).join(id, user(0));
  ASSERT_TRUE(run_until([&] { return lwg(0).view_of(id) != nullptr; },
                        10'000'000));
  const LwgView* v = lwg(0).view_of(id);
  EXPECT_EQ(v->members, members_of({0}));
  EXPECT_EQ(v->coordinator(), pid(0));
}

TEST_F(LwgBasicTest, TwoMembersConvergeOnOneView) {
  build(base_config(2, MappingMode::kDynamic));
  const LwgId id{1};
  form_lwg(id, {0, 1});
  // Both map the LWG onto the same HWG.
  EXPECT_EQ(lwg(0).hwg_of(id), lwg(1).hwg_of(id));
}

TEST_F(LwgBasicTest, DataReachesAllMembersVirtuallySynchronously) {
  build(base_config(3, MappingMode::kDynamic));
  const LwgId id{1};
  form_lwg(id, {0, 1, 2});
  lwg(1).send(id, payload(42));
  ASSERT_TRUE(run_until(
      [&] {
        return user(0).total_delivered(id) == 1 &&
               user(1).total_delivered(id) == 1 &&
               user(2).total_delivered(id) == 1;
      },
      10'000'000));
  const auto& d = user(2).log(id).epochs.back().delivered;
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].first, pid(1));
  EXPECT_EQ(d[0].second[0], 42);
}

TEST_F(LwgBasicTest, SendersAreTotallyOrderedWithinLwg) {
  build(base_config(3, MappingMode::kDynamic));
  const LwgId id{1};
  form_lwg(id, {0, 1, 2});
  for (int m = 0; m < 8; ++m) {
    for (std::size_t i = 0; i < 3; ++i) {
      lwg(i).send(id, payload(static_cast<std::uint8_t>(i * 10 + m)));
    }
  }
  ASSERT_TRUE(run_until(
      [&] {
        return user(0).total_delivered(id) == 24 &&
               user(1).total_delivered(id) == 24 &&
               user(2).total_delivered(id) == 24;
      },
      10'000'000));
  EXPECT_EQ(user(0).log(id).epochs.back().delivered,
            user(1).log(id).epochs.back().delivered);
  EXPECT_EQ(user(1).log(id).epochs.back().delivered,
            user(2).log(id).epochs.back().delivered);
}

TEST_F(LwgBasicTest, OverlappingLwgsShareOneHwg) {
  build(base_config(4, MappingMode::kDynamic));
  // Three LWGs with identical membership: the optimistic mapping puts them
  // all on the first LWG's HWG (resource sharing).
  form_lwg(LwgId{1}, {0, 1, 2, 3});
  form_lwg(LwgId{2}, {0, 1, 2, 3});
  form_lwg(LwgId{3}, {0, 1, 2, 3});
  const auto h1 = lwg(0).hwg_of(LwgId{1});
  const auto h2 = lwg(0).hwg_of(LwgId{2});
  const auto h3 = lwg(0).hwg_of(LwgId{3});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2, h3);
  EXPECT_EQ(lwg(0).member_hwgs().size(), 1u);
}

TEST_F(LwgBasicTest, LeaveShrinksLwgView) {
  build(base_config(3, MappingMode::kDynamic));
  const LwgId id{1};
  form_lwg(id, {0, 1, 2});
  lwg(2).leave(id);
  ASSERT_TRUE(run_until(
      [&] { return lwg_converged(id, {0, 1}, members_of({0, 1})); },
      10'000'000));
  EXPECT_EQ(lwg(2).view_of(id), nullptr);
}

TEST_F(LwgBasicTest, CoordinatorLeaveHandsOver) {
  build(base_config(3, MappingMode::kDynamic));
  const LwgId id{1};
  form_lwg(id, {0, 1, 2});
  lwg(0).leave(id);  // process 0 coordinates (smallest pid)
  ASSERT_TRUE(run_until(
      [&] { return lwg_converged(id, {1, 2}, members_of({1, 2})); },
      10'000'000));
  lwg(1).send(id, payload(7));
  ASSERT_TRUE(
      run_until([&] { return user(2).total_delivered(id) >= 1; }, 5'000'000));
}

TEST_F(LwgBasicTest, CrashedMemberIsRemovedFromLwgView) {
  build(base_config(3, MappingMode::kDynamic));
  const LwgId id{1};
  form_lwg(id, {0, 1, 2});
  world().crash(2);
  ASSERT_TRUE(run_until(
      [&] { return lwg_converged(id, {0, 1}, members_of({0, 1})); },
      20'000'000));
}

TEST_F(LwgBasicTest, PerGroupModeCreatesOneHwgPerLwg) {
  build(base_config(3, MappingMode::kPerGroup));
  form_lwg(LwgId{1}, {0, 1, 2});
  form_lwg(LwgId{2}, {0, 1, 2});
  // Two user groups → two distinct HWGs at each member.
  EXPECT_NE(lwg(0).hwg_of(LwgId{1}), lwg(0).hwg_of(LwgId{2}));
  EXPECT_EQ(lwg(0).member_hwgs().size(), 2u);
}

TEST_F(LwgBasicTest, StaticModeMapsEverythingOnTheSharedHwg) {
  build(base_config(4, MappingMode::kStaticSingle));
  form_lwg(LwgId{1}, {0, 1});
  form_lwg(LwgId{2}, {2, 3});
  EXPECT_EQ(lwg(0).hwg_of(LwgId{1}), lwg(2).hwg_of(LwgId{2}));
  // Disjoint LWGs, yet all four processes share the one HWG.
  const vsync::View* hv = world().vsync(0).view_of(HwgId{0xFFFF'0001});
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->members.size(), 4u);
}

TEST_F(LwgBasicTest, StaticModeFiltersForeignTraffic) {
  build(base_config(4, MappingMode::kStaticSingle));
  form_lwg(LwgId{1}, {0, 1});
  form_lwg(LwgId{2}, {2, 3});
  lwg(0).send(LwgId{1}, payload(1));
  ASSERT_TRUE(
      run_until([&] { return user(1).total_delivered(LwgId{1}) == 1; },
                10'000'000));
  run_for(1'000'000);
  // Members of LWG 2 never see LWG 1 data but paid the filtering cost.
  EXPECT_EQ(user(2).total_delivered(LwgId{1}), 0u);
  EXPECT_EQ(user(3).total_delivered(LwgId{1}), 0u);
  EXPECT_GT(lwg(2).stats().data_filtered, 0u);
}

TEST_F(LwgBasicTest, DisjointLwgsGetSeparateHwgsInDynamicMode) {
  build(base_config(4, MappingMode::kDynamic));
  form_lwg(LwgId{1}, {0, 1});
  form_lwg(LwgId{2}, {2, 3});
  EXPECT_NE(lwg(0).hwg_of(LwgId{1}), lwg(2).hwg_of(LwgId{2}));
}

TEST_F(LwgBasicTest, JoinViaNamingServiceFindsExistingGroup) {
  build(base_config(3, MappingMode::kDynamic));
  const LwgId id{1};
  form_lwg(id, {0, 1});
  // A third process joins purely through the naming service mapping.
  lwg(2).join(id, user(2));
  ASSERT_TRUE(run_until(
      [&] { return lwg_converged(id, {0, 1, 2}, members_of({0, 1, 2})); },
      15'000'000));
}

TEST_F(LwgBasicTest, NsRecordsMappingForTheLwg) {
  build(base_config(2, MappingMode::kDynamic));
  const LwgId id{1};
  form_lwg(id, {0, 1});
  run_for(2'000'000);  // let ns.set land and replicate
  const auto& db = world().server(0).database();
  ASSERT_TRUE(db.records.contains(id));
  const auto& rec = db.records.at(id);
  ASSERT_FALSE(rec.entries.empty());
  EXPECT_FALSE(rec.has_conflict());
}

TEST_F(LwgBasicTest, ViewChangeUpcallsCarryGrowingMembership) {
  build(base_config(3, MappingMode::kDynamic));
  const LwgId id{1};
  lwg(0).join(id, user(0));
  ASSERT_TRUE(
      run_until([&] { return lwg(0).view_of(id) != nullptr; }, 10'000'000));
  lwg(1).join(id, user(1));
  ASSERT_TRUE(run_until(
      [&] { return lwg_converged(id, {0, 1}, members_of({0, 1})); },
      10'000'000));
  lwg(2).join(id, user(2));
  ASSERT_TRUE(run_until(
      [&] { return lwg_converged(id, {0, 1, 2}, members_of({0, 1, 2})); },
      10'000'000));
  const auto& epochs = user(0).log(id).epochs;
  ASSERT_GE(epochs.size(), 3u);
  EXPECT_LT(epochs[0].view.members.size(), epochs.back().view.members.size());
}

// A malformed LWG message inside a valid HWG delivery is the LWG layer's to
// count and drop: nothing throws back through the HWG delivery loop (which
// the transport would count as a vsync decode error), the user never sees
// it, and the next message is delivered as usual.
TEST_F(LwgBasicTest, MalformedLwgMessageIsDroppedAndCountedByTheLwgLayer) {
  build(base_config(3, MappingMode::kDynamic));
  const LwgId id{1};
  form_lwg(id, {0, 1, 2});
  const HwgId gid = *lwg(1).hwg_of(id);
  // A JOIN cut short after its type byte, ordered on the HWG like any
  // LWG message, then an ordinary DATA from the same sender.
  world().vsync(1).send(gid, {static_cast<std::uint8_t>(JoinMsg::kType), 1});
  lwg(1).send(id, payload(7));
  ASSERT_TRUE(run_until(
      [&] {
        return user(0).total_delivered(id) == 1 &&
               user(1).total_delivered(id) == 1 &&
               user(2).total_delivered(id) == 1;
      },
      10'000'000));
  run_for(1'000'000);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(lwg(i).stats().decode_errors, 1u) << "process " << i;
    EXPECT_EQ(world().vsync(i).node().stats().decode_errors, 0u)
        << "process " << i;
    EXPECT_EQ(user(i).total_delivered(id), 1u) << "process " << i;
  }
}

}  // namespace
}  // namespace plwg::lwg::testing
