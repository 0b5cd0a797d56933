// Unit and parameterized tests of the paper Fig. 1 mapping heuristics as
// pure functions: share, interference, and shrink rules with the k_m / k_c
// parameters.
#include "lwg/policy.hpp"

#include <gtest/gtest.h>

#include <array>

namespace plwg::lwg::policy {
namespace {

MemberSet make(std::uint32_t lo, std::uint32_t hi) {
  MemberSet set;
  for (std::uint32_t i = lo; i <= hi; ++i) set.insert(ProcessId{i});
  return set;
}

const PolicyParams kPaperParams{4.0, 4.0};

TEST(ShareRule, IdenticalMembershipCollapses) {
  // n1 = n2 = 0, k = 4: k > sqrt(0) and neither is a minority subset.
  const MemberSet g = make(1, 4);
  EXPECT_TRUE(should_collapse(g, g, kPaperParams));
}

TEST(ShareRule, DisjointGroupsDoNotCollapse) {
  // k = 0: the overlap test fails immediately.
  EXPECT_FALSE(should_collapse(make(1, 4), make(5, 8), kPaperParams));
}

TEST(ShareRule, HeavyOverlapCollapses) {
  // |g1| = 6 (1-6), |g2| = 6 (3-8): k = 4, n1 = n2 = 2,
  // sqrt(2*2*2) = 2.83 < 4.
  EXPECT_TRUE(should_collapse(make(1, 6), make(3, 8), kPaperParams));
}

TEST(ShareRule, LightOverlapDoesNotCollapse) {
  // |g1| = 5 (1-5), |g2| = 5 (5-9): k = 1, n1 = n2 = 4,
  // sqrt(2*4*4) = 5.66 > 1.
  EXPECT_FALSE(should_collapse(make(1, 5), make(5, 9), kPaperParams));
}

TEST(ShareRule, MinoritySubsetIsExemptFromCollapse) {
  // g1 = {1,2} ⊆ g2 = {1..8}: |g1| = 2 <= 8/4, so even though k = 2 >
  // sqrt(0), the minority clause blocks the collapse (the small group would
  // suffer interference inside the big one).
  EXPECT_FALSE(should_collapse(make(1, 2), make(1, 8), kPaperParams));
}

TEST(ShareRule, NonMinoritySubsetCollapses) {
  // g1 = {1..6} ⊆ g2 = {1..8}: 6 > 8/4, k = 6 > 0.
  EXPECT_TRUE(should_collapse(make(1, 6), make(1, 8), kPaperParams));
}

TEST(ShareRule, WinnerIsHighestGroupId) {
  EXPECT_EQ(collapse_winner(HwgId{10}, HwgId{20}), HwgId{20});
  EXPECT_EQ(collapse_winner(HwgId{20}, HwgId{10}), HwgId{20});
}

TEST(InterferenceRule, MinorityLwgIsVictim) {
  EXPECT_TRUE(
      is_interference_victim(make(1, 2), make(1, 8), kPaperParams));
  EXPECT_FALSE(
      is_interference_victim(make(1, 3), make(1, 8), kPaperParams));
  EXPECT_FALSE(
      is_interference_victim(make(1, 4), make(1, 4), kPaperParams));
}

TEST(InterferenceRule, PicksCloseEnoughHwg) {
  const MemberSet lwg = make(1, 6);
  const std::vector<HwgCandidate> candidates{
      {HwgId{1}, make(1, 8)},   // gap 2 <= 8/4: close enough
      {HwgId{2}, make(1, 12)},  // gap 6 > 3: too big
  };
  EXPECT_EQ(pick_switch_target(lwg, candidates, kPaperParams), HwgId{1});
}

TEST(InterferenceRule, NoCandidateMeansCreateFresh) {
  const MemberSet lwg = make(1, 2);
  const std::vector<HwgCandidate> candidates{
      {HwgId{1}, make(1, 8)},  // lwg is a minority here, not close
      {HwgId{2}, make(3, 6)},  // lwg not a subset
  };
  EXPECT_EQ(pick_switch_target(lwg, candidates, kPaperParams), std::nullopt);
}

TEST(InterferenceRule, TieBreaksByHighestGroupId) {
  const MemberSet lwg = make(1, 4);
  const std::vector<HwgCandidate> candidates{
      {HwgId{5}, make(1, 4)},
      {HwgId{9}, make(1, 4)},
      {HwgId{3}, make(1, 4)},
  };
  EXPECT_EQ(pick_switch_target(lwg, candidates, kPaperParams), HwgId{9});
}

TEST(ShrinkRule, LeavesOnlyWhenNoLwgMapped) {
  EXPECT_TRUE(should_leave_hwg(0));
  EXPECT_FALSE(should_leave_hwg(1));
  EXPECT_FALSE(should_leave_hwg(5));
}

// --- parameter sweeps --------------------------------------------------------
//
// gtest names each case by the raw bytes of its param struct, and the ctest
// id includes that name. Padding is spelled out as zeros so the ids are the
// same in every build; compiler padding holds whatever the stack held.

struct MinorityCase {
  std::uint32_t lwg_size;
  std::uint32_t hwg_size;
  double k_m;
  bool expect_victim;
  std::array<std::uint8_t, 7> zero_padding{};
};
static_assert(sizeof(MinorityCase) == 24, "MinorityCase has implicit padding");

class MinoritySweep : public ::testing::TestWithParam<MinorityCase> {};

TEST_P(MinoritySweep, MatchesDefinition) {
  const auto& c = GetParam();
  const MemberSet hwg = make(1, c.hwg_size);
  const MemberSet lwg = make(1, c.lwg_size);
  EXPECT_EQ(is_interference_victim(lwg, hwg, PolicyParams{c.k_m, 4.0}),
            c.expect_victim);
}

INSTANTIATE_TEST_SUITE_P(
    PaperBoundary, MinoritySweep,
    ::testing::Values(
        MinorityCase{2, 8, 4.0, true},    // 2 == 8/4: boundary inclusive
        MinorityCase{3, 8, 4.0, false},   // just above
        MinorityCase{1, 8, 4.0, true},
        MinorityCase{4, 8, 2.0, true},    // k_m = 2: half counts as minority
        MinorityCase{5, 8, 2.0, false},
        MinorityCase{1, 2, 2.0, true},
        MinorityCase{2, 8, 8.0, false},   // k_m = 8: only 1 of 8 qualifies
        MinorityCase{1, 8, 8.0, true}));

struct CollapseCase {
  std::uint32_t a_lo, a_hi, b_lo, b_hi;
  bool expect;
  std::array<std::uint8_t, 3> zero_padding{};
};
static_assert(sizeof(CollapseCase) == 20, "CollapseCase has implicit padding");

class CollapseSweep : public ::testing::TestWithParam<CollapseCase> {};

TEST_P(CollapseSweep, MatchesPaperFormula) {
  const auto& c = GetParam();
  const MemberSet a = make(c.a_lo, c.a_hi);
  const MemberSet b = make(c.b_lo, c.b_hi);
  EXPECT_EQ(should_collapse(a, b, kPaperParams), c.expect);
  // The rule is symmetric.
  EXPECT_EQ(should_collapse(b, a, kPaperParams), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    OverlapGrid, CollapseSweep,
    ::testing::Values(
        CollapseCase{1, 4, 1, 4, true},    // identical
        CollapseCase{1, 4, 5, 8, false},   // disjoint
        CollapseCase{1, 5, 2, 6, true},    // k=4, n1=n2=1: 4 > 1.41
        CollapseCase{1, 5, 4, 8, false},   // k=2, n1=n2=3: 2 < 4.24
        CollapseCase{1, 6, 3, 8, true},    // k=4, n1=n2=2: 4 > 2.83
        CollapseCase{1, 8, 7, 14, false},  // k=2, n1=n2=6: 2 < 8.49
        CollapseCase{1, 3, 1, 8, true},    // subset above minority: collapse
        CollapseCase{1, 2, 1, 8, false},   // true minority subset: exempt
        CollapseCase{1, 4, 1, 8, true}));  // subset, not minority: collapse

}  // namespace
}  // namespace plwg::lwg::policy
