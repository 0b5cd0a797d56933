// World-level parameterized sweep of the Fig. 1 heuristics: the eviction
// behaviour measured end-to-end (through real switches on a live system)
// must match the pure predicate for every parameter choice — the bridge
// between the unit-tested rules and the running service.
#include <gtest/gtest.h>

#include <array>

#include "lwg_fixture.hpp"

namespace plwg::lwg::testing {
namespace {

// gtest names each case by the raw bytes of its param struct, and the ctest
// id includes that name. Padding is spelled out as zeros so the ids are the
// same in every build; compiler padding holds whatever the stack held.
struct SweepCase {
  double k_m;
  std::size_t small_size;  // members of the minority LWG
  bool expect_eviction;    // small_size <= 8 / k_m
  std::array<std::uint8_t, 7> zero_padding{};
};
static_assert(sizeof(SweepCase) == 24, "SweepCase has implicit padding");

class PolicySweepTest : public LwgFixture,
                        public ::testing::WithParamInterface<SweepCase> {};

TEST_P(PolicySweepTest, EvictionMatchesPredicateEndToEnd) {
  const SweepCase& c = GetParam();
  harness::WorldConfig cfg;
  cfg.num_processes = 8;
  cfg.lwg.k_m = c.k_m;
  cfg.lwg.policy_period_us = 2'000'000;
  cfg.lwg.shrink_delay_us = 30'000'000;
  build(cfg);

  form_lwg(LwgId{1}, {0, 1, 2, 3, 4, 5, 6, 7});
  std::vector<std::size_t> small_members;
  for (std::size_t i = 0; i < c.small_size; ++i) small_members.push_back(i);
  form_lwg(LwgId{2}, small_members);
  ASSERT_EQ(lwg(0).hwg_of(LwgId{1}), lwg(0).hwg_of(LwgId{2}))
      << "optimistic mapping should co-locate";

  run_for(10'000'000);  // several policy periods

  const bool evicted =
      *lwg(0).hwg_of(LwgId{2}) != *lwg(0).hwg_of(LwgId{1});
  EXPECT_EQ(evicted, c.expect_eviction)
      << "k_m=" << c.k_m << " |small|=" << c.small_size;
  if (c.expect_eviction) {
    // Every small-group member followed the switch consistently.
    MemberSet expect;
    for (std::size_t i : small_members) expect.insert(pid(i));
    EXPECT_TRUE(run_until(
        [&] { return lwg_converged(LwgId{2}, small_members, expect); },
        30'000'000));
    for (std::size_t i : small_members) {
      EXPECT_EQ(lwg(i).hwg_of(LwgId{2}), lwg(0).hwg_of(LwgId{2}));
    }
  } else {
    EXPECT_EQ(lwg(0).stats().switches_started, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KmGrid, PolicySweepTest,
    ::testing::Values(
        // |hwg| = 8: minority iff |small| <= 8 / k_m.
        SweepCase{4.0, 2, true},    // 2 <= 2: the paper's default evicts
        SweepCase{4.0, 3, false},   // 3 > 2: tolerated
        SweepCase{2.0, 4, true},    // 4 <= 4
        SweepCase{2.0, 5, false},   // 5 > 4
        SweepCase{8.0, 2, false},   // 2 > 1
        SweepCase{8.0, 1, true}));  // 1 <= 1

}  // namespace
}  // namespace plwg::lwg::testing
