// Pluggable failure detection: the fixed-timeout policy must match the
// legacy semantics bit for bit, and the phi-accrual detector must (a) stay
// quiet on silences that are normal FOR THAT PEER, (b) still suspect a
// genuinely dead peer promptly, and (c) respect the hard min/max bounds.
// Also covers the capped-jittered backoff helper the retry paths share.
#include <gtest/gtest.h>

#include <algorithm>

#include "util/backoff.hpp"
#include "vsync/config.hpp"
#include "vsync/failure_detector.hpp"

namespace plwg::vsync {
namespace {

constexpr ProcessId kPeer{7};

VsyncConfig phi_config() {
  VsyncConfig cfg;
  cfg.detector = DetectorKind::kPhiAccrual;
  cfg.suspect_timeout_us = 1'000'000;
  return cfg;
}

/// Feed `n` heartbeats at a fixed `interval`, starting at t0.
Time feed_regular(FailureDetector& d, Time t0, Duration interval, int n) {
  Time t = t0;
  for (int i = 0; i < n; ++i) {
    d.heard(kPeer, t);
    t += interval;
  }
  return t - interval;  // time of the last heartbeat
}

TEST(FixedTimeoutDetector, MatchesLegacyThresholdExactly) {
  FixedTimeoutDetector d(1'000'000);
  // The legacy comparison was strict: silence of exactly the timeout is ok.
  EXPECT_FALSE(d.suspect(kPeer, 1'000'000, 0));
  EXPECT_TRUE(d.suspect(kPeer, 1'000'001, 0));
}

TEST(FactoryTest, BuildsTheConfiguredKind) {
  VsyncConfig cfg;
  EXPECT_STREQ(make_failure_detector(cfg)->name(), "fixed-timeout");
  cfg.detector = DetectorKind::kPhiAccrual;
  EXPECT_STREQ(make_failure_detector(cfg)->name(), "phi-accrual");
}

TEST(PhiAccrualDetector, FallsBackToFixedTimeoutWithoutHistory) {
  PhiAccrualDetector d(phi_config());
  // Zero / too-few samples: behave exactly like the fixed threshold.
  EXPECT_FALSE(d.suspect(kPeer, 900'000, 0));
  EXPECT_TRUE(d.suspect(kPeer, 1'000'001, 0));
  d.heard(kPeer, 0);
  d.heard(kPeer, 200'000);
  EXPECT_LT(d.samples(kPeer), 4u);
  EXPECT_TRUE(d.suspect(kPeer, 1'400'001, 400'000));
}

TEST(PhiAccrualDetector, SuspectsAQuietPeerPromptly) {
  PhiAccrualDetector d(phi_config());
  // Metronome heartbeats every 200 ms: tiny variance, so a silence a few
  // multiples past the floor is wildly implausible.
  const Time last = feed_regular(d, 0, 200'000, 20);
  EXPECT_FALSE(d.suspect(kPeer, last + 200'000, last));
  EXPECT_TRUE(d.suspect(kPeer, last + 1'200'000, last));
}

TEST(PhiAccrualDetector, WideHistorySuppressesFalseSuspicion) {
  PhiAccrualDetector d(phi_config());
  // A peer that routinely pauses: intervals alternating 200 ms / 1.2 s.
  Time t = 0;
  for (int i = 0; i < 20; ++i) {
    d.heard(kPeer, t);
    t += (i % 2 == 0) ? 200'000 : 1'200'000;
  }
  const Time last = t - 1'200'000;
  // 1.4 s of silence is within this peer's normal envelope — the fixed
  // threshold (1 s) would already have fired, phi must not.
  EXPECT_TRUE(FixedTimeoutDetector(1'000'000)
                  .suspect(kPeer, last + 1'400'000, last));
  EXPECT_FALSE(d.suspect(kPeer, last + 1'400'000, last));
}

TEST(PhiAccrualDetector, HardBoundsAlwaysHold) {
  PhiAccrualDetector d(phi_config());
  const Time last = feed_regular(d, 0, 200'000, 20);
  // Below the floor: never suspected, no matter how implausible.
  EXPECT_FALSE(d.suspect(kPeer, last + 999'999, last));
  // Past the ceiling: always suspected, whatever the history says.
  Time t2 = 0;
  PhiAccrualDetector wide(phi_config());
  for (int i = 0; i < 20; ++i) {
    wide.heard(kPeer, t2);
    t2 += 3'000'000;  // 3 s intervals — huge envelope
  }
  EXPECT_TRUE(wide.suspect(kPeer, (t2 - 3'000'000) + 8'000'001,
                           t2 - 3'000'000));
}

TEST(PhiAccrualDetector, PhiGrowsWithSilence) {
  PhiAccrualDetector d(phi_config());
  feed_regular(d, 0, 200'000, 20);
  EXPECT_LT(d.phi(kPeer, 200'000), d.phi(kPeer, 600'000));
  EXPECT_LT(d.phi(kPeer, 600'000), d.phi(kPeer, 2'000'000));
}

TEST(PhiAccrualDetector, ForgetDropsHistory) {
  PhiAccrualDetector d(phi_config());
  feed_regular(d, 0, 200'000, 20);
  ASSERT_GE(d.samples(kPeer), 4u);
  d.forget(kPeer);
  EXPECT_EQ(d.samples(kPeer), 0u);
}

TEST(PhiAccrualDetector, CoalescedArrivalsDoNotPoisonTheFit) {
  PhiAccrualDetector d(phi_config());
  // Several messages in the same event round yield zero-width intervals;
  // they must be skipped, not shrink the variance toward zero.
  Time t = 0;
  for (int i = 0; i < 10; ++i) {
    d.heard(kPeer, t);
    d.heard(kPeer, t);  // duplicate in the same round
    t += 200'000;
  }
  const Time last = t - 200'000;
  EXPECT_FALSE(d.suspect(kPeer, last + 1'000'000, last));
}

TEST(BackoffTest, AttemptZeroIsExactlyBase) {
  // The legacy retry cadence must be untouched until a retry actually
  // happens: attempt 0 returns the base with no jitter.
  EXPECT_EQ(backoff_delay(500'000, 0, 5'000'000, 42), 500'000);
  EXPECT_EQ(backoff_delay(500'000, 0, 5'000'000, 1337), 500'000);
}

TEST(BackoffTest, DoublesAndCapsWithBoundedJitter) {
  const Duration base = 100'000;
  const Duration cap = 1'000'000;
  Duration prev_nominal = base;
  for (std::uint32_t attempt = 1; attempt <= 12; ++attempt) {
    const Duration nominal =
        std::min<Duration>(cap, base << std::min<std::uint32_t>(attempt, 30));
    const Duration d = backoff_delay(base, attempt, cap, 7);
    EXPECT_GE(d, nominal - nominal / 4) << "attempt " << attempt;
    EXPECT_LE(d, nominal + nominal / 4) << "attempt " << attempt;
    EXPECT_GE(nominal, prev_nominal);
    prev_nominal = nominal;
  }
}

TEST(BackoffTest, DeterministicPerSaltAndAttempt) {
  EXPECT_EQ(backoff_delay(100'000, 5, 10'000'000, 99),
            backoff_delay(100'000, 5, 10'000'000, 99));
  // Different salts decorrelate retriers (overwhelmingly likely to differ).
  EXPECT_NE(backoff_delay(100'000, 5, 10'000'000, 99),
            backoff_delay(100'000, 5, 10'000'000, 100));
}

TEST(BackoffTest, HugeAttemptCountsDoNotOverflow) {
  const Duration d = backoff_delay(1'000'000, 4'000'000'000u, 30'000'000, 3);
  EXPECT_GE(d, 30'000'000 - 30'000'000 / 4);
  EXPECT_LE(d, 30'000'000 + 30'000'000 / 4);
}

}  // namespace
}  // namespace plwg::vsync
