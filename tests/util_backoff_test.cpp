// The capped, jittered backoff helper the retry paths share.
#include "util/backoff.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace plwg {
namespace {

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
}  // namespace plwg
