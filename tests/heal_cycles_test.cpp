// Repeated WAN cut/heal cycles with crash–restarts: every heal must
// reconcile the LWGs before the next cut. This is the schedule of
// perfbench's heal-cycles workload, small enough for a unit test. Its
// history builds up over the cycles: each LWG's advertised ancestry grows
// with every merge, and so do the views messages crossing the 2 Mbps WAN
// uplink. A merge round that puts more than one such message per member on
// the uplink makes the far side's copies miss the merge flush, round after
// round, and heals after the first dozen cycles stop converging.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lwg_fixture.hpp"
#include "util/rng.hpp"

namespace plwg::lwg::testing {
namespace {

class HealCyclesTest : public LwgFixture,
                       public ::testing::WithParamInterface<std::uint64_t> {
 protected:
  static constexpr std::size_t kProcs = 8;
  static constexpr std::size_t kGroups = 8;
  static constexpr std::size_t kCycles = 16;
  static constexpr Duration kStepUs = 20'000;
  static constexpr Duration kSendEveryUs = 100'000;

  /// Advance `us` in 20 ms steps; every 100 ms each LWG gets one 64 B
  /// message from a round-robin sender that holds a view. `each(now)` runs
  /// before every step.
  template <class F>
  void step_for(Duration us, F&& each) {
    const Time end = world().simulator().now() + us;
    while (world().simulator().now() < end) {
      const Time now = world().simulator().now();
      each(now);
      if (now >= next_send_) {
        next_send_ = now + kSendEveryUs;
        for (std::size_t k = 0; k < kGroups; ++k) {
          const std::size_t sender = (send_tick_ + k) % kProcs;
          if (world().crashed(sender) ||
              lwg(sender).view_of(group(k)) == nullptr) {
            continue;
          }
          lwg(sender).send(group(k), payload(1, 64));
        }
        ++send_tick_;
      }
      run_for(std::min(kStepUs, end - now));
    }
  }

  static LwgId group(std::size_t k) { return LwgId{0x4800 + k}; }

  Time next_send_ = 0;
  std::uint64_t send_tick_ = 0;
};

TEST_P(HealCyclesTest, EveryHealConvergesBeforeTheNextCut) {
  harness::WorldConfig cfg;
  cfg.num_processes = kProcs;
  cfg.num_name_servers = 2;
  cfg.segments = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  cfg.net.seed = GetParam();
  build(cfg);
  // LWG k spans all processes and is founded by process k.
  const auto user_of = [&](std::size_t i) -> LwgUser& { return user(i); };
  for (std::size_t k = 0; k < kGroups; ++k) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < kProcs; ++i) {
      members.push_back((k + i) % kProcs);
    }
    ASSERT_TRUE(world().form_lwg(group(k), members, user_of))
        << "lwg " << k << " did not form";
  }

  Rng rng(GetParam());
  // A duration drawn uniformly from [lo, lo + span].
  auto draw = [&](Duration lo, Duration span) {
    return lo + static_cast<Duration>(
                    rng.next_below(static_cast<std::uint64_t>(span) + 1));
  };
  std::vector<std::string> unconverged;
  for (std::size_t c = 0; c < kCycles; ++c) {
    const Duration cut_us = draw(2'000'000, 2'000'000);
    const Duration gap_us = draw(6'000'000, 2'000'000);
    // Every 4th cut crashes a process and restarts it before the heal.
    int victim = -1;
    Duration crash_at = 0;
    Duration restart_at = 0;
    if (c % 4 == 3) {
      victim = static_cast<int>(rng.next_below(kProcs));
      crash_at = draw(200'000, 600'000);
      restart_at = cut_us - draw(300'000, 300'000);
    }

    const Time cut_at = world().simulator().now();
    world().cut_wan();
    step_for(cut_us, [&](Time now) {
      if (victim < 0) return;
      const auto v = static_cast<std::size_t>(victim);
      if (!world().crashed(v) && now - cut_at >= crash_at &&
          now - cut_at < restart_at) {
        world().crash(v);
      } else if (world().crashed(v) && now - cut_at >= restart_at) {
        world().restart(v);
      }
    });
    ASSERT_FALSE(victim >= 0 &&
                 world().crashed(static_cast<std::size_t>(victim)));

    world().heal();
    bool converged = false;
    step_for(gap_us, [&](Time) {
      if (!converged) converged = world().convergence_failure().empty();
    });
    if (!converged) {
      unconverged.push_back("cycle " + std::to_string(c) + ": " +
                            world().convergence_failure());
    }
  }
  EXPECT_TRUE(unconverged.empty())
      << unconverged.size() << " of " << kCycles
      << " heals did not converge; first: " << unconverged.front();
}

INSTANTIATE_TEST_SUITE_P(Seeds, HealCyclesTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace plwg::lwg::testing
