// Seed-sweep soak with the oracle as the only judge: run ChaosMonkey over
// randomized worlds — partitions, crashes and crash–restart cycles — heal,
// wait for convergence, and require a clean oracle report for every seed.
// The CI default covers a small seed range; set PLWG_SWEEP_SEEDS (count)
// and PLWG_SWEEP_FIRST (start) for the full 1,000-seed campaign recorded
// in EXPERIMENTS.md, and PLWG_SWEEP_RESTARTS=0 to make crashes permanent:
//
//   PLWG_SWEEP_SEEDS=1000 ./build/tests/test_oracle --gtest_filter='*ChaosSweep*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "harness/chaos.hpp"
#include "lwg_fixture.hpp"

namespace plwg::lwg::testing {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

class OracleChaosSweepTest : public LwgFixture {
 protected:
  /// One randomized chaos episode; returns false only on setup failure
  /// (fatal assertion inside), violations surface as gtest failures.
  void run_seed(std::uint64_t seed) {
    SCOPED_TRACE("sweep seed " + std::to_string(seed));
    harness::WorldConfig cfg;
    cfg.num_processes = 4 + seed % 3;  // 4..6
    cfg.num_name_servers = 2;
    cfg.naming_mode = (seed % 2 == 0)
                          ? harness::NamingMode::kDedicatedServers
                          : harness::NamingMode::kReplicatedEverywhere;
    cfg.net.seed = seed;
    build(cfg);
    const std::size_t n = world().num_processes();

    const LwgId id{1};
    std::vector<std::size_t> indexes;
    for (std::size_t i = 0; i < n; ++i) indexes.push_back(i);
    form_lwg(id, indexes);

    harness::ChaosConfig chaos_cfg;
    chaos_cfg.seed = seed ^ 0x9e3779b97f4a7c15ULL;
    chaos_cfg.mean_interval_us = 4'000'000;
    chaos_cfg.mean_partition_us = 3'000'000;
    if (seed % 3 == 0) {
      chaos_cfg.crash_probability = 0.25;
      chaos_cfg.max_crashes = (n - 1) / 2;
      // Crash–restart cycles ride the same seeds; PLWG_SWEEP_RESTARTS=0
      // recovers the crashes-are-permanent sweep.
      if (env_u64("PLWG_SWEEP_RESTARTS", 1) != 0) {
        chaos_cfg.restart_probability = 0.7;
        chaos_cfg.mean_downtime_us = 2'000'000;
      }
    }
    harness::ChaosMonkey chaos(world(), chaos_cfg);
    chaos.run_for(45'000'000);
    chaos.quiesce();

    // Converge-then-verify: the online checks ran throughout; once the
    // world settles, invariants #4/#5 must hold too.
    const bool converged = run_until(
        [&] { return world().convergence_failure().empty(); }, 300'000'000);
    EXPECT_TRUE(converged) << "seed " << seed << ": "
                           << world().convergence_failure();
    if (converged) {
      EXPECT_TRUE(world().verify_convergence());
    }

    if (world().oracle_enabled()) {
      oracle::ProtocolOracle& o = world().oracle();
      if (!o.clean()) maybe_write_oracle_report(o);
      EXPECT_TRUE(o.clean())
          << "seed " << seed << ": " << o.report_json();
      o.clear();  // report via gtest, not the destructor backstop
    }
    world_.reset();
  }
};

TEST_F(OracleChaosSweepTest, ChaosSweepLeavesOracleClean) {
  const std::uint64_t first = env_u64("PLWG_SWEEP_FIRST", 1);
  const std::uint64_t count = env_u64("PLWG_SWEEP_SEEDS", 25);
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    run_seed(seed);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

// Seeds the first 1,000-seed campaign flushed out (see EXPERIMENTS.md),
// pinned as regressions for the bugs they exposed:
//  - 671: merged-view-id collision — two concurrent HWG views collected the
//    same constituents and minted the same id for different memberships
//    (fixed by hashing the HWG view id into the disambiguator).
//  - 27/81/111/207/237/723/885: stale naming-service rows with live
//    members — broken genealogy chains from lost registrations (fixed by
//    superseding the collected ancestry on merge and by joiners writing
//    the supersession of views they abandoned).
TEST_F(OracleChaosSweepTest, PinnedRegressionSeeds) {
  for (std::uint64_t seed :
       {27ULL, 81ULL, 111ULL, 207ULL, 237ULL, 671ULL, 723ULL, 885ULL}) {
    run_seed(seed);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

// Seeds the restart-enabled campaign flushed out (docs/FAULTS.md catalog
// entries 4-7), pinned likewise:
//  - 240/942: ghost naming rows — a coordinator registered a view, crashed,
//    and took the only copy of its supersession knowledge with it (fixed by
//    the durable registered-view set replayed on rejoin).
//  - 831: a crash-restarted coordinator never probed the concurrent
//    component its previous incarnation knew about (fixed by members
//    reporting foreign peers to the coordinator via same-view merge probes).
//  - 84/156/690: merge-follower impatience livelock — the follower's stuck
//    watchdog gave up before the leader's kMergeTimeoutUs budget elapsed,
//    phase-locking re-forms against always-stale merged views (fixed by
//    wedge_patience in GroupEndpoint::on_tick).
//  - 285: a row registered by a permanently-dead process for a view no
//    survivor ever held (fixed by ghost-row disavowal on the broadened
//    MULTIPLE-MAPPINGS callback).
//  - 269 (8-thread engine): an in-flight backbone frame survived an
//    idle-time partition re-cut and posted into a reachability class whose
//    island had run ahead (fixed by the wire-loss re-check at the backbone
//    edge in sim::Network).
TEST_F(OracleChaosSweepTest, RestartCampaignRegressionSeeds) {
  for (std::uint64_t seed : {84ULL, 156ULL, 240ULL, 269ULL, 285ULL, 690ULL,
                             831ULL, 942ULL}) {
    run_seed(seed);
    if (::testing::Test::HasFatalFailure()) break;
  }
}

}  // namespace
}  // namespace plwg::lwg::testing
