// The multi-site engine's determinism contract, end to end: replaying a seed
// must produce a byte-identical trace digest — deliveries, payloads,
// timer-event counts — and a clean oracle, on a multi-segment world under
// chaos (partitions, crashes, restarts) with live application traffic.
//
// PLWG_DET_SEEDS overrides the seed count (default 50), PLWG_DET_FIRST the
// starting seed — same convention as the oracle sweep.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "util/codec.hpp"

namespace plwg::harness {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

class NullUser : public lwg::LwgUser {
 public:
  void on_lwg_view(LwgId, const lwg::LwgView&) override {}
  void on_lwg_data(LwgId, ProcessId, std::span<const std::uint8_t>) override {}
};

struct EpisodeResult {
  std::uint64_t digest = 0;
  bool converged = false;
  bool oracle_clean = false;
  std::string oracle_report;
};

/// One deterministic chaos episode on a 4-segment / 8-process WAN world:
/// form a segment-spanning LWG, interleave chaos with application sends,
/// quiesce, converge, and read the combined trace digest.
EpisodeResult run_episode(std::uint64_t seed) {
  WorldConfig cfg;
  cfg.num_processes = 8;
  cfg.num_name_servers = 2;
  cfg.segments = {{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  cfg.net.seed = seed;
  cfg.net.digest_payloads = true;
  SimWorld world(cfg);

  std::vector<NullUser> users(cfg.num_processes);
  const LwgId id{1};
  for (std::size_t i = 0; i < cfg.num_processes; ++i) {
    world.lwg(i).join(id, users[i]);
  }
  const bool formed = world.run_until(
      [&] {
        for (std::size_t i = 0; i < cfg.num_processes; ++i) {
          const lwg::LwgView* v = world.lwg(i).view_of(id);
          if (v == nullptr || v->members.size() != cfg.num_processes) {
            return false;
          }
        }
        return true;
      },
      60'000'000);
  EXPECT_TRUE(formed) << "seed " << seed << ": lwg never formed";

  ChaosConfig chaos_cfg;
  chaos_cfg.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  chaos_cfg.mean_interval_us = 1'500'000;
  chaos_cfg.mean_partition_us = 1'000'000;
  chaos_cfg.crash_probability = 0.3;
  chaos_cfg.max_crashes = 3;
  chaos_cfg.restart_probability = 0.7;
  chaos_cfg.mean_downtime_us = 1'000'000;
  ChaosMonkey chaos(world, chaos_cfg);
  // Interleave fault injection with application traffic so the digest
  // covers payload bytes crossing the backbone mid-chaos.
  for (int slice = 0; slice < 30; ++slice) {
    chaos.run_for(100'000);
    for (std::size_t i = 0; i < cfg.num_processes; ++i) {
      if (world.crashed(i)) continue;
      Encoder enc;
      enc.put_u64(seed);
      enc.put_u64(static_cast<std::uint64_t>(slice) * 100 + i);
      world.lwg(i).send(id, enc.take());
    }
  }
  chaos.quiesce();

  EpisodeResult out;
  out.converged = world.run_until(
      [&] { return world.convergence_failure().empty(); }, 200'000'000);
  out.digest = world.trace_digest();
  if (world.oracle_enabled()) {
    out.oracle_clean = world.oracle().clean();
    if (!out.oracle_clean) out.oracle_report = world.oracle().report_json();
    world.oracle().clear();  // report via gtest, not the world's backstop
  } else {
    out.oracle_clean = true;
  }
  return out;
}

/// Chaos partitions split the four sites apart and heals merge them again
/// mid-episode; a replay of the seed must not notice.
TEST(DeterminismTest, ChaosEpisodeReplaysToIdenticalDigest) {
  const std::uint64_t first = env_u64("PLWG_DET_FIRST", 1);
  const std::uint64_t count = env_u64("PLWG_DET_SEEDS", 50);
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    SCOPED_TRACE("determinism seed " + std::to_string(seed));
    const EpisodeResult base = run_episode(seed);
    EXPECT_TRUE(base.converged);
    EXPECT_TRUE(base.oracle_clean) << base.oracle_report;
    const EpisodeResult replay = run_episode(seed);
    EXPECT_EQ(base.digest, replay.digest)
        << "seed " << seed << ": digest diverged on replay";
    EXPECT_EQ(base.converged, replay.converged);
    EXPECT_TRUE(replay.oracle_clean) << replay.oracle_report;
    if (::testing::Test::HasFatalFailure()) break;
  }
}

/// The adversarial corpus's fault shapes — flap trains and one-way links
/// inside each segment, lossy cross-segment overrides — must preserve the
/// contract on the multi-site engine: every per-link drop/jitter draw comes
/// from the owning site's RNG stream, so a replay draws the same values.
TEST(DeterminismTest, ScenarioFaultShapesReplayToIdenticalDigest) {
  const Scenario scenario =
      load_scenario_file(scenario_dir() + "/wan_flap_asymmetric.json");
  const std::uint64_t seeds = env_u64("PLWG_DET_SCENARIO_SEEDS", 2);
  const std::uint64_t first = env_u64("PLWG_DET_FIRST", 1);
  for (std::uint64_t seed = first; seed < first + seeds; ++seed) {
    const ScenarioResult base = run_scenario(scenario, seed);
    EXPECT_TRUE(base.formed) << "seed " << seed;
    EXPECT_TRUE(base.converged) << "seed " << seed << ": " << base.failure;
    EXPECT_TRUE(base.oracle_clean) << "seed " << seed << ": " << base.failure;
    const ScenarioResult replay = run_scenario(scenario, seed);
    EXPECT_EQ(base.digest, replay.digest)
        << "seed " << seed << ": scenario digest diverged on replay";
    EXPECT_EQ(base.converged, replay.converged) << "seed " << seed;
    EXPECT_TRUE(replay.oracle_clean) << "seed " << seed << ": "
                                     << replay.failure;
    if (::testing::Test::HasFatalFailure()) break;
  }
}

}  // namespace
}  // namespace plwg::harness
