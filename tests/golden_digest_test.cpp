// Golden trace digests: pins the simulation's behaviour, not just its
// replay determinism. Every case builds a deterministic world, runs it,
// and compares the combined sim::TraceDigest with the checked-in table
// tests/golden_digests.txt. Any behaviour change — a reordered event, one
// extra timer, one payload byte — fails here, and becomes a reviewed diff
// of that table via scripts/rebless_digests.sh.
//
// Cases:
//   scenario:<file>:seed=<n>  every scenarios/*.json through run_scenario
//   chaos:seed=<n>            ChaosMonkey's random injector (partitions,
//                             crashes, restarts) on a 3-segment world with
//                             traffic, then quiesce and convergence
//   fig2:oracle=<on|off>      the single-LAN Fig. 2 world (dynamic mapping)
//                             with closed-loop traffic; the oracle only
//                             observes, so both digests are equal
//   wan16                     16 LAN segments with local and cross-WAN
//                             LWGs through a WAN cut and heal
//   wan100                    100 LAN segments x 3 processes, one local LWG
//                             each, formed concurrently (most naming records
//                             hold several alive rows at once), then 1 sim-s
//                             of traffic
//
// Each case prints "GOLDEN <key> <digest>", which is how the rebless
// script collects a fresh table.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "fig2_common.hpp"
#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "util/codec.hpp"

namespace plwg::harness {
namespace {

constexpr std::uint64_t kScenarioSeeds[] = {1, 2, 3};

/// key -> digest, from tests/golden_digests.txt ('#' starts a comment).
const std::map<std::string, std::uint64_t>& golden_table() {
  static const std::map<std::string, std::uint64_t> table = [] {
    std::map<std::string, std::uint64_t> out;
    std::ifstream in(PLWG_GOLDEN_DIGESTS);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string key;
      std::string hex;
      if (fields >> key >> hex) out[key] = std::stoull(hex, nullptr, 16);
    }
    return out;
  }();
  return table;
}

void expect_golden(const std::string& key, std::uint64_t digest) {
  std::printf("GOLDEN %s %016" PRIx64 "\n", key.c_str(), digest);
  const auto& table = golden_table();
  const auto it = table.find(key);
  ASSERT_NE(it, table.end())
      << key << " is missing from " << PLWG_GOLDEN_DIGESTS
      << " (scripts/rebless_digests.sh regenerates the table)";
  char want[17];
  char got[17];
  std::snprintf(want, sizeof(want), "%016" PRIx64, it->second);
  std::snprintf(got, sizeof(got), "%016" PRIx64, digest);
  EXPECT_STREQ(want, got) << key << ": behaviour changed";
}

std::string scenario_key(const std::string& file, std::uint64_t seed) {
  return "scenario:" + std::filesystem::path(file).stem().string() +
         ":seed=" + std::to_string(seed);
}

class GoldenScenarioTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenScenarioTest, DigestMatchesTable) {
  const Scenario scenario = load_scenario_file(GetParam());
  for (std::uint64_t seed : kScenarioSeeds) {
    const ScenarioResult r = run_scenario(scenario, seed);
    EXPECT_TRUE(r.converged && r.oracle_clean) << r.failure;
    expect_golden(scenario_key(GetParam(), seed), r.digest);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenScenarioTest, ::testing::ValuesIn(list_scenario_files()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      return std::filesystem::path(param.param).stem().string();
    });

/// The table and the corpus list the same scenario cases: a new corpus
/// file needs a blessed digest, and a deleted one leaves no stale row.
TEST(GoldenDigestTest, TableCoversTheScenarioCorpus) {
  std::set<std::string> want;
  for (const std::string& file : list_scenario_files()) {
    for (std::uint64_t seed : kScenarioSeeds) {
      want.insert(scenario_key(file, seed));
    }
  }
  std::set<std::string> have;
  for (const auto& [key, digest] : golden_table()) {
    if (key.rfind("scenario:", 0) == 0) have.insert(key);
  }
  EXPECT_EQ(want, have);
}

/// The random injector's schedule: 3 segments x 2 processes, one LWG over
/// all six, 10 sim-s of random partitions, crashes and restarts with one
/// send per alive process every 100 ms, then quiesce and convergence. The
/// run must inject every fault kind, so its row cannot pin a quiet run.
std::uint64_t chaos_digest(std::uint64_t seed) {
  WorldConfig cfg;
  cfg.num_processes = 6;
  cfg.num_name_servers = 2;
  cfg.segments = {{0, 1}, {2, 3}, {4, 5}};
  cfg.net.seed = seed;
  cfg.net.digest_payloads = true;
  SimWorld world(cfg);
  lwg::NoopUser user;
  const LwgId id{1};
  EXPECT_TRUE(world.form_lwg(id, process_range(0, cfg.num_processes), user));

  ChaosConfig chaos_cfg;
  chaos_cfg.seed = seed;
  chaos_cfg.mean_interval_us = 1'000'000;
  chaos_cfg.mean_partition_us = 1'000'000;
  chaos_cfg.crash_probability = 0.4;
  chaos_cfg.max_crashes = 2;
  chaos_cfg.restart_probability = 0.8;
  chaos_cfg.mean_downtime_us = 1'000'000;
  ChaosMonkey chaos(world, chaos_cfg);
  for (std::uint64_t slice = 0; slice < 100; ++slice) {
    chaos.run_for(100'000);
    for (std::size_t i = 0; i < cfg.num_processes; ++i) {
      if (world.crashed(i)) continue;
      Encoder enc;
      enc.put_u64(slice * 100 + i);
      world.lwg(i).send(id, enc.take());
    }
  }
  chaos.quiesce();
  EXPECT_GT(chaos.partitions_injected(), 0u) << "seed " << seed;
  EXPECT_GT(chaos.crashes_injected(), 0u) << "seed " << seed;
  EXPECT_GT(chaos.restarts_fired(), 0u) << "seed " << seed;
  EXPECT_TRUE(world.run_until(
      [&] { return world.convergence_failure().empty(); }, 200'000'000))
      << "seed " << seed << ": " << world.convergence_failure();
  EXPECT_TRUE(world.oracle().clean()) << world.oracle().report_json();
  return world.trace_digest();
}

TEST(GoldenDigestTest, ChaosRandomInjector) {
  for (std::uint64_t seed : {1, 2, 3}) {
    expect_golden("chaos:seed=" + std::to_string(seed), chaos_digest(seed));
  }
}

std::uint64_t fig2_digest(bool oracle) {
  harness::WorldConfig cfg = bench::fig2_config(lwg::MappingMode::kDynamic);
  cfg.oracle = oracle;
  cfg.net.digest_payloads = true;
  bench::Fig2World f = bench::build_fig2_world(cfg, 2);
  // Closed loop, as in bench_fig2_throughput: keep a window of messages in
  // flight per group, driven by one receiver's progress in each set.
  constexpr std::uint64_t kWindow = 4;
  std::map<LwgId, std::uint64_t> sent;
  const Time end = f.world->simulator().now() + 5'000'000;
  while (f.world->simulator().now() < end) {
    for (auto [sender, receiver, groups] :
         {std::tuple{0, 1, &f.set_a}, std::tuple{4, 5, &f.set_b}}) {
      const std::uint64_t progress =
          f.users[receiver]->delivered / groups->size();
      for (LwgId g : *groups) {
        while (sent[g] < progress + kWindow) {
          f.world->lwg(sender).send(
              g, bench::probe_payload(f.world->simulator().now(), 64));
          sent[g]++;
        }
      }
    }
    f.world->run_for(2'000);
  }
  if (oracle) {
    EXPECT_TRUE(f.world->oracle().clean());
  }
  return f.world->trace_digest();
}

TEST(GoldenDigestTest, Fig2OracleOn) {
  expect_golden("fig2:oracle=on", fig2_digest(true));
}

TEST(GoldenDigestTest, Fig2OracleOff) {
  expect_golden("fig2:oracle=off", fig2_digest(false));
}

class NullUser : public lwg::LwgUser {
 public:
  void on_lwg_view(LwgId, const lwg::LwgView&) override {}
  void on_lwg_data(LwgId, ProcessId, std::span<const std::uint8_t>) override {}
};

/// 16 segments x 2 processes, two name servers. One local LWG per segment
/// plus one LWG across segments 0, 5, 10 and 15; traffic, a WAN cut, a
/// heal, and convergence.
std::uint64_t wan16_digest() {
  constexpr std::size_t kSegments = 16;
  constexpr std::size_t kPerSegment = 2;
  WorldConfig cfg;
  cfg.num_processes = kSegments * kPerSegment;
  cfg.num_name_servers = 2;
  cfg.net.digest_payloads = true;
  for (std::size_t s = 0; s < kSegments; ++s) {
    cfg.segments.push_back({s * kPerSegment, s * kPerSegment + 1});
  }
  SimWorld world(cfg);
  std::vector<NullUser> users(cfg.num_processes);
  std::vector<std::pair<LwgId, std::vector<std::size_t>>> groups;
  for (std::size_t s = 0; s < kSegments; ++s) {
    groups.push_back({LwgId{s + 1}, {s * kPerSegment, s * kPerSegment + 1}});
  }
  groups.push_back({LwgId{100}, {0, 10, 20, 30}});
  for (const auto& [id, members] : groups) {
    for (std::size_t i : members) world.lwg(i).join(id, users[i]);
  }
  const auto all_formed = [&] {
    for (const auto& [id, members] : groups) {
      for (std::size_t i : members) {
        const lwg::LwgView* v = world.lwg(i).view_of(id);
        if (v == nullptr || v->members.size() != members.size()) return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(world.run_until(all_formed, 60'000'000));

  const auto send_round = [&](std::uint64_t round) {
    for (const auto& [id, members] : groups) {
      Encoder enc;
      enc.put_u64(round);
      world.lwg(members.front()).send(id, enc.take());
    }
  };
  for (std::uint64_t round = 0; round < 10; ++round) {
    send_round(round);
    world.run_for(100'000);
  }
  world.cut_wan();
  world.run_for(2'000'000);
  world.heal();
  EXPECT_TRUE(world.run_until(all_formed, 120'000'000));
  EXPECT_TRUE(world.run_until(
      [&] { return world.convergence_failure().empty(); }, 120'000'000))
      << world.convergence_failure();
  for (std::uint64_t round = 10; round < 15; ++round) {
    send_round(round);
    world.run_for(100'000);
  }
  world.run_for(1'000'000);
  EXPECT_TRUE(world.oracle().clean());
  return world.trace_digest();
}

TEST(GoldenDigestTest, Wan16OneThread) {
  expect_golden("wan16", wan16_digest());
}

/// The wan1000 benchmark world at 100 segments: each segment's first
/// process founds its LWG, then the other two join all at once. The
/// concurrent joins leave many naming records with two or more alive rows,
/// so the digest pins the MULTIPLE-MAPPINGS callback schedule of a formation
/// full of conflicts. Then every process sends one probe per 10 ms for 1 s.
std::uint64_t wan100_digest() {
  constexpr std::size_t kSegments = 100;
  constexpr std::size_t kPerSegment = 3;
  WorldConfig cfg;
  cfg.num_processes = kSegments * kPerSegment;
  cfg.num_name_servers = 2;
  cfg.net.digest_payloads = true;
  for (std::size_t s = 0; s < kSegments; ++s) {
    std::vector<std::size_t> seg;
    for (std::size_t i = 0; i < kPerSegment; ++i) {
      seg.push_back(s * kPerSegment + i);
    }
    cfg.segments.push_back(seg);
  }
  SimWorld world(cfg);
  std::vector<NullUser> users(cfg.num_processes);
  const auto view_size = [&](std::size_t proc) -> std::size_t {
    const lwg::LwgView* v =
        world.lwg(proc).view_of(LwgId{proc / kPerSegment + 1});
    return v == nullptr ? 0 : v->members.size();
  };
  for (std::size_t s = 0; s < kSegments; ++s) {
    world.lwg(s * kPerSegment).join(LwgId{s + 1}, users[s * kPerSegment]);
  }
  EXPECT_TRUE(world.run_until(
      [&] {
        for (std::size_t s = 0; s < kSegments; ++s) {
          if (view_size(s * kPerSegment) == 0) return false;
        }
        return true;
      },
      60'000'000));
  for (std::size_t p = 0; p < cfg.num_processes; ++p) {
    if (p % kPerSegment != 0) {
      world.lwg(p).join(LwgId{p / kPerSegment + 1}, users[p]);
    }
  }
  EXPECT_TRUE(world.run_until(
      [&] {
        for (std::size_t p = 0; p < cfg.num_processes; ++p) {
          if (view_size(p) != kPerSegment) return false;
        }
        return true;
      },
      60'000'000));
  EXPECT_TRUE(world.run_until(
      [&] { return world.convergence_failure().empty(); }, 60'000'000))
      << world.convergence_failure();
  std::uint64_t callbacks = 0;
  for (std::size_t j = 0; j < world.num_servers(); ++j) {
    callbacks += world.server(j).stats().callbacks_sent;
  }
  EXPECT_GT(callbacks, 0u) << "formation raised no naming conflict";

  for (std::uint64_t round = 0; round < 100; ++round) {
    for (std::size_t p = 0; p < cfg.num_processes; ++p) {
      Encoder enc;
      enc.put_u64(round);
      world.lwg(p).send(LwgId{p / kPerSegment + 1}, enc.take());
    }
    world.run_for(10'000);
  }
  EXPECT_TRUE(world.oracle().clean());
  return world.trace_digest();
}

TEST(GoldenDigestTest, Wan100) { expect_golden("wan100", wan100_digest()); }

}  // namespace
}  // namespace plwg::harness
