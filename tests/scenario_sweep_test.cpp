// Seed-sweep over the declarative scenario corpus: every file under
// scenarios/ replays against a range of seeds with the protocol oracle as
// the judge — each episode must form, converge after quiesce, and leave a
// clean oracle report. The CI default covers a small seed range per file;
// set PLWG_SWEEP_SEEDS (count) and PLWG_SWEEP_FIRST (start) for the full
// 25-seed campaign run by scripts/scenario_sweep.sh and recorded in
// EXPERIMENTS.md:
//
//   PLWG_SWEEP_SEEDS=25 ./build/tests/test_scenarios --gtest_filter='*Sweep*'
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

namespace plwg::harness::testing {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

/// Mirror of the lwg fixture's oracle artifact hook: when a scenario
/// episode fails under PLWG_ORACLE_REPORT_DIR, persist the failure text so
/// CI uploads carry the violation trace.
void maybe_write_failure(const std::string& scenario_name, std::uint64_t seed,
                         const std::string& failure) {
  const char* dir = std::getenv("PLWG_ORACLE_REPORT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string name = scenario_name;
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
        c != '_') {
      c = '_';
    }
  }
  std::ofstream out(std::string(dir) + "/scenario-" + name + "-seed" +
                    std::to_string(seed) + ".json");
  out << failure;
}

TEST(ScenarioSweepTest, EveryCorpusFileIsOracleCleanAcrossSeeds) {
  const std::vector<std::string> files = list_scenario_files();
  ASSERT_FALSE(files.empty()) << "no corpus found in " << scenario_dir();

  const std::uint64_t seeds = env_u64("PLWG_SWEEP_SEEDS", 3);
  const std::uint64_t first = env_u64("PLWG_SWEEP_FIRST", 1);

  for (const std::string& file : files) {
    const Scenario scenario = load_scenario_file(file);
    for (std::uint64_t seed = first; seed < first + seeds; ++seed) {
      SCOPED_TRACE(scenario.name + " seed " + std::to_string(seed));
      const ScenarioResult r = run_scenario(scenario, seed);
      EXPECT_TRUE(r.formed) << "group never assembled";
      EXPECT_TRUE(r.converged) << r.failure;
      EXPECT_TRUE(r.oracle_clean) << r.failure;
      if (!r.formed || !r.converged || !r.oracle_clean) {
        maybe_write_failure(scenario.name, seed, r.failure);
      }
    }
  }
}

}  // namespace
}  // namespace plwg::harness::testing
