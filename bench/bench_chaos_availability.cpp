// Availability under churn — the "why partitionable?" experiment
// (paper Sect. 1/4: partitionable operation keeps every side of a split
// making progress).
//
// Experiment 1: a ChaosMonkey injects random two-way partitions for two
// simulated minutes. Every 100 ms each process is probed: under the
// *partitionable* model it is available whenever it holds a view of its
// group (it can send and deliver within its side); under a
// *primary-component* model — what a non-partitionable service would give —
// it is available only when its view holds a majority. The gap between the
// two columns is the availability the paper's design recovers.
//
// Experiment 2: crash–restart churn. Chaos crashes processes and restarts
// them after an exponential downtime; each reborn incarnation replays its
// durable state and rejoins its LWG through the naming service. Reported
// per configuration: group availability under the churn and the
// mean-time-to-rejoin (MTTR) — restart until the reborn process holds a
// view of its group again.
#include <cstdio>
#include <iostream>

#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "metrics/stats.hpp"

namespace plwg::bench {
namespace {

struct Availability {
  double partitionable = 0;
  double primary_component = 0;
  std::size_t partitions = 0;
};

Availability run_one(std::uint64_t seed, Duration mean_partition_us) {
  constexpr std::size_t kProcs = 6;
  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the protocol, not checking it
  cfg.num_processes = kProcs;
  cfg.num_name_servers = 2;
  harness::SimWorld world(cfg);
  lwg::NoopUser user;
  const LwgId id{1};
  world.form_lwg(id, harness::process_range(0, kProcs), user);

  harness::ChaosConfig chaos_cfg;
  chaos_cfg.seed = seed;
  chaos_cfg.mean_interval_us = 6'000'000;
  chaos_cfg.mean_partition_us = mean_partition_us;
  harness::ChaosMonkey chaos(world, chaos_cfg);

  constexpr Duration kRun = 120'000'000;
  constexpr Duration kSample = 100'000;
  std::uint64_t samples = 0, avail_part = 0, avail_primary = 0;
  const Time end = world.simulator().now() + kRun;
  while (world.simulator().now() < end) {
    chaos.run_for(kSample);
    for (std::size_t i = 0; i < kProcs; ++i) {
      ++samples;
      const lwg::LwgView* v = world.lwg(i).view_of(id);
      if (v != nullptr) {
        ++avail_part;
        if (v->members.size() > kProcs / 2) ++avail_primary;
      }
    }
  }
  chaos.quiesce();
  Availability out;
  out.partitionable = 100.0 * static_cast<double>(avail_part) /
                      static_cast<double>(samples);
  out.primary_component = 100.0 * static_cast<double>(avail_primary) /
                          static_cast<double>(samples);
  out.partitions = chaos.partitions_injected();
  return out;
}

struct CrashChurnResult {
  double availability = 0;    // % of alive-process samples holding a view
  std::size_t crashes = 0;
  std::size_t restarts = 0;
  double mean_downtime_ms = 0;  // crash -> restart (injected by chaos)
  double mean_mttr_ms = 0;      // restart -> holding a group view again
  std::size_t rejoins = 0;
};

CrashChurnResult run_crash_churn(std::uint64_t seed,
                                 Duration mean_downtime_us) {
  constexpr std::size_t kProcs = 6;
  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the protocol, not checking it
  cfg.num_processes = kProcs;
  cfg.num_name_servers = 2;
  harness::SimWorld world(cfg);
  lwg::NoopUser user;
  const LwgId id{1};
  world.form_lwg(id, harness::process_range(0, kProcs), user);

  harness::ChaosConfig chaos_cfg;
  chaos_cfg.seed = seed ^ 0xc4a5;
  chaos_cfg.mean_interval_us = 5'000'000;
  chaos_cfg.crash_probability = 1.0;  // crash-only churn
  chaos_cfg.max_crashes = 2;          // keep a majority up
  chaos_cfg.restart_probability = 1.0;
  chaos_cfg.mean_downtime_us = mean_downtime_us;
  harness::ChaosMonkey chaos(world, chaos_cfg);

  constexpr Duration kRun = 120'000'000;
  constexpr Duration kSample = 100'000;
  std::uint64_t samples = 0, avail = 0;
  harness::RejoinTracker rejoins(world, chaos, id);

  const Time end = world.simulator().now() + kRun;
  while (world.simulator().now() < end) {
    chaos.run_for(kSample);
    rejoins.poll();
    for (std::size_t i = 0; i < kProcs; ++i) {
      if (world.crashed(i)) continue;
      ++samples;
      if (world.lwg(i).view_of(id) != nullptr) ++avail;
    }
  }
  chaos.quiesce();
  // Let the stragglers finish rejoining so MTTR covers every cycle.
  while (rejoins.awaiting() && world.simulator().now() < end + 120'000'000) {
    world.run_for(kSample);
    rejoins.poll();
  }

  CrashChurnResult out;
  out.availability =
      100.0 * static_cast<double>(avail) / static_cast<double>(samples);
  out.crashes = chaos.crashes_injected();
  out.restarts = chaos.restarts_fired();
  double downtime_sum = 0;
  for (const harness::RestartEvent& ev : chaos.restart_log()) {
    downtime_sum += static_cast<double>(ev.restarted_at - ev.crashed_at);
  }
  out.mean_downtime_ms =
      out.restarts == 0 ? 0 : downtime_sum / 1e3 /
                                  static_cast<double>(out.restarts);
  out.rejoins = rejoins.rejoins();
  out.mean_mttr_ms = rejoins.mean_rejoin_ms();
  return out;
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  std::printf("# Availability under partition churn: partitionable LWGs vs "
              "a primary-component model (6 processes, 2 sim-minutes)\n");
  metrics::Table table({"mean-partition-s", "seed", "partitions-injected",
                        "partitionable-avail-pct", "primary-component-pct"});
  for (Duration mean : {2'000'000, 8'000'000, 20'000'000}) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      const Availability a = run_one(seed, mean);
      table.add_row(
          {metrics::Table::fmt(static_cast<double>(mean) / 1e6, 0),
           std::to_string(seed), std::to_string(a.partitions),
           metrics::Table::fmt(a.partitionable, 1),
           metrics::Table::fmt(a.primary_component, 1)});
    }
  }
  table.print(std::cout);
  std::printf("\nshape check: partitionable availability stays near 100%% "
              "regardless of partition length; the primary-component model "
              "loses the minority side for the partition's whole "
              "duration.\n");

  std::printf("\n# Availability under crash-restart churn: every crash gets "
              "a restart after an exponential downtime (6 processes, "
              "2 sim-minutes)\n");
  metrics::Table churn({"mean-downtime-s", "seed", "crashes", "restarts",
                        "avail-pct-of-alive", "mean-downtime-ms",
                        "rejoins", "mean-mttr-ms"});
  for (Duration mean_downtime : {500'000, 2'000'000, 8'000'000}) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      const CrashChurnResult r = run_crash_churn(seed, mean_downtime);
      churn.add_row(
          {metrics::Table::fmt(static_cast<double>(mean_downtime) / 1e6, 1),
           std::to_string(seed), std::to_string(r.crashes),
           std::to_string(r.restarts),
           metrics::Table::fmt(r.availability, 1),
           metrics::Table::fmt(r.mean_downtime_ms, 0),
           std::to_string(r.rejoins),
           metrics::Table::fmt(r.mean_mttr_ms, 0)});
    }
  }
  churn.print(std::cout);
  std::printf("\nshape check: alive processes keep their views while reborn "
              "incarnations re-resolve and rejoin in about a second (MTTR "
              "tracks the failure-detector and naming-service round-trips, "
              "not the downtime).\n");

  // Experiment 3: the adversarial scenario corpus, one row per fault
  // family. Each corpus file replays through the same run_scenario() path
  // the tests and the CI sweep use (oracle on), averaged over a few seeds:
  // availability while the faults are live, recovery time from quiesce to
  // full convergence (family MTTR), and rejoin latency where the family
  // restarts processes.
  std::printf("\n# Adversarial scenario corpus: availability / recovery "
              "matrix per fault family (oracle on, 3 seeds per family)\n");
  metrics::Table corpus({"family", "avail-pct", "recovery-ms",
                         "mean-rejoin-ms", "partitions", "crashes",
                         "link-faults", "oracle"});
  for (const std::string& path : harness::list_scenario_files()) {
    const harness::Scenario sc = harness::load_scenario_file(path);
    double avail = 0, recovery_ms = 0, rejoin_ms = 0;
    std::size_t parts = 0, crashes = 0, links = 0, rejoin_rows = 0;
    bool clean = true;
    constexpr std::uint64_t kSeeds = 3;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const harness::ScenarioResult r = run_scenario(sc, seed);
      avail += r.availability_pct;
      recovery_ms += static_cast<double>(r.recovery_us) / 1e3;
      if (r.rejoins > 0) {
        rejoin_ms += r.mean_rejoin_ms;
        ++rejoin_rows;
      }
      parts += r.partitions;
      crashes += r.crashes;
      links += r.link_faults;
      clean = clean && r.converged && r.oracle_clean;
    }
    corpus.add_row(
        {sc.name, metrics::Table::fmt(avail / kSeeds, 1),
         metrics::Table::fmt(recovery_ms / kSeeds, 0),
         rejoin_rows == 0
             ? std::string("-")
             : metrics::Table::fmt(rejoin_ms /
                                       static_cast<double>(rejoin_rows),
                                   0),
         std::to_string(parts / kSeeds), std::to_string(crashes / kSeeds),
         std::to_string(links / kSeeds), clean ? "clean" : "VIOLATION"});
  }
  corpus.print(std::cout);
  std::printf("\nshape check: every family converges oracle-clean; "
              "availability dips scale with how much of the membership each "
              "family takes offline, and recovery stays within the "
              "failure-detector + merge timescale.\n");
  return 0;
}
