// Declarative adversarial-scenario DSL: a JSON document describes a world
// shape plus a schedule of timed fault events — asymmetric (one-way) links,
// link flap trains, rolling partitions that never fully heal, crashes that
// land mid-partition, churn storms — and every consumer (tests, the
// scenario sweep, bench_chaos_availability) replays the same corpus under
// `scenarios/` through the same loader.
//
// Schema (all times in milliseconds, all node references are process
// indexes; unknown keys anywhere are rejected):
//
//   {
//     "name": "rolling-partition",            // required
//     "description": "...",                   // optional
//     "processes": 6,                         // default 6
//     "name_servers": 2,                      // default 2
//     "segments": [[0,1,2],[3,4,5]],          // optional multi-LAN topology
//     "run_ms": 40000,                        // fault phase length
//     "converge_timeout_ms": 300000,          // post-quiesce settle budget
//     "net": {"drop_probability": 0.01, "jitter_ms": 2},   // optional
//     "events": [ ... ]                       // required, see kinds below
//   }
//
// Event kinds:
//   partition         at_ms, islands=[[...],...], server_islands?, duration_ms?
//                     (omitted/0 duration = open until quiesce; processes not
//                     listed in any island form an implicit "rest" island)
//   rolling_partition at_ms, islands, steps, step_ms, rotate_by?
//                     (membership rotates through the islands each step with
//                     no fully-connected instant in between)
//   link_down         at_ms, from, to, duration_ms?, symmetric? (default
//                     false: one-way — `from` can still hear `to`)
//   link_lossy        at_ms, from, to, duration_ms?, symmetric?,
//                     drop_probability?, jitter_ms?
//   flap              at_ms, from, to, period_ms, count, down_ms?,
//                     symmetric?  (count cycles of down_ms outage per period)
//   crash             at_ms, node, down_ms? (omitted/0 = permanent)
//   churn_storm       at_ms, nodes=[...], cycles, down_ms, gap_ms
//                     (staggered crash–restart cycles across `nodes`)
//
// Gray-failure kinds (the node is degraded, never dead):
//   stall             at_ms, node, duration_ms, period_ms?, count?
//                     (freeze the node's process — GC pause / VM migration:
//                     no inbound processing, outbound sends burst out when
//                     the stall lifts. count>1 repeats the stall every
//                     period_ms — a pause train.)
//   slow_node         at_ms, node, factor, duration_ms?
//                     (multiply the node's per-packet CPU cost by factor>=1;
//                     omitted/0 duration = degraded until quiesce)
//   clock_drift       at_ms, node, rate, duration_ms?
//                     (skew the node's local clock: all its protocol timers
//                     run at `rate` — 0.9 = 10% slow (heartbeats late, peers
//                     grow suspicious), 1.1 = 10% fast (suspects peers
//                     early). Omitted/0 duration = skewed until quiesce.)
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace plwg::harness {

/// Thrown on malformed or out-of-range scenario input; the message names
/// the offending key/value (and line/column for JSON syntax errors).
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& what) : std::runtime_error(what) {}
};

struct ScenarioEvent {
  enum class Kind {
    kPartition,
    kRollingPartition,
    kLinkDown,
    kLinkLossy,
    kFlap,
    kCrash,
    kChurnStorm,
    kStall,
    kSlowNode,
    kClockDrift,
  };
  Kind kind = Kind::kPartition;
  Time at_us = 0;            // relative to scenario start
  Duration duration_us = 0;  // 0 = open until quiesce (where applicable)

  // partition / rolling_partition
  std::vector<std::vector<std::size_t>> islands;
  std::vector<std::size_t> server_islands;  // island index per name server
  std::size_t steps = 0;                    // rolling: number of shifts
  Duration step_us = 0;                     // rolling: interval per shift
  std::size_t rotate_by = 1;                // rolling: members shifted/step

  // link_down / link_lossy / flap
  std::size_t from = 0;
  std::size_t to = 0;
  bool symmetric = false;
  double drop_probability = -1.0;  // lossy override; <0 inherits config
  Duration jitter_us = -1;         // lossy override; <0 inherits config
  Duration period_us = 0;          // flap cycle length
  Duration down_us = 0;            // flap outage per cycle / crash downtime
  std::size_t count = 0;           // flap cycles

  // crash / churn_storm
  std::size_t node = 0;
  std::vector<std::size_t> nodes;
  std::size_t cycles = 0;
  Duration gap_us = 0;  // churn: stagger between successive crashes

  // stall / slow_node / clock_drift (stall trains reuse period_us + count)
  double factor = 1.0;  // slow_node CPU multiplier
  double rate = 1.0;    // clock_drift local-clock speed
};

struct Scenario {
  std::string name;
  std::string description;
  std::size_t processes = 6;
  std::size_t name_servers = 2;
  std::vector<std::vector<std::size_t>> segments;  // empty = single LAN
  Duration run_us = 40'000'000;
  Duration converge_timeout_us = 300'000'000;
  double net_drop_probability = 0.0;
  Duration net_jitter_us = 0;
  std::vector<ScenarioEvent> events;
};

/// Parse and validate a scenario document. Throws ScenarioError with a
/// message naming the problem (unknown key, out-of-range index, malformed
/// JSON with line/column, ...).
[[nodiscard]] Scenario parse_scenario(std::string_view json_text);

/// Read + parse a corpus file. Throws ScenarioError (unreadable file or any
/// parse_scenario failure, prefixed with the path).
[[nodiscard]] Scenario load_scenario_file(const std::string& path);

/// The corpus directory: $PLWG_SCENARIO_DIR if set, else the compiled-in
/// source-tree default.
[[nodiscard]] std::string scenario_dir();

/// Corpus files (sorted *.json) under `dir` (default scenario_dir()).
[[nodiscard]] std::vector<std::string> list_scenario_files(
    const std::string& dir = {});

/// Outcome of one scenario episode (see run_scenario in scenario_run.cpp).
struct ScenarioResult {
  bool formed = false;        // the LWG assembled before fault injection
  bool converged = false;     // post-quiesce convergence within the budget
  bool oracle_clean = false;  // no invariant violations across the episode
  std::string failure;        // first convergence failure / oracle report
  std::uint64_t digest = 0;   // combined trace digest (replay witness)
  double availability_pct = 0;  // alive-process samples holding a view
  Duration recovery_us = 0;     // quiesce -> convergence (family MTTR)
  double mean_rejoin_ms = 0;    // restart -> view regained, when restarts
  std::size_t rejoins = 0;
  std::size_t partitions = 0;
  std::size_t crashes = 0;
  std::size_t restarts = 0;
  std::size_t link_faults = 0;
};

/// Build the world, form one LWG over every process, replay the scenario's
/// fault schedule with light application traffic, quiesce, converge, and
/// report. Fully deterministic in (scenario, seed) — the same call yields
/// byte-identical digests. The oracle is always on; violations are returned
/// (not aborted on) so callers surface them through gtest.
[[nodiscard]] ScenarioResult run_scenario(const Scenario& scenario,
                                          std::uint64_t seed);

}  // namespace plwg::harness
