// Topology-aware shard placement for the sharded simulation engine.
//
// The engine's unit of determinism is the *site* (one LAN segment: its own
// Simulator, RNG stream, packet-id space, trace digest). A *shard* is purely
// an execution grouping — the set of sites one worker advances per window —
// so the placement search below never moves protocol state: re-assigning a
// site to another shard changes which thread runs it, nothing else. That is
// what makes dynamic re-planning safe: trace digests are invariant to the
// plan by construction, and the planner is free to chase measured load.
//
// Three responsibilities:
//   * pack(): greedy LPT (longest-processing-time-first) packing of sites
//     into at most `budget` shards, weighted by load (static topology
//     estimate at first, measured per-window event counts thereafter).
//     Shards never span reachability classes, and the shard budget is split
//     across classes proportionally to class weight (>= 1 each), so a
//     partitioned island always gets shards of its own.
//   * replan(): hysteresis around pack() — keep the current plan unless its
//     measured imbalance exceeds `imbalance_threshold` AND a fresh packing
//     actually lowers the bottleneck shard's load. Stability is a feature:
//     each accepted replan invalidates every worker's cache residency.
//   * retag(): after a reachability change (partition / heal), keep the
//     grouping if every shard is still class-pure under the new classes
//     (heals always are — classes only merged) and just refresh the class
//     tags; repack only when a cut actually splits a shard.
//
// Everything here is a pure function of (weights, classes, budget): no
// clocks, no RNG, no thread state. Replans driven by simulated-time stats
// therefore reproduce bit-for-bit at any PLWG_SIM_THREADS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace plwg::sim {

/// Knobs for the engine's dynamic shard placement (docs/TUNING.md).
struct PlannerConfig {
  /// Off = identity placement: one shard per site, global lockstep windows —
  /// exactly the pre-planner engine, kept as the A/B baseline.
  bool enabled = true;
  /// Simulated-time interval between load-driven replans.
  Duration replan_interval_us = 250'000;
  /// Replan only when max-shard-load / mean-shard-load exceeds this.
  double imbalance_threshold = 1.25;
};

/// A site -> shard assignment plus the reachability class of every shard.
struct ShardPlan {
  /// Sites of each shard, ascending site index (drain order within a shard).
  std::vector<std::vector<std::size_t>> shard_sites;
  /// Inverse map: owning shard of each site.
  std::vector<std::size_t> site_shard;
  /// Reachability class of each shard (all member sites share it).
  std::vector<int> shard_class;

  [[nodiscard]] std::size_t num_shards() const { return shard_sites.size(); }
  [[nodiscard]] std::size_t num_sites() const { return site_shard.size(); }

  /// One shard per site (class tags all zero): the pre-planner layout.
  [[nodiscard]] static ShardPlan identity(std::size_t num_sites);
};

class ShardPlanner {
 public:
  /// Greedy LPT packing of sites into at most `budget` shards (>= 1 per
  /// reachability class, never more than a class has sites). `weights[i]` is
  /// site i's load estimate (0 is treated as 1 so empty sites still get a
  /// home); `site_class[i]` its reachability class. Deterministic: ties
  /// break toward the lower site / shard index.
  [[nodiscard]] static ShardPlan pack(
      const std::vector<std::uint64_t>& weights,
      const std::vector<int>& site_class, std::size_t budget);

  /// max(shard load) / mean(shard load) under `weights`; 1.0 = perfectly
  /// balanced or fewer than two shards.
  [[nodiscard]] static double imbalance(
      const ShardPlan& plan, const std::vector<std::uint64_t>& weights);

  /// Load of the most loaded shard — the window-length bound the plan
  /// imposes on an ideal machine.
  [[nodiscard]] static std::uint64_t max_shard_load(
      const ShardPlan& plan, const std::vector<std::uint64_t>& weights);

  /// Hysteresis step: returns `current` untouched unless its imbalance
  /// under the fresh `weights` exceeds `imbalance_threshold` AND a fresh
  /// pack() strictly lowers the bottleneck load. `changed` (optional)
  /// reports whether the returned plan differs from `current`.
  [[nodiscard]] static ShardPlan replan(const ShardPlan& current,
                                        const std::vector<std::uint64_t>& weights,
                                        const std::vector<int>& site_class,
                                        std::size_t budget,
                                        double imbalance_threshold,
                                        bool* changed = nullptr);

  /// Reachability classes changed: keep the grouping when every shard is
  /// still class-pure (refresh the tags), repack when some shard now spans
  /// two classes. `changed` reports whether the grouping was rebuilt.
  [[nodiscard]] static ShardPlan retag(const ShardPlan& current,
                                       const std::vector<std::uint64_t>& weights,
                                       const std::vector<int>& site_class,
                                       std::size_t budget,
                                       bool* changed = nullptr);
};

}  // namespace plwg::sim
