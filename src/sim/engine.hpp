// Sharded discrete-event engine: deterministic multi-core simulation with
// topology-aware shard placement.
//
// Two layers of decomposition, deliberately distinct:
//
//   * A *site* is the unit of determinism — one per LAN segment (see
//     sim::Network::set_segments). Each site owns a private Simulator (its
//     own timer arena, event heap, clock), and sim::Network gives it its own
//     RNG stream, packet-id space, stats, and trace digest. A site is only
//     ever advanced by one thread at a time, and its event sequence depends
//     only on its own events plus cross-site injections at fixed barrier
//     times — never on which thread ran it.
//
//   * A *shard* is the unit of execution — the set of sites one worker
//     advances together. The site→shard assignment lives in a ShardPlan and
//     is chosen by the ShardPlanner from measured per-site load (greedy LPT
//     packing into ≈`threads` shards, periodic hysteresis replans at
//     barriers). Because a site's mutable state never depends on its shard,
//     re-planning moves no protocol state and cannot change a trace digest.
//
// Shards synchronize with a conservative time-window scheme:
//
//   * All shards advance in lockstep windows of `lookahead` simulated
//     microseconds. Within a window every site runs its local events with no
//     locks and no cross-site visibility.
//   * The only causal coupling between sites is a cross-site packet, and
//     every such packet pays at least the backbone propagation delay — so a
//     lookahead equal to that minimum latency guarantees no site can receive
//     an event timestamped inside the window it is running.
//   * Cross-site events are appended to the *source site's* outbox during
//     the window and injected into the destination site at the window
//     barrier, in fixed (source site, post order) order.
//
// Reachability-class scheduling removes barriers partitions make redundant:
// sim::Network reports which sites can exchange packets at all (partition
// classes unioned over segments). The planner never lets a shard span two
// classes, and a class whose sites all fit in ONE shard is an *island*: its
// worker runs it to the run_until target in a single job — sub-windowing
// thread-locally when the island has several sites, with zero barriers when
// it has one — instead of lock-stepping with the rest of the world. Islands
// use the same window grid and drain order a lock-stepped run would, so the
// schedule, and hence every digest, is byte-identical either way.
//
// Determinism is the design invariant, not an accident: same seed ⇒
// byte-identical trace at 1, 2, or N threads, planner on or off, across
// replans (enforced by tests/determinism_test.cpp over sim::Network's
// TraceDigest). Replans trigger on simulated time and feed on per-site
// event counts — never wall clock or thread timing.
//
// A single-site engine degenerates to a plain single-threaded event loop:
// one job per run, no outboxes, no worker threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/shard_planner.hpp"
#include "sim/simulator.hpp"
#include "util/function.hpp"
#include "util/types.hpp"

namespace plwg::sim {

class Engine {
 public:
  struct Config {
    /// Worker threads executing shard jobs. 0 reads PLWG_SIM_THREADS from
    /// the environment (default 1). Clamped to the site count — more
    /// threads than sites cannot help.
    std::size_t threads = 0;
    /// Dynamic shard placement (docs/TUNING.md). Disabled = identity
    /// placement, one shard per site in global lockstep — the pre-planner
    /// engine, kept as the A/B baseline.
    PlannerConfig planner;
  };

  explicit Engine(std::size_t num_sites = 1);
  Engine(std::size_t num_sites, Config config);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] std::size_t num_sites() const { return sites_.size(); }
  /// Effective worker count (after env lookup and site clamping).
  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] Simulator& site(std::size_t i) { return *sites_[i]; }
  [[nodiscard]] const Simulator& site(std::size_t i) const {
    return *sites_[i];
  }

  /// Completed simulation horizon: every site's clock equals this whenever
  /// the engine is idle (between run_until calls). Mid-run, island sites may
  /// be ahead of it — nothing observable crosses the gap.
  [[nodiscard]] Time now() const {
    return horizon_.load(std::memory_order_relaxed);
  }

  /// Minimum cross-site event latency, microseconds. Every cross-site post
  /// made while a window is running must be timestamped at least this far
  /// after the window's start; the poster (sim::Network) guarantees it by
  /// construction and the barrier asserts it. Must be > 0 before a
  /// multi-site engine runs.
  void set_lookahead(Duration us);
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Schedule `fn` at absolute time `t` on site `dst`. Callable from inside
  /// a running site (appends to the posting site's outbox, injected at the
  /// next window boundary) or from the driver thread while idle (scheduled
  /// directly).
  void post(std::size_t dst, Time t, UniqueFunction fn);

  /// Run `hook` on the driver thread each time run_until returns (all sites
  /// at the target, outboxes empty). Used by the oracle mux to replay
  /// per-site observer rings in deterministic order.
  void add_barrier_hook(std::function<void()> hook);

  /// Advance every site to exactly time `t`. Returns events executed.
  std::size_t run_until(Time t);
  std::size_t run_for(Duration d) { return run_until(now() + d); }

  /// True from run_until entry to exit (any thread). Global topology
  /// mutations (crash, partition, replan inputs) are only legal while idle.
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_relaxed);
  }

  /// Site index the calling thread is currently executing, or -1 when the
  /// caller is not inside a site's events (driver thread, or idle).
  [[nodiscard]] static int current_site();
  /// Clock of the site the calling thread is executing, falling back to
  /// the completed horizon — safe from any thread, for log timestamps.
  [[nodiscard]] Time log_now() const;

  // --- load accounting ----------------------------------------------------
  /// Events executed by site `i` since construction (monotonic).
  [[nodiscard]] std::uint64_t site_events_run(std::size_t i) const {
    return sites_[i]->total_events_run();
  }
  /// Events executed by plan shard `s` (sum of its sites' counters), for
  /// load-balance accounting: speedup is bounded by sum/max of shard loads.
  [[nodiscard]] std::uint64_t shard_events_run(std::size_t s) const;

  /// Start a measurement window: snapshot every site's event counter so the
  /// *_in_window accessors report activity since this call, not lifetime
  /// totals. Driver thread, idle only.
  void begin_event_window();
  [[nodiscard]] std::uint64_t site_events_in_window(std::size_t i) const;
  [[nodiscard]] std::uint64_t shard_events_in_window(std::size_t s) const;

  // --- planner surface ----------------------------------------------------
  /// Current site→shard assignment. Stable while the engine runs; may
  /// change across run_until calls when the planner is enabled.
  [[nodiscard]] const ShardPlan& plan() const { return plan_; }
  [[nodiscard]] std::size_t num_shards() const { return plan_.num_shards(); }
  [[nodiscard]] const PlannerConfig& planner_config() const {
    return planner_;
  }
  /// Accepted plan changes since construction (load replans + class-change
  /// repacks; the initial packing is not counted).
  [[nodiscard]] std::size_t replan_count() const { return replan_count_; }

  /// Static per-site load estimates (sim::Network pushes node counts at
  /// set_segments). Triggers a fresh packing when the planner is enabled.
  /// Driver thread, idle only.
  void set_site_weights(const std::vector<std::uint64_t>& weights);
  /// Reachability classes (sim::Network pushes them at set_segments /
  /// set_partitions / heal). Keeps the current grouping when every shard
  /// stays class-pure, repacks otherwise. Driver thread, idle only.
  void set_site_classes(const std::vector<int>& classes);
  [[nodiscard]] const std::vector<int>& site_classes() const {
    return site_class_;
  }

 private:
  struct Posted {
    std::size_t dst;
    Time t;
    UniqueFunction fn;
  };
  /// One unit of worker execution: advance shard `shard`'s sites to `end`.
  /// Island jobs sub-window from `start` at lookahead granularity and drain
  /// their own outboxes thread-locally; window jobs run one lockstep window
  /// and leave draining to the driver's barrier.
  struct Job {
    std::size_t shard;
    Time start;
    Time end;
    bool island;
  };

  void maybe_replan();
  std::size_t run_job(const Job& job);
  std::size_t run_jobs_sequential();
  std::size_t run_jobs_parallel();
  void drain_outboxes();
  void drain_island_outboxes(std::size_t shard, Time window_end);
  void worker_main(std::size_t w);

  std::vector<std::unique_ptr<Simulator>> sites_;
  /// outbox_[src]: written only by the thread running site `src` during a
  /// window, drained at the next window boundary — by the driver thread at
  /// lockstep barriers, or by the owning worker inside an island job (all
  /// destinations are then island-local) — never concurrently.
  std::vector<std::vector<Posted>> outbox_;
  std::vector<std::function<void()>> barrier_hooks_;
  Duration lookahead_ = 0;
  std::atomic<Time> horizon_{0};
  std::atomic<bool> running_{false};

  // Placement state. Mutated only on the driver thread while idle (or at
  // run_until entry before any job is dispatched).
  PlannerConfig planner_;
  ShardPlan plan_;
  std::vector<int> site_class_;
  std::vector<std::uint64_t> replan_base_;  // site counters at last replan
  Time last_replan_at_ = 0;
  std::size_t replan_count_ = 0;
  std::vector<std::uint64_t> window_base_;  // begin_event_window snapshot

  /// Jobs of the current dispatch; written by the driver while the pool is
  /// quiescent, read by workers (worker w runs jobs w, w+T, w+2T, …).
  std::vector<Job> jobs_;

  // Worker pool (spawned in the constructor iff threads_ > 1).
  std::size_t threads_ = 1;
  std::mutex pool_mutex_;
  std::condition_variable pool_work_;
  std::condition_variable pool_done_;
  std::uint64_t pool_generation_ = 0;
  std::size_t pool_pending_ = 0;
  std::size_t pool_events_ = 0;
  bool pool_stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace plwg::sim
