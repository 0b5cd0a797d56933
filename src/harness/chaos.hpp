// ChaosMonkey: fault injection against a SimWorld, driven step by step so
// tests and benches stay in control of time.
//
// Two sources feed one schedule of timed actions:
//   * the randomized injector (ChaosConfig probabilities — partitions,
//     crashes, crash–restart cycles), and
//   * declarative scenarios (harness::Scenario via load()).
// An action is a closure that does its whole effect when it runs. load()
// writes each scenario kind's effect once, as windows (a start and, for a
// non-zero duration, an end) over the same helpers the injector uses:
// partition intervals, directed-link faults, flap trains, crashes with
// scheduled restarts, and gray faults (process stalls, CPU slow-down
// intervals, clock-rate skew). Who is down is the world's record
// (SimWorld::crashed); the monkey keeps no copy.
//
// Faults are *intervals*, not a single toggle: any number of partitions,
// link faults and crashes may overlap — a crash can land mid-partition, a
// second partition can open while one is still in force, and rolling
// partitions shift membership between islands with no fully-connected
// instant in between. The effective reachability classes are the refinement
// product of every open partition interval. quiesce() drains the whole
// interval set (and asserts it is empty) before any convergence check.
//
// Deterministic under a fixed seed like everything else in the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace plwg::harness {

struct ChaosConfig {
  std::uint64_t seed = 1;
  /// When false the randomized injector is off: only load()ed scenario
  /// schedules run. Scenario replays must not consume RNG draws.
  bool random_faults = true;
  /// Mean time between random fault events (exponential), microseconds.
  Duration mean_interval_us = 5'000'000;
  /// Mean duration of a random partition interval, microseconds.
  Duration mean_partition_us = 4'000'000;
  /// Probability a random fault event is a crash instead of a partition.
  double crash_probability = 0.0;
  /// Most simultaneously-crashed processes chaos will allow (keeps a
  /// majority alive). With restarts enabled the same process may crash
  /// again after it came back.
  std::size_t max_crashes = 0;
  /// Probability a crashed process gets a restart scheduled (0 = crashes
  /// are permanent, the pre-restart behaviour).
  double restart_probability = 0.0;
  /// Mean downtime between a crash and its scheduled restart (exponential),
  /// microseconds.
  Duration mean_downtime_us = 2'000'000;
};

/// One completed crash–restart cycle, for availability / MTTR accounting.
struct RestartEvent {
  std::size_t index;   // process index
  Time crashed_at;     // when the crash was injected
  Time restarted_at;   // when the restart fired
};

class ChaosMonkey {
 public:
  ChaosMonkey(SimWorld& world, ChaosConfig config);
  // Scheduled actions capture `this`.
  ChaosMonkey(const ChaosMonkey&) = delete;
  ChaosMonkey& operator=(const ChaosMonkey&) = delete;

  /// Expand `scenario`'s fault events into the schedule, with event time 0
  /// anchored at the current sim time. May be called more than once (the
  /// schedules interleave). Asserts every index fits the world.
  void load(const Scenario& scenario);

  /// Advance the world by `us`, injecting faults on the way.
  void run_for(Duration us);

  /// Drain every open fault interval — heal all partitions, clear all link
  /// faults, lift all gray faults (stalls, slow-downs, clock skew), fire
  /// every pending restart, cancel not-yet-started scheduled
  /// faults — and stop injecting. Crashed processes without a scheduled
  /// restart stay down. Asserts the interval set is fully drained, so a
  /// convergence check after quiesce() runs against a healthy network.
  void quiesce();

  [[nodiscard]] std::size_t partitions_injected() const {
    return partitions_injected_;
  }
  [[nodiscard]] std::size_t crashes_injected() const {
    return crashes_injected_;
  }
  [[nodiscard]] std::size_t restarts_fired() const { return restarts_fired_; }
  [[nodiscard]] std::size_t link_faults_injected() const {
    return link_faults_injected_;
  }
  /// Process stalls injected (each stall in a pause train counts).
  [[nodiscard]] std::size_t stalls_injected() const {
    return stalls_injected_;
  }
  /// slow_node / clock_drift intervals opened.
  [[nodiscard]] std::size_t gray_faults_injected() const {
    return gray_faults_injected_;
  }
  /// Completed crash–restart cycles, in restart order.
  [[nodiscard]] const std::vector<RestartEvent>& restart_log() const {
    return restart_log_;
  }
  /// True while at least one partition interval is open.
  [[nodiscard]] bool partitioned() const { return !active_partitions_.empty(); }
  /// Open partition intervals right now.
  [[nodiscard]] std::size_t open_partitions() const {
    return active_partitions_.size();
  }
  /// Scheduled actions (fault starts and ends) not yet applied.
  [[nodiscard]] std::size_t pending_actions() const {
    return schedule_.size();
  }

 private:
  using Action = std::function<void()>;

  struct ActivePartition {
    std::vector<std::vector<std::size_t>> islands;
    std::vector<std::size_t> server_islands;
  };

  struct PendingRestart {
    Time due;
    std::size_t index;
    Time crashed_at;
  };

  void at(Time t, Action action) { schedule_.emplace(t, std::move(action)); }
  /// Schedule `start` at `t` and, for a non-zero `duration`, `end` at
  /// `t + duration` (a zero duration stays open until quiesce()).
  void window(Time t, Duration duration, Action start, Action end);
  /// A link fault from -> to (and to -> from when `symmetric`) as a window.
  void link_window(Time t, Duration duration, std::size_t from,
                   std::size_t to, bool symmetric, const sim::LinkFault& fault);
  /// A gray fault as a window: `set` the process's node to `value`, then
  /// back to 1.
  void gray_window(Time t, Duration duration, std::size_t index,
                   void (sim::Network::*set)(NodeId, double), double value);
  void open_partition(std::uint64_t id,
                      std::vector<std::vector<std::size_t>> islands,
                      std::vector<std::size_t> server_islands);
  void close_partition(std::uint64_t id);
  void apply_due_actions();
  /// Recompute the effective reachability classes as the refinement product
  /// of every open partition interval and push them into the world.
  void apply_partitions();
  void crash_now(std::size_t victim, Duration down_us);
  void inject();
  void fire_due_restarts();
  [[nodiscard]] Time earliest_pending() const;
  [[nodiscard]] Time next_action_time() const;

  SimWorld& world_;
  ChaosConfig config_;
  Rng rng_;
  Time next_event_ = 0;  // next random injection (kTimeMax when disabled)
  std::uint64_t next_interval_id_ = 1;
  /// Timed actions; equal times run in insertion order (std::multimap).
  std::multimap<Time, Action> schedule_;
  std::map<std::uint64_t, ActivePartition> active_partitions_;
  std::size_t partitions_injected_ = 0;
  std::size_t crashes_injected_ = 0;
  std::size_t restarts_fired_ = 0;
  std::size_t link_faults_injected_ = 0;
  std::size_t stalls_injected_ = 0;
  std::size_t gray_faults_injected_ = 0;
  std::vector<PendingRestart> pending_restarts_;
  std::vector<RestartEvent> restart_log_;
};

/// Restart-to-rejoin latency (MTTR) of one LWG under a ChaosMonkey. Each
/// poll() picks up the restarts logged since the last one and counts a
/// restarted process as rejoined once it holds a view of the group again; a
/// process that crashes again before rejoining is dropped uncounted.
class RejoinTracker {
 public:
  RejoinTracker(SimWorld& world, const ChaosMonkey& chaos, LwgId id)
      : world_(world), chaos_(chaos), id_(id) {}

  void poll();

  [[nodiscard]] std::size_t rejoins() const { return rejoins_; }
  /// Mean restart-to-rejoin time over the counted rejoins (0 if none).
  [[nodiscard]] double mean_rejoin_ms() const;
  /// Restarted processes not yet back in a view.
  [[nodiscard]] bool awaiting() const { return !awaiting_.empty(); }

 private:
  SimWorld& world_;
  const ChaosMonkey& chaos_;
  LwgId id_;
  std::size_t log_seen_ = 0;
  std::map<std::size_t, Time> awaiting_;  // index -> restarted_at
  double rejoin_sum_us_ = 0;
  std::size_t rejoins_ = 0;
};

}  // namespace plwg::harness
