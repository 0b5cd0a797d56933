// ChaosMonkey: fault injection against a SimWorld, driven step by step so
// tests and benches stay in control of time.
//
// Two sources feed one timed-action schedule:
//   * the randomized injector (ChaosConfig probabilities — partitions,
//     crashes, crash–restart cycles), and
//   * declarative scenarios (harness::Scenario via load()), expanded into
//     primitive actions: partition intervals, directed-link faults, flap
//     trains, crashes with scheduled restarts, and gray faults (process
//     stalls, CPU slow-down intervals, clock-rate skew).
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
  /// Processes currently down.
  [[nodiscard]] const std::vector<std::size_t>& crashed() const {
    return crashed_;
  }
  /// True while process `index` is down.
  [[nodiscard]] bool is_crashed(std::size_t index) const;
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
  /// A primitive timed fault action. Scenario events expand into these;
  /// the random injector mints them too, so both paths share the interval
  /// machinery.
  struct FaultAction {
    enum class Kind {
      kPartitionStart,
      kPartitionEnd,
      kLinkFaultSet,
      kLinkFaultClear,
      kCrash,
      kStall,           // gray: freeze victim for down_us
      kCpuFactorSet,    // gray: victim's per-packet cost *= factor
      kCpuFactorClear,
      kClockRateSet,    // gray: victim's local clock runs at factor
      kClockRateClear,
    };
    Kind kind = Kind::kPartitionStart;
    std::uint64_t interval = 0;  // pairs a start with its end
    // kPartitionStart
    std::vector<std::vector<std::size_t>> islands;
    std::vector<std::size_t> server_islands;
    // kLinkFaultSet / kLinkFaultClear (process indexes, directed)
    std::size_t from = 0;
    std::size_t to = 0;
    sim::LinkFault fault;
    // kCrash / gray kinds
    std::size_t victim = 0;
    Duration down_us = 0;  // 0 = permanent (no scheduled restart)
    double factor = 1.0;   // kCpuFactorSet multiplier / kClockRateSet rate
  };

  struct ActivePartition {
    std::vector<std::vector<std::size_t>> islands;
    std::vector<std::size_t> server_islands;
  };

  struct PendingRestart {
    Time due;
    std::size_t index;
    Time crashed_at;
  };

  void push(Time at, FaultAction action);
  void apply_due_actions();
  void apply(const FaultAction& action);
  /// Recompute the effective reachability classes as the refinement product
  /// of every open partition interval and push them into the world.
  void apply_partitions();
  void set_link(std::size_t from, std::size_t to, bool symmetric,
                const sim::LinkFault* fault);
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
  std::multimap<Time, FaultAction> schedule_;
  std::map<std::uint64_t, ActivePartition> active_partitions_;
  std::size_t partitions_injected_ = 0;
  std::size_t crashes_injected_ = 0;
  std::size_t restarts_fired_ = 0;
  std::size_t link_faults_injected_ = 0;
  std::size_t stalls_injected_ = 0;
  std::size_t gray_faults_injected_ = 0;
  std::vector<std::size_t> crashed_;
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
