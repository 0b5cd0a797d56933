#include "harness/chaos.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace plwg::harness {

namespace {

/// One rolling-partition shift: flatten the islands in order, rotate the
/// flattened membership left by `by`, re-slice into the same island sizes.
std::vector<std::vector<std::size_t>> rotated(
    const std::vector<std::vector<std::size_t>>& islands, std::size_t by) {
  std::vector<std::size_t> flat;
  for (const auto& island : islands) {
    flat.insert(flat.end(), island.begin(), island.end());
  }
  PLWG_ASSERT(!flat.empty());
  std::rotate(flat.begin(),
              flat.begin() + static_cast<std::ptrdiff_t>(by % flat.size()),
              flat.end());
  std::vector<std::vector<std::size_t>> out;
  std::size_t pos = 0;
  for (const auto& island : islands) {
    out.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                     flat.begin() + static_cast<std::ptrdiff_t>(pos +
                                                                island.size()));
    pos += island.size();
  }
  return out;
}

}  // namespace

ChaosMonkey::ChaosMonkey(SimWorld& world, ChaosConfig config)
    : world_(world), config_(config), rng_(config.seed) {
  // A disabled injector must not draw from the RNG: scenario replays depend
  // on the world seeing the exact same random stream regardless of chaos.
  next_event_ = config_.random_faults
                    ? world_.simulator().now() +
                          static_cast<Duration>(rng_.next_exponential(
                              static_cast<double>(config_.mean_interval_us)))
                    : kTimeMax;
}

void ChaosMonkey::push(Time at, FaultAction action) {
  // std::multimap keeps equal keys in insertion order, so a rolling
  // partition's end(k) / start(k+1) pair at the same instant applies in the
  // order load() emitted it.
  schedule_.emplace(at, std::move(action));
}

void ChaosMonkey::load(const Scenario& scenario) {
  const std::size_t n = world_.num_processes();
  PLWG_ASSERT_MSG(scenario.processes <= n,
                  "scenario names more processes than the world has");
  const Time base = world_.simulator().now();
  for (const ScenarioEvent& ev : scenario.events) {
    const Time at = base + ev.at_us;
    switch (ev.kind) {
      case ScenarioEvent::Kind::kPartition: {
        FaultAction start;
        start.kind = FaultAction::Kind::kPartitionStart;
        start.interval = next_interval_id_++;
        start.islands = ev.islands;
        start.server_islands = ev.server_islands;
        const std::uint64_t id = start.interval;
        push(at, std::move(start));
        if (ev.duration_us > 0) {
          FaultAction end;
          end.kind = FaultAction::Kind::kPartitionEnd;
          end.interval = id;
          push(at + ev.duration_us, std::move(end));
        }
        break;
      }
      case ScenarioEvent::Kind::kRollingPartition: {
        // steps shifts with no fully-connected instant in between: at each
        // shift boundary the previous interval ends and the rotated one
        // starts at the same timestamp, applied back-to-back while idle.
        auto islands = ev.islands;
        Time t = at;
        std::uint64_t id = next_interval_id_++;
        FaultAction first;
        first.kind = FaultAction::Kind::kPartitionStart;
        first.interval = id;
        first.islands = islands;
        push(t, std::move(first));
        for (std::size_t k = 0; k < ev.steps; ++k) {
          t += ev.step_us;
          FaultAction end;
          end.kind = FaultAction::Kind::kPartitionEnd;
          end.interval = id;
          push(t, std::move(end));
          islands = rotated(islands, ev.rotate_by);
          id = next_interval_id_++;
          FaultAction start;
          start.kind = FaultAction::Kind::kPartitionStart;
          start.interval = id;
          start.islands = islands;
          push(t, std::move(start));
        }
        FaultAction last;
        last.kind = FaultAction::Kind::kPartitionEnd;
        last.interval = id;
        push(t + ev.step_us, std::move(last));
        break;
      }
      case ScenarioEvent::Kind::kLinkDown:
      case ScenarioEvent::Kind::kLinkLossy: {
        sim::LinkFault fault;
        if (ev.kind == ScenarioEvent::Kind::kLinkDown) {
          fault.blocked = true;
        } else {
          fault.drop_probability = ev.drop_probability;
          fault.jitter_us = ev.jitter_us;
        }
        const auto emit = [&](std::size_t from, std::size_t to) {
          FaultAction set;
          set.kind = FaultAction::Kind::kLinkFaultSet;
          set.from = from;
          set.to = to;
          set.fault = fault;
          push(at, std::move(set));
          if (ev.duration_us > 0) {
            FaultAction clear;
            clear.kind = FaultAction::Kind::kLinkFaultClear;
            clear.from = from;
            clear.to = to;
            push(at + ev.duration_us, std::move(clear));
          }
        };
        emit(ev.from, ev.to);
        if (ev.symmetric) emit(ev.to, ev.from);
        break;
      }
      case ScenarioEvent::Kind::kFlap: {
        sim::LinkFault fault;
        fault.blocked = true;
        for (std::size_t c = 0; c < ev.count; ++c) {
          const Time t0 = at + static_cast<Duration>(c) * ev.period_us;
          const auto emit = [&](std::size_t from, std::size_t to) {
            FaultAction set;
            set.kind = FaultAction::Kind::kLinkFaultSet;
            set.from = from;
            set.to = to;
            set.fault = fault;
            push(t0, std::move(set));
            FaultAction clear;
            clear.kind = FaultAction::Kind::kLinkFaultClear;
            clear.from = from;
            clear.to = to;
            push(t0 + ev.down_us, std::move(clear));
          };
          emit(ev.from, ev.to);
          if (ev.symmetric) emit(ev.to, ev.from);
        }
        break;
      }
      case ScenarioEvent::Kind::kCrash: {
        FaultAction crash;
        crash.kind = FaultAction::Kind::kCrash;
        crash.victim = ev.node;
        crash.down_us = ev.down_us;
        push(at, std::move(crash));
        break;
      }
      case ScenarioEvent::Kind::kChurnStorm: {
        Time t = at;
        for (std::size_t c = 0; c < ev.cycles; ++c) {
          for (const std::size_t victim : ev.nodes) {
            FaultAction crash;
            crash.kind = FaultAction::Kind::kCrash;
            crash.victim = victim;
            crash.down_us = ev.down_us;
            push(t, std::move(crash));
            t += ev.gap_us;
          }
        }
        break;
      }
      case ScenarioEvent::Kind::kStall: {
        // A pause train: count stalls of duration_us, one per period_us.
        const std::size_t count = std::max<std::size_t>(ev.count, 1);
        for (std::size_t c = 0; c < count; ++c) {
          FaultAction stall;
          stall.kind = FaultAction::Kind::kStall;
          stall.victim = ev.node;
          stall.down_us = ev.duration_us;
          push(at + static_cast<Duration>(c) * ev.period_us,
               std::move(stall));
        }
        break;
      }
      case ScenarioEvent::Kind::kSlowNode: {
        FaultAction set;
        set.kind = FaultAction::Kind::kCpuFactorSet;
        set.victim = ev.node;
        set.factor = ev.factor;
        push(at, std::move(set));
        if (ev.duration_us > 0) {
          FaultAction clear;
          clear.kind = FaultAction::Kind::kCpuFactorClear;
          clear.victim = ev.node;
          push(at + ev.duration_us, std::move(clear));
        }
        break;
      }
      case ScenarioEvent::Kind::kClockDrift: {
        FaultAction set;
        set.kind = FaultAction::Kind::kClockRateSet;
        set.victim = ev.node;
        set.factor = ev.rate;
        push(at, std::move(set));
        if (ev.duration_us > 0) {
          FaultAction clear;
          clear.kind = FaultAction::Kind::kClockRateClear;
          clear.victim = ev.node;
          push(at + ev.duration_us, std::move(clear));
        }
        break;
      }
    }
  }
}

void ChaosMonkey::run_for(Duration us) {
  const Time deadline = world_.simulator().now() + us;
  while (world_.simulator().now() < deadline) {
    fire_due_restarts();
    apply_due_actions();
    if (config_.random_faults && next_event_ <= world_.simulator().now()) {
      inject();
    }
    const Time step = std::min(
        {deadline, next_event_, earliest_pending(), next_action_time()});
    if (step > world_.simulator().now()) {
      world_.run_for(step - world_.simulator().now());
    }
  }
  fire_due_restarts();
  apply_due_actions();
}

void ChaosMonkey::quiesce() {
  // Cancel not-yet-started faults first so ending the open intervals below
  // cannot race a scheduled start at the same timestamp.
  schedule_.clear();
  if (!active_partitions_.empty()) {
    active_partitions_.clear();
    world_.heal();
  }
  world_.network().clear_link_faults();
  // Lift every gray fault: active stalls end now (their CPU backlog is
  // forgiven), slow-down factors and clock rates go back to 1.
  world_.network().clear_node_faults();
  // Fire every scheduled restart now: quiescence means the world settles
  // with everyone that was going to come back already back.
  for (PendingRestart& pr : pending_restarts_) {
    pr.due = world_.simulator().now();
  }
  fire_due_restarts();
  next_event_ = kTimeMax;
  // The convergence check that follows quiesce() must run against a healthy
  // network: nothing scheduled, nothing open, nothing pending.
  PLWG_ASSERT_MSG(schedule_.empty() && active_partitions_.empty() &&
                      pending_restarts_.empty() &&
                      world_.network().link_fault_count() == 0 &&
                      world_.network().node_fault_count() == 0,
                  "quiesce left fault state behind");
}

Time ChaosMonkey::earliest_pending() const {
  Time t = kTimeMax;
  for (const PendingRestart& pr : pending_restarts_) t = std::min(t, pr.due);
  return t;
}

Time ChaosMonkey::next_action_time() const {
  return schedule_.empty() ? kTimeMax : schedule_.begin()->first;
}

bool ChaosMonkey::is_crashed(std::size_t index) const {
  return std::find(crashed_.begin(), crashed_.end(), index) != crashed_.end();
}

void ChaosMonkey::fire_due_restarts() {
  const Time now = world_.simulator().now();
  for (std::size_t i = 0; i < pending_restarts_.size();) {
    if (pending_restarts_[i].due > now) {
      ++i;
      continue;
    }
    const PendingRestart pr = pending_restarts_[i];
    pending_restarts_.erase(pending_restarts_.begin() + i);
    world_.restart(pr.index);
    std::erase(crashed_, pr.index);
    restarts_fired_++;
    restart_log_.push_back(RestartEvent{pr.index, pr.crashed_at, now});
  }
}

void ChaosMonkey::apply_due_actions() {
  while (!schedule_.empty() &&
         schedule_.begin()->first <= world_.simulator().now()) {
    FaultAction action = std::move(schedule_.begin()->second);
    schedule_.erase(schedule_.begin());
    apply(action);
  }
}

void ChaosMonkey::apply(const FaultAction& action) {
  switch (action.kind) {
    case FaultAction::Kind::kPartitionStart:
      active_partitions_.emplace(
          action.interval,
          ActivePartition{action.islands, action.server_islands});
      partitions_injected_++;
      apply_partitions();
      break;
    case FaultAction::Kind::kPartitionEnd:
      if (active_partitions_.erase(action.interval) > 0) apply_partitions();
      break;
    case FaultAction::Kind::kLinkFaultSet:
      world_.network().set_link_fault(world_.node(action.from),
                                      world_.node(action.to), action.fault);
      link_faults_injected_++;
      break;
    case FaultAction::Kind::kLinkFaultClear:
      world_.network().clear_link_fault(world_.node(action.from),
                                        world_.node(action.to));
      break;
    case FaultAction::Kind::kCrash:
      crash_now(action.victim, action.down_us);
      break;
    case FaultAction::Kind::kStall:
      // Stalling a crashed process is meaningless (nothing is running).
      if (!world_.crashed(action.victim)) {
        world_.network().stall_node(world_.node(action.victim),
                                    action.down_us);
        stalls_injected_++;
      }
      break;
    case FaultAction::Kind::kCpuFactorSet:
      world_.network().set_cpu_factor(world_.node(action.victim),
                                      action.factor);
      gray_faults_injected_++;
      break;
    case FaultAction::Kind::kCpuFactorClear:
      world_.network().set_cpu_factor(world_.node(action.victim), 1.0);
      break;
    case FaultAction::Kind::kClockRateSet:
      world_.network().set_clock_rate(world_.node(action.victim),
                                      action.factor);
      gray_faults_injected_++;
      break;
    case FaultAction::Kind::kClockRateClear:
      world_.network().set_clock_rate(world_.node(action.victim), 1.0);
      break;
  }
}

void ChaosMonkey::apply_partitions() {
  if (active_partitions_.empty()) {
    world_.heal();
    return;
  }
  const std::size_t n = world_.num_processes();
  const std::size_t ns = world_.num_servers();
  // Refinement product: each entity gets a tuple of island indexes, one per
  // open interval (in interval-creation order — the map key is the id).
  // Entities can talk iff their tuples are equal, i.e. no open interval
  // separates them.
  std::vector<std::vector<std::size_t>> proc_tuple(n), server_tuple(ns);
  for (const auto& [id, part] : active_partitions_) {
    (void)id;
    // Processes not named by the interval share the implicit "rest" island.
    std::vector<std::size_t> island_of(n, part.islands.size());
    for (std::size_t k = 0; k < part.islands.size(); ++k) {
      for (const std::size_t i : part.islands[k]) {
        if (i < n) island_of[i] = k;
      }
    }
    for (std::size_t i = 0; i < n; ++i) proc_tuple[i].push_back(island_of[i]);
    for (std::size_t j = 0; j < ns; ++j) {
      // Unlisted servers spread round-robin so each island usually keeps
      // one — the deployment the paper assumes (a server per LAN/AS).
      server_tuple[j].push_back(j < part.server_islands.size()
                                    ? part.server_islands[j]
                                    : j % part.islands.size());
    }
  }
  std::map<std::vector<std::size_t>, std::size_t> class_of;
  std::vector<std::vector<std::size_t>> classes;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, fresh] = class_of.emplace(proc_tuple[i], classes.size());
    if (fresh) classes.emplace_back();
    classes[it->second].push_back(i);
  }
  std::vector<std::size_t> server_sides(ns, 0);
  for (std::size_t j = 0; j < ns; ++j) {
    // A tuple no process shares puts the server in a class of its own
    // (empty process list) — e.g. an island holding only a name server.
    const auto [it, fresh] = class_of.emplace(server_tuple[j], classes.size());
    if (fresh) classes.emplace_back();
    server_sides[j] = it->second;
  }
  world_.partition(classes, server_sides);
}

void ChaosMonkey::crash_now(std::size_t victim, Duration down_us) {
  // Overlapping schedules (churn storms, crash-during-partition) may aim at
  // a process that is already down; the later crash is a no-op.
  if (victim >= world_.num_processes() || world_.crashed(victim) ||
      is_crashed(victim)) {
    return;
  }
  world_.crash(victim);
  crashed_.push_back(victim);
  crashes_injected_++;
  if (down_us > 0) {
    const Time now = world_.simulator().now();
    pending_restarts_.push_back(
        PendingRestart{now + std::max<Duration>(down_us, 1'000), victim, now});
  }
}

void ChaosMonkey::inject() {
  const Time now = world_.simulator().now();
  if (config_.crash_probability > 0 &&
      crashed_.size() < config_.max_crashes &&
      rng_.next_bool(config_.crash_probability)) {
    // Crash a random not-yet-crashed process — possibly mid-partition.
    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < world_.num_processes(); ++i) {
      if (!is_crashed(i)) alive.push_back(i);
    }
    if (alive.size() > 1) {
      const std::size_t victim = alive[rng_.next_below(alive.size())];
      Duration down_us = 0;
      if (config_.restart_probability > 0 &&
          rng_.next_bool(config_.restart_probability)) {
        down_us = std::max<Duration>(
            static_cast<Duration>(rng_.next_exponential(
                static_cast<double>(config_.mean_downtime_us))),
            1'000);
      }
      crash_now(victim, down_us);
    }
  } else {
    // Random two-way split over the *alive* processes as a new interval —
    // it may overlap intervals already in force (the effective classes are
    // the refinement product). Crashed processes go right without drawing
    // from the RNG.
    std::vector<std::size_t> left, right;
    for (std::size_t i = 0; i < world_.num_processes(); ++i) {
      if (is_crashed(i)) {
        right.push_back(i);
        continue;
      }
      (rng_.next_bool(0.5) ? left : right).push_back(i);
    }
    if (!left.empty() && !right.empty()) {
      FaultAction start;
      start.kind = FaultAction::Kind::kPartitionStart;
      start.interval = next_interval_id_++;
      start.islands = {std::move(left), std::move(right)};
      for (std::size_t j = 0; j < world_.num_servers(); ++j) {
        start.server_islands.push_back(j % 2);
      }
      FaultAction end;
      end.kind = FaultAction::Kind::kPartitionEnd;
      end.interval = start.interval;
      apply(start);
      push(now + std::max<Duration>(
                     static_cast<Duration>(rng_.next_exponential(
                         static_cast<double>(config_.mean_partition_us))),
                     100'000),
           std::move(end));
    }
  }
  next_event_ = now + std::max<Duration>(
                          static_cast<Duration>(rng_.next_exponential(
                              static_cast<double>(config_.mean_interval_us))),
                          100'000);
}

void RejoinTracker::poll() {
  const auto& log = chaos_.restart_log();
  for (; log_seen_ < log.size(); ++log_seen_) {
    awaiting_[log[log_seen_].index] = log[log_seen_].restarted_at;
  }
  const Time now = world_.simulator().now();
  for (auto it = awaiting_.begin(); it != awaiting_.end();) {
    if (chaos_.is_crashed(it->first)) {
      it = awaiting_.erase(it);  // crashed again before rejoining
    } else if (world_.lwg(it->first).view_of(id_) != nullptr) {
      rejoin_sum_us_ += static_cast<double>(now - it->second);
      ++rejoins_;
      it = awaiting_.erase(it);
    } else {
      ++it;
    }
  }
}

double RejoinTracker::mean_rejoin_ms() const {
  return rejoins_ == 0
             ? 0
             : rejoin_sum_us_ / 1e3 / static_cast<double>(rejoins_);
}

}  // namespace plwg::harness
