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

void ChaosMonkey::window(Time t, Duration duration, Action start,
                         Action end) {
  at(t, std::move(start));
  if (duration > 0) at(t + duration, std::move(end));
}

void ChaosMonkey::link_window(Time t, Duration duration, std::size_t from,
                              std::size_t to, bool symmetric,
                              const sim::LinkFault& fault) {
  for (const auto& [a, b] : {std::pair{from, to}, std::pair{to, from}}) {
    window(
        t, duration,
        [this, a, b, fault] {
          world_.network().set_link_fault(world_.node(a), world_.node(b),
                                          fault);
          link_faults_injected_++;
        },
        [this, a, b] {
          world_.network().clear_link_fault(world_.node(a), world_.node(b));
        });
    if (!symmetric) break;
  }
}

void ChaosMonkey::gray_window(Time t, Duration duration, std::size_t index,
                              void (sim::Network::*set)(NodeId, double),
                              double value) {
  window(
      t, duration,
      [this, index, set, value] {
        (world_.network().*set)(world_.node(index), value);
        gray_faults_injected_++;
      },
      [this, index, set] {
        (world_.network().*set)(world_.node(index), 1.0);
      });
}

void ChaosMonkey::open_partition(
    std::uint64_t id, std::vector<std::vector<std::size_t>> islands,
    std::vector<std::size_t> server_islands) {
  active_partitions_.emplace(
      id, ActivePartition{std::move(islands), std::move(server_islands)});
  partitions_injected_++;
  apply_partitions();
}

void ChaosMonkey::close_partition(std::uint64_t id) {
  if (active_partitions_.erase(id) > 0) apply_partitions();
}

void ChaosMonkey::load(const Scenario& scenario) {
  PLWG_ASSERT_MSG(scenario.processes <= world_.num_processes(),
                  "scenario names more processes than the world has");
  const auto partition = [this](Time t, Duration duration,
                                std::vector<std::vector<std::size_t>> islands,
                                std::vector<std::size_t> server_islands) {
    const std::uint64_t id = next_interval_id_++;
    window(
        t, duration,
        [this, id, islands = std::move(islands),
         server_islands = std::move(server_islands)] {
          open_partition(id, islands, server_islands);
        },
        [this, id] { close_partition(id); });
  };
  const auto crash = [this](Time t, std::size_t victim, Duration down_us) {
    at(t, [this, victim, down_us] { crash_now(victim, down_us); });
  };
  const Time base = world_.simulator().now();
  for (const ScenarioEvent& ev : scenario.events) {
    const Time t0 = base + ev.at_us;
    switch (ev.kind) {
      case ScenarioEvent::Kind::kPartition:
        partition(t0, ev.duration_us, ev.islands, ev.server_islands);
        break;
      case ScenarioEvent::Kind::kRollingPartition: {
        // steps shifts with no fully-connected instant in between: at each
        // shift boundary the previous interval ends and the rotated one
        // starts at the same timestamp, applied back-to-back while idle.
        auto islands = ev.islands;
        for (std::size_t k = 0; k <= ev.steps; ++k) {
          if (k > 0) islands = rotated(islands, ev.rotate_by);
          partition(t0 + static_cast<Duration>(k) * ev.step_us, ev.step_us,
                    islands, {});
        }
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
        link_window(t0, ev.duration_us, ev.from, ev.to, ev.symmetric, fault);
        break;
      }
      case ScenarioEvent::Kind::kFlap: {
        sim::LinkFault fault;
        fault.blocked = true;
        for (std::size_t c = 0; c < ev.count; ++c) {
          link_window(t0 + static_cast<Duration>(c) * ev.period_us,
                      ev.down_us, ev.from, ev.to, ev.symmetric, fault);
        }
        break;
      }
      case ScenarioEvent::Kind::kCrash:
        crash(t0, ev.node, ev.down_us);
        break;
      case ScenarioEvent::Kind::kChurnStorm: {
        Time t = t0;
        for (std::size_t c = 0; c < ev.cycles; ++c) {
          for (const std::size_t victim : ev.nodes) {
            crash(t, victim, ev.down_us);
            t += ev.gap_us;
          }
        }
        break;
      }
      case ScenarioEvent::Kind::kStall:
        // A pause train: count stalls of duration_us, one per period_us.
        for (std::size_t c = 0; c < std::max<std::size_t>(ev.count, 1); ++c) {
          at(t0 + static_cast<Duration>(c) * ev.period_us,
             [this, node = ev.node, duration = ev.duration_us] {
               // Stalling a crashed process is meaningless (nothing runs).
               if (world_.crashed(node)) return;
               world_.network().stall_node(world_.node(node), duration);
               stalls_injected_++;
             });
        }
        break;
      case ScenarioEvent::Kind::kSlowNode:
        gray_window(t0, ev.duration_us, ev.node,
                    &sim::Network::set_cpu_factor, ev.factor);
        break;
      case ScenarioEvent::Kind::kClockDrift:
        gray_window(t0, ev.duration_us, ev.node,
                    &sim::Network::set_clock_rate, ev.rate);
        break;
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
    restarts_fired_++;
    restart_log_.push_back(RestartEvent{pr.index, pr.crashed_at, now});
  }
}

void ChaosMonkey::apply_due_actions() {
  while (!schedule_.empty() &&
         schedule_.begin()->first <= world_.simulator().now()) {
    const Action action = std::move(schedule_.begin()->second);
    schedule_.erase(schedule_.begin());
    action();
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
  if (victim >= world_.num_processes() || world_.crashed(victim)) return;
  world_.crash(victim);
  crashes_injected_++;
  if (down_us > 0) {
    const Time now = world_.simulator().now();
    pending_restarts_.push_back(
        PendingRestart{now + std::max<Duration>(down_us, 1'000), victim, now});
  }
}

void ChaosMonkey::inject() {
  const Time now = world_.simulator().now();
  std::vector<std::size_t> alive;
  for (std::size_t i = 0; i < world_.num_processes(); ++i) {
    if (!world_.crashed(i)) alive.push_back(i);
  }
  if (config_.crash_probability > 0 &&
      world_.num_processes() - alive.size() < config_.max_crashes &&
      rng_.next_bool(config_.crash_probability)) {
    // Crash a random not-yet-crashed process — possibly mid-partition.
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
      if (world_.crashed(i)) {
        right.push_back(i);
        continue;
      }
      (rng_.next_bool(0.5) ? left : right).push_back(i);
    }
    if (!left.empty() && !right.empty()) {
      std::vector<std::size_t> server_islands;
      for (std::size_t j = 0; j < world_.num_servers(); ++j) {
        server_islands.push_back(j % 2);
      }
      const std::uint64_t id = next_interval_id_++;
      open_partition(id, {std::move(left), std::move(right)},
                     std::move(server_islands));
      at(now + std::max<Duration>(
                   static_cast<Duration>(rng_.next_exponential(
                       static_cast<double>(config_.mean_partition_us))),
                   100'000),
         [this, id] { close_partition(id); });
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
    if (world_.crashed(it->first)) {
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
