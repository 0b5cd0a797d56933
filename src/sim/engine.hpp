// Multi-site discrete-event engine: deterministic simulation whose unit of
// parallel execution is the reachability class.
//
// Two notions, deliberately distinct:
//
//   * A *site* is the unit of determinism — one per LAN segment (see
//     sim::Network::set_segments). Each site owns a private Simulator (its
//     own timer arena, event heap, clock), and sim::Network gives it its own
//     RNG stream, packet-id space, stats, and trace digest. A site is only
//     ever advanced by one thread at a time, and its event sequence depends
//     only on its own events plus cross-site injections at fixed window
//     boundaries — never on which thread ran it.
//
//   * A *reachability class* is the unit of execution. sim::Network reports
//     which sites can exchange packets at all (partition classes unioned
//     over segments); sites in different classes cannot affect each other
//     until the next topology change, which only happens while the engine
//     is idle. Each run_until therefore runs one *job* per class, and the
//     jobs are independent: with `threads > 1` and more than one class they
//     run on the worker pool, otherwise one after another on the caller.
//
// Inside a class job the sites synchronize with a conservative time-window
// scheme:
//
//   * The job advances its sites to the run_until target in sub-windows of
//     `lookahead` simulated microseconds, starting at the engine horizon.
//     Within a sub-window every site runs its local events with no
//     cross-site visibility.
//   * The only causal coupling between sites is a cross-site packet, and
//     every such packet pays at least the backbone propagation delay — so a
//     lookahead equal to that minimum latency guarantees no site can receive
//     an event timestamped inside the sub-window it is running.
//   * Cross-site events are appended to the *source site's* outbox during
//     the sub-window and injected into the destination site at its end, by
//     the job itself, in fixed (source site, post order) order.
//   * A single-site class has no cross-site traffic: one plain run.
//
// Determinism is the design invariant, not an accident: the window grid and
// injection order depend only on the horizon, the lookahead and the classes,
// so the same seed gives a byte-identical trace at 1, 2, or N threads
// (enforced by tests/determinism_test.cpp over sim::Network's TraceDigest).
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

#include "sim/simulator.hpp"
#include "util/function.hpp"
#include "util/types.hpp"

namespace plwg::sim {

class Engine {
 public:
  /// `threads`: worker threads running class jobs. 0 reads PLWG_SIM_THREADS
  /// from the environment (default 1). Clamped to the site count — more
  /// threads than sites cannot help.
  explicit Engine(std::size_t num_sites = 1, std::size_t threads = 0);
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
  /// the engine is idle (between run_until calls). Mid-run, a class job's
  /// sites may be ahead of it — nothing observable crosses the gap.
  [[nodiscard]] Time now() const {
    return horizon_.load(std::memory_order_relaxed);
  }

  /// Minimum cross-site event latency, microseconds. Every cross-site post
  /// made while a sub-window is running must be timestamped at least this
  /// far after the sub-window's start; the poster (sim::Network) guarantees
  /// it by construction and the drain asserts it. Must be > 0 before a
  /// multi-site engine runs.
  void set_lookahead(Duration us);
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Schedule `fn` at absolute time `t` on site `dst`. Callable from inside
  /// a running site (appends to the posting site's outbox, injected at the
  /// end of the sub-window) or from the driver thread while idle (scheduled
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
  /// mutations (crash, partition, class changes) are only legal while idle.
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_relaxed);
  }

  /// Site index the calling thread is currently executing, or -1 when the
  /// caller is not inside a site's events (driver thread, or idle).
  [[nodiscard]] static int current_site();
  /// Clock of the site the calling thread is executing, falling back to
  /// the completed horizon — safe from any thread, for log timestamps.
  [[nodiscard]] Time log_now() const;

  /// Events executed by site `i` since construction (monotonic).
  [[nodiscard]] std::uint64_t site_events_run(std::size_t i) const {
    return sites_[i]->total_events_run();
  }

  /// Reachability class label of every site (sim::Network pushes them at
  /// set_segments / set_partitions / heal). Sites sharing a label form one
  /// class job. Driver thread, idle only.
  void set_site_classes(const std::vector<int>& classes);

 private:
  struct Posted {
    std::size_t dst;
    Time t;
    UniqueFunction fn;
  };

  /// Advance class `c`'s sites from the horizon to the run target.
  std::size_t run_class(std::size_t c);
  void drain_class_outboxes(std::size_t c, Time window_end);
  std::size_t run_classes_parallel();
  void worker_main(std::size_t w);

  std::vector<std::unique_ptr<Simulator>> sites_;
  /// outbox_[src]: written only by the thread running site `src` during a
  /// sub-window and drained by the same class job at its end — never
  /// concurrently.
  std::vector<std::vector<Posted>> outbox_;
  std::vector<std::function<void()>> barrier_hooks_;
  Duration lookahead_ = 0;
  std::atomic<Time> horizon_{0};
  std::atomic<bool> running_{false};
  /// Target of the current run_until; written by the driver before any job.
  Time target_ = 0;

  // Class state. Mutated only on the driver thread while idle.
  std::vector<int> site_class_;
  /// Sites of each class (ascending site index), classes in ascending label
  /// order.
  std::vector<std::vector<std::size_t>> class_sites_;

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
