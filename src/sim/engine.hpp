// Multi-site discrete-event engine: one sequential loop over per-segment
// sites, synchronized by conservative lookahead sub-windows.
//
// A *site* is the unit of determinism — one per LAN segment (see
// sim::Network::set_segments). Each site owns a private Simulator (its own
// timer arena, event heap, clock), and sim::Network gives it its own RNG
// stream, packet-id space, stats, and trace digest. A site's event sequence
// depends only on its own events plus cross-site injections at fixed
// sub-window boundaries.
//
// run_until advances every site from the engine horizon to the target in
// sub-windows of `lookahead` simulated microseconds:
//
//   * Within a sub-window the sites run one after another, in site order,
//     each through all of its local events up to the sub-window's end, with
//     no cross-site visibility.
//   * The only causal coupling between sites is a cross-site packet, and
//     every such packet pays at least the backbone propagation delay — so a
//     lookahead equal to that minimum latency guarantees no site can receive
//     an event timestamped inside the sub-window it is running. Two events
//     of one sub-window on different sites are therefore never causally
//     related, and running the sites in turn is as good as interleaving
//     them by time.
//   * Cross-site events are appended to the *source site's* outbox during
//     the sub-window and injected into their destination sites at its end,
//     in fixed (source site, post order) order. Injecting them directly
//     would be legal in time, but it would hand the destination its
//     tie-break sequence numbers earlier and so change the event order.
//
// The window grid and the injection order depend only on the horizon, the
// lookahead and the site count, so the same seed gives a byte-identical
// trace (tests/determinism_test.cpp, tests/golden_digests.txt).
//
// A single-site engine degenerates to a plain event loop: one run to the
// target, no sub-windows, no outboxes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "util/function.hpp"
#include "util/types.hpp"

namespace plwg::sim {

class Engine {
 public:
  explicit Engine(std::size_t num_sites = 1);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] std::size_t num_sites() const { return sites_.size(); }
  [[nodiscard]] Simulator& site(std::size_t i) { return *sites_[i]; }
  [[nodiscard]] const Simulator& site(std::size_t i) const {
    return *sites_[i];
  }

  /// Completed simulation horizon: every site's clock equals this whenever
  /// the engine is idle (between run_until calls). Mid-run, the sites
  /// already run through the current sub-window are ahead of it.
  [[nodiscard]] Time now() const { return horizon_; }

  /// Minimum cross-site event latency, microseconds. Every cross-site post
  /// made while a sub-window is running must be timestamped at least this
  /// far after the sub-window's start; the poster (sim::Network) guarantees
  /// it by construction and the drain asserts it. Must be > 0 before a
  /// multi-site engine runs.
  void set_lookahead(Duration us);
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Schedule `fn` at absolute time `t` on site `dst`. Callable from inside
  /// a running site (appends to the posting site's outbox, injected at the
  /// end of the sub-window) or from the driver while idle (scheduled
  /// directly).
  void post(std::size_t dst, Time t, UniqueFunction fn);

  /// Advance every site to exactly time `t`. Returns events executed.
  std::size_t run_until(Time t);
  std::size_t run_for(Duration d) { return run_until(now() + d); }

  /// True from run_until entry to exit. Global topology mutations (crash,
  /// partition, heal) are only legal while idle.
  [[nodiscard]] bool running() const { return running_; }

  /// Clock of the site whose events are running, falling back to the
  /// completed horizon — for log and oracle timestamps.
  [[nodiscard]] Time log_now() const;

  /// Events executed by site `i` since construction (monotonic).
  [[nodiscard]] std::uint64_t site_events_run(std::size_t i) const {
    return sites_[i]->total_events_run();
  }

 private:
  struct Posted {
    std::size_t dst;
    Time t;
    UniqueFunction fn;
  };

  void drain_outboxes(Time window_end);

  std::vector<std::unique_ptr<Simulator>> sites_;
  /// outbox_[src]: appended to while site `src` runs a sub-window, drained
  /// at the sub-window's end.
  std::vector<std::vector<Posted>> outbox_;
  Duration lookahead_ = 0;
  Time horizon_ = 0;
  bool running_ = false;
  /// Site whose events are running, or -1 between them.
  int current_site_ = -1;
};

}  // namespace plwg::sim
