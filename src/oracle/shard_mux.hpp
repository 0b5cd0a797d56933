// Multi-site observer multiplexer: funnels per-site protocol events into
// the (single-threaded) protocol oracle in a deterministic global order.
//
// Worker threads must never call into the oracle directly — its state is one
// big cross-node table. Instead every observer hook fired inside a site's
// events is captured by value (timestamp + arguments) into that site's
// ring; rings are single-writer (only the thread currently running the
// site appends) and are drained on the driver thread when Engine::run_until
// returns. Rings are per *site*, so the capture order does not depend on
// which thread ran the site's class job. The drain merges all rings by
// (event time, site index, ring position) — a total order that depends only
// on the simulation, not on the thread schedule — and replays each event
// into the oracle with the oracle's clock pinned to the event's original
// timestamp, so violation reports keep precise times. Each class job runs
// its sites to the run_until target on its own, so one class's events may
// be far ahead of another's mid-call; they simply wait in the ring until
// the end-of-run drain, where the global time sort restores chronology.
//
// Hooks fired outside any site's events (driver-thread test code, engine
// idle) apply immediately; rings are always empty then because every
// Engine::run_until ends with a drain. SimWorld wires every oracle-on world
// through the mux, single-LAN worlds included: one path for any site count.
#pragma once

#include <cstdint>
#include <vector>

#include "lwg/observer.hpp"
#include "names/observer.hpp"
#include "oracle/oracle.hpp"
#include "sim/engine.hpp"
#include "util/function.hpp"
#include "util/types.hpp"
#include "vsync/observer.hpp"

namespace plwg::oracle {

class ShardedObserverMux final : public vsync::VsyncObserver,
                                 public lwg::LwgObserver,
                                 public names::NamingObserver {
 public:
  ShardedObserverMux(sim::Engine& engine, ProtocolOracle& oracle)
      : engine_(engine), oracle_(oracle) {
    rings_.resize(engine.num_sites());
  }

  /// Replay every ringed event into the oracle in the global deterministic
  /// order. Registered as an engine barrier hook; also safe to call while
  /// idle.
  void drain();

  /// Clock for the oracle: the replayed event's original timestamp during
  /// drain, the running site's clock inside its events, the engine horizon
  /// otherwise.
  [[nodiscard]] Time now() const {
    return replaying_ ? replay_time_ : engine_.log_now();
  }

  // vsync::VsyncObserver
  void on_hwg_view_installed(ProcessId p, HwgId gid,
                             const vsync::View& view) override;
  void on_hwg_delivered(ProcessId p, HwgId gid, const vsync::ViewId& view,
                        std::uint64_t seq, ProcessId origin,
                        std::uint64_t sender_msg_id,
                        std::span<const std::uint8_t> payload) override;
  void on_hwg_flush_completed(ProcessId p, HwgId gid, const vsync::ViewId& old_view,
                              bool initiator) override;
  void on_hwg_endpoint_reset(ProcessId p, HwgId gid) override;

  // lwg::LwgObserver
  void on_lwg_view_installed(ProcessId p, LwgId lwg, const lwg::LwgView& view,
                             std::span<const vsync::ViewId> predecessors) override;
  void on_lwg_delivered(ProcessId p, LwgId lwg, const vsync::ViewId& view,
                        ProcessId src,
                        std::span<const std::uint8_t> payload) override;
  void on_lwg_epoch_reset(ProcessId p, LwgId lwg) override;

  // names::NamingObserver
  void on_mapping_written(NodeId server, LwgId lwg,
                          const names::MappingEntry& entry) override;
  void on_mapping_gced(NodeId server, LwgId lwg,
                       const vsync::ViewId& lwg_view) override;

 private:
  struct Entry {
    Time t;
    UniqueFunction replay;
  };

  /// True when the calling thread is inside a site's events: capture into
  /// that site's ring. False (driver thread): apply to the oracle now.
  template <class F>
  void dispatch(F&& apply) {
    const int site = sim::Engine::current_site();
    if (site < 0) {
      apply();
      return;
    }
    rings_[static_cast<std::size_t>(site)].push_back(
        Entry{engine_.log_now(), std::forward<F>(apply)});
  }

  sim::Engine& engine_;
  ProtocolOracle& oracle_;
  std::vector<std::vector<Entry>> rings_;  // one per site, single-writer
  bool replaying_ = false;
  Time replay_time_ = 0;
};

}  // namespace plwg::oracle
