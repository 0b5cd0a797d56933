// ProtocolOracle — an omniscient, cross-node checker of the DESIGN.md
// Sect. 6 invariants, fed by the observer hooks of the vsync, lwg and
// names layers (see docs/ORACLE.md for the invariant-to-checker map).
//
// Online checks (fire the moment a hook reports a contradicting event):
//   #1 virtual synchrony — any two processes installing the same pair of
//      consecutive views (HWG and LWG level) delivered the same message
//      sequence in between; plus total-order slot agreement: no two
//      processes deliver different messages at the same (view, seq).
//   #2 self-inclusion — every installed view contains its installer.
//   #3 view-tagged delivery — every delivered message was sent by a member
//      of the view it is delivered in, at a process that is itself a
//      member of that view.
//   #6 no cross-view leakage — all processes installing a view id agree on
//      its membership (and mapped HWG at the LWG level); deterministically
//      merged LWG view ids carry the min-pid coordinator.
//
// Offline checks (a snapshot handed in after heal + quiescence):
//   #4/#5 mapping & reconciliation convergence — every LWG has one view
//      held identically by all its (alive) members, the NS replicas agree,
//      and genealogy GC has shrunk every record to at most one alive row.
//   #7 liveness — after quiesce() the harness gives the healthy network a
//      convergence budget; blowing it is recorded here (with the wedged
//      nodes) via record_liveness_failure, not silently treated as "slow".
//
// The oracle is passive and single-process (the simulator runs every node
// in one process), so "cross-node" costs one virtual call per event. It
// never mutates protocol state; a violation is recorded, counted, and
// reported — enforcement (failing the test) is the harness's job.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "lwg/observer.hpp"
#include "names/observer.hpp"
#include "oracle/trace.hpp"
#include "util/hash.hpp"
#include "util/member_set.hpp"
#include "util/types.hpp"
#include "vsync/observer.hpp"

namespace plwg::names {
struct Database;
}

namespace plwg::oracle {

struct Violation {
  int invariant = 0;  // DESIGN.md Sect. 6 numbering (1-6; 7 = liveness)
  Time time = 0;
  std::string description;
  std::vector<NodeId> actors;  // nodes whose traces explain the violation
};

/// Everything the convergence checks (#4/#5) need, snapshotted by the
/// harness after heal + quiescence. Only *alive* processes and servers
/// appear; crashed nodes are outside the paper's convergence claim.
struct ConvergenceSnapshot {
  struct LwgHolder {
    ProcessId pid;
    lwg::LwgView view;
  };
  /// Per LWG: every alive process that currently holds a view of it.
  std::map<LwgId, std::vector<LwgHolder>> holders;
  /// Alive processes that joined an LWG but hold no view yet (still
  /// resolving / joining) — convergence has not been reached.
  std::vector<std::pair<ProcessId, LwgId>> unresolved;
  /// Every alive name-server database (node id, database).
  std::vector<std::pair<NodeId, const names::Database*>> databases;
  MemberSet alive;  // alive process ids
};

/// Pure convergence predicate: empty string when the snapshot satisfies
/// invariants #4/#5, otherwise the first failure found (human-readable).
[[nodiscard]] std::string check_converged(const ConvergenceSnapshot& snap);

class ProtocolOracle final : public vsync::VsyncObserver,
                             public lwg::LwgObserver,
                             public names::NamingObserver {
 public:
  /// `clock` supplies timestamps for traces and violations (the harness
  /// passes the simulator clock); without one, events are numbered.
  explicit ProtocolOracle(std::function<Time()> clock = {});

  // --- vsync::VsyncObserver ----------------------------------------------
  void on_hwg_view_installed(ProcessId p, HwgId gid,
                             const vsync::View& view) override;
  void on_hwg_delivered(ProcessId p, HwgId gid, const vsync::ViewId& view,
                        std::uint64_t seq, ProcessId origin,
                        std::uint64_t sender_msg_id,
                        std::span<const std::uint8_t> payload) override;
  void on_hwg_flush_completed(ProcessId p, HwgId gid,
                              const vsync::ViewId& old_view,
                              bool initiator) override;
  void on_hwg_endpoint_reset(ProcessId p, HwgId gid) override;

  // --- lwg::LwgObserver --------------------------------------------------
  void on_lwg_view_installed(ProcessId p, LwgId lwg, const lwg::LwgView& view,
                             std::span<const vsync::ViewId> predecessors) override;
  void on_lwg_delivered(ProcessId p, LwgId lwg, const vsync::ViewId& view,
                        ProcessId src,
                        std::span<const std::uint8_t> payload) override;
  void on_lwg_epoch_reset(ProcessId p, LwgId lwg) override;

  // --- names::NamingObserver ---------------------------------------------
  void on_mapping_written(NodeId server, LwgId lwg,
                          const names::MappingEntry& entry) override;
  void on_mapping_gced(NodeId server, LwgId lwg,
                       const vsync::ViewId& lwg_view) override;

  // --- delivery hooks by payload key --------------------------------------
  /// The two delivery hooks' checks, fed payload_key(payload) instead of the
  /// payload: the span hooks above hash and forward here, and the multi-site
  /// mux captures only the key. `first_byte` is the LWG trace event's
  /// payload tag (the payload's first byte, 0 when empty).
  [[nodiscard]] static std::uint64_t payload_key(
      std::span<const std::uint8_t> payload) {
    return hash_bytes(payload);
  }
  void on_hwg_delivered_key(ProcessId p, HwgId gid, const vsync::ViewId& view,
                            std::uint64_t seq, ProcessId origin,
                            std::uint64_t sender_msg_id,
                            std::uint64_t payload_key);
  void on_lwg_delivered_key(ProcessId p, LwgId lwg, const vsync::ViewId& view,
                            ProcessId src, std::uint64_t payload_key,
                            std::uint8_t first_byte);

  // --- convergence (#4/#5) -----------------------------------------------
  /// Run check_converged and record a violation on failure. Returns true
  /// when converged.
  bool check_convergence(const ConvergenceSnapshot& snap);

  // --- liveness (#7) -----------------------------------------------------
  /// The harness timed out waiting for post-quiesce convergence on a
  /// healthy network. `description` should carry the triage detail (e.g.
  /// SimWorld::liveness_report()); `actors` the wedged nodes, if known.
  void record_liveness_failure(std::string description,
                               std::vector<NodeId> actors = {});

  // --- results -----------------------------------------------------------
  [[nodiscard]] bool clean() const { return violations_.empty(); }
  /// Recorded violations (capped at kMaxViolations; see total_violations).
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::size_t total_violations() const { return total_; }
  /// Structured report: every recorded violation plus the per-node event
  /// traces of the involved nodes.
  [[nodiscard]] std::string report_json() const;
  /// Acknowledge recorded violations (self-tests; the harness destructor
  /// aborts on unacknowledged ones). Checker state is kept.
  void clear();

  // --- test-only fault injection -----------------------------------------
  /// Swallow the next `count` HWG delivery reports from `p`: the oracle's
  /// own self-test, proving a missing delivery is flagged as an invariant
  /// #1 violation (the checker is not vacuously green).
  void test_drop_next_hwg_delivery(ProcessId p, int count = 1);

  static constexpr std::size_t kMaxViolations = 64;

 private:
  struct MsgKey {
    ProcessId origin;
    std::uint64_t smid = 0;
    std::uint64_t hash = 0;
    friend auto operator<=>(const MsgKey&, const MsgKey&) = default;
  };
  struct ViewRecord {
    MemberSet members;
    HwgId hwg;  // LWG level only
    ProcessId first_reporter;
  };
  struct Epoch {
    bool open = false;
    vsync::ViewId view;
    std::vector<MsgKey> delivered;
  };
  struct PairRecord {
    std::vector<MsgKey> msgs;
    ProcessId first_reporter;
  };
  struct SlotRecord {
    MsgKey key;
    ProcessId first_reporter;
  };

  [[nodiscard]] Time now();
  void record(int invariant, std::string description,
              std::vector<ProcessId> processes);
  void record_node(int invariant, std::string description,
                   std::vector<NodeId> actors);
  void trace(ProcessId p, const TraceEvent& event);
  void trace_node(NodeId n, const TraceEvent& event);
  void close_epoch(std::map<std::pair<ProcessId, std::uint64_t>, Epoch>& epochs,
                   std::map<std::tuple<std::uint64_t, vsync::ViewId,
                                       vsync::ViewId>,
                            PairRecord>& pairs,
                   ProcessId p, std::uint64_t group,
                   const vsync::ViewId& new_view, const char* level);

  std::function<Time()> clock_;
  std::uint64_t event_counter_ = 0;

  // HWG-level state. Group keys use the raw id value so the HWG and LWG
  // checkers can share the epoch/pair machinery.
  std::map<std::pair<HwgId, vsync::ViewId>, ViewRecord> hwg_views_;
  std::map<std::pair<ProcessId, std::uint64_t>, Epoch> hwg_epochs_;
  std::map<std::tuple<std::uint64_t, vsync::ViewId, vsync::ViewId>, PairRecord>
      hwg_pairs_;
  std::map<std::tuple<HwgId, vsync::ViewId, std::uint64_t>, SlotRecord>
      hwg_slots_;

  // LWG-level state.
  std::map<std::pair<LwgId, vsync::ViewId>, ViewRecord> lwg_views_;
  std::map<std::pair<ProcessId, std::uint64_t>, Epoch> lwg_epochs_;
  std::map<std::tuple<std::uint64_t, vsync::ViewId, vsync::ViewId>, PairRecord>
      lwg_pairs_;

  std::map<NodeId, TraceRing> traces_;
  std::vector<Violation> violations_;
  std::size_t total_ = 0;

  std::map<ProcessId, int> drop_hwg_deliveries_;  // test-only injection
};

}  // namespace plwg::oracle
