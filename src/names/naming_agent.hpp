// NamingAgent: the per-node endpoint of the naming service.
//
// Every node runs the *client* role (set / read / testset with retry and
// server fail-over). Nodes designated as name servers additionally enable
// the *server* role: a weakly-consistent replica of the mapping database
// that reconciles with its peers by periodic anti-entropy and pushes
// MULTIPLE-MAPPINGS callbacks to the members of LWGs that hold concurrent
// mappings (paper Sect. 5.2 / 6.1).
//
// Consistency model: within a partition, clients of the same server see a
// consistent database; across partitions the replicas diverge freely and
// reconcile on heal — the LWG reconciliation protocol is what restores
// mapping agreement, the naming service only has to converge and to detect
// conflicts.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <variant>
#include <vector>

#include "names/mapping.hpp"
#include "names/messages.hpp"
#include "names/observer.hpp"
#include "transport/node_runtime.hpp"
#include "util/types.hpp"

namespace plwg::names {

/// Receives MULTIPLE-MAPPINGS callbacks (implemented by the LWG service).
class ConflictListener {
 public:
  virtual ~ConflictListener() = default;
  virtual void on_multiple_mappings(LwgId lwg,
                                    const std::vector<MappingEntry>& entries) = 0;
};

class NamingAgent : public transport::PortHandler {
 public:
  using ReadCallback =
      std::function<void(LwgId, const std::vector<MappingEntry>&)>;

  /// `servers` is the fail-over-ordered list of name-server nodes this
  /// client uses (rotate it per node to spread load / prefer the local LAN).
  NamingAgent(transport::NodeRuntime& node, std::vector<NodeId> servers);
  ~NamingAgent() override;

  /// Turn this node into a name server replicating with `peers`. `db` seeds
  /// the replica — a restarted server reloads its disk-backed database this
  /// way instead of starting empty (anti-entropy would eventually refill it,
  /// but a lone server has no peer to refill from).
  void enable_server(std::vector<NodeId> peers, Database db = {});
  [[nodiscard]] bool is_server() const { return server_.has_value(); }

  // --- client API (paper Table 2) ---------------------------------------
  /// ns.set: register/update a mapping; `predecessors` are the lwg views the
  /// entry's view supersedes. Retried until one server acknowledges.
  void set(LwgId lwg, const MappingEntry& entry,
           std::vector<ViewId> predecessors);
  /// ns.read: fetch all alive mappings for `lwg` (may be several after a
  /// partition, may be empty).
  void read(LwgId lwg, ReadCallback cb);
  /// ns.testset: install `entry` iff no mapping exists; either way the
  /// callback receives the winning alive mappings.
  void testset(LwgId lwg, const MappingEntry& entry, ReadCallback cb);

  void set_conflict_listener(ConflictListener* listener) {
    conflict_listener_ = listener;
  }

  /// Protocol observer (the cross-node oracle); may be null. Not owned.
  /// Only server-role mutations are reported.
  void set_observer(NamingObserver* observer) { observer_ = observer; }

  // --- server introspection (tests / Table 3-4 benches) -----------------
  [[nodiscard]] const Database& database() const;
  [[nodiscard]] std::string dump_database() const;

  struct Stats {
    std::uint64_t set_requests = 0;
    std::uint64_t read_requests = 0;
    std::uint64_t testset_requests = 0;
    std::uint64_t syncs_sent = 0;        // per peer, like before deltas
    std::uint64_t delta_syncs_sent = 0;  // rounds that shipped a delta
    std::uint64_t full_syncs_sent = 0;   // rounds that shipped the full db
    std::uint64_t callbacks_sent = 0;    // MULTIPLE-MAPPINGS deliveries
    std::uint64_t conflict_checks = 0;   // records visited by conflict checks
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // transport::PortHandler
  void on_message(NodeId from, Decoder& dec) override;

 private:
  struct PendingRequest {
    /// The request as sent; its req_id is its key in pending_.
    std::variant<SetReqMsg, ReadReqMsg, TestSetReqMsg> msg;
    ReadCallback callback;      // empty for SET
    std::size_t server_index = 0;
    Time sent_at = 0;
    std::uint32_t attempts = 0;  // sends so far (retry-backoff input)
  };

  struct ServerState {
    Database db;
    std::vector<NodeId> peers;
    /// Records changed since the last anti-entropy round; the next delta
    /// sync carries exactly these.
    std::set<LwgId> dirty;
    /// Anti-entropy round counter (every kFullSyncEvery'th round is full).
    std::uint32_t sync_round = 0;
    /// Per LWG with two or more alive rows: the row signature last
    /// notified (to de-duplicate callbacks) and when.
    struct Notified {
      std::vector<std::pair<ViewId, HwgId>> signature;
      Time last_callback = 0;
    };
    std::map<LwgId, Notified> notified;
    /// `notified` ordered by last callback time: its prefix is the set of
    /// LWGs whose periodic re-notify is due.
    std::set<std::pair<Time, LwgId>> by_last_callback;
    /// False until the first conflict check, which visits every record: a
    /// durable database can bring conflicts that no request touched.
    bool scanned = false;
  };

  void tick();
  /// File `req`, whose message carries next_req_id_, in pending_ under that
  /// id, and send it.
  void start_request(PendingRequest req);
  void send_request(PendingRequest& req);
  void client_on_ack(const AckMsg& msg);
  void client_on_mappings(const MappingsMsg& msg);

  /// Report to the observer how the alive rows of `lwg` changed relative to
  /// `before` (rows gone = genealogy GC, rows new/updated = writes).
  void report_record_diff(LwgId lwg,
                          const std::map<ViewId, MappingEntry>& before);
  [[nodiscard]] std::map<ViewId, MappingEntry> alive_rows(LwgId lwg) const;

  void server_on_set(NodeId from, const SetReqMsg& msg);
  void server_on_read(NodeId from, const ReadReqMsg& msg);
  void server_on_testset(NodeId from, const TestSetReqMsg& msg);
  void server_on_sync(const SyncMsg& msg);
  void server_broadcast_sync();
  /// Send the MULTIPLE-MAPPINGS callbacks that are due: for the `changed`
  /// LWGs if their conflict signature moved, and for every conflicted LWG
  /// whose last callback is kCallbackRepeatUs old. Visits only those
  /// records (all of them on the first check), in LwgId order.
  void server_check_conflicts(std::span<const LwgId> changed);
  void server_send_callback(LwgId lwg, const LwgRecord& rec);
  /// Send `msg` to `to` (or multicast it), in its envelope.
  template <class M>
  void send_msg(NodeId to, const M& msg) {
    node_.send(transport::Port::kNaming, to, encode_envelope(msg));
  }
  template <class M>
  void multicast_msg(std::span<const NodeId> to, const M& msg,
                     transport::MsgClass cls) {
    node_.multicast(transport::Port::kNaming, to, encode_envelope(msg), cls);
  }

  transport::NodeRuntime& node_;
  std::vector<NodeId> servers_;
  std::optional<ServerState> server_;
  ConflictListener* conflict_listener_ = nullptr;
  NamingObserver* observer_ = nullptr;  // not owned

  std::map<std::uint64_t, PendingRequest> pending_;
  std::uint64_t next_req_id_ = 1;
  Time last_sync_ = 0;
  std::vector<NodeId> callback_targets_;  // reused multicast scratch
  Stats stats_;
};

}  // namespace plwg::names
