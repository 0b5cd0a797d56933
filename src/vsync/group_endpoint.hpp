// Per-(process, group) protocol state machine of the heavy-weight group
// layer: totally-ordered virtually synchronous multicast, heartbeat failure
// detection, coordinator-driven flush + view changes, partition split, and
// concurrent-view merge.
//
// Protocol summary
// ----------------
// * Total order: the acting coordinator of a view (its smallest unsuspected
//   member) sequences messages. Senders unicast SEND_REQ to it; it assigns a
//   view-local sequence number and multicasts ORDERED. Receivers deliver in
//   sequence order; gaps are repaired by NACK.
// * View change (join / leave / suspicion): the acting coordinator sends
//   FLUSH_REQ to the surviving old members. Each stops its user (Stop /
//   StopOk handshake of paper Table 1), replies FLUSH_ACK listing every
//   sequence number it received, and the coordinator computes the delivery
//   cut as the union, FETCHes contents it lacks, multicasts FLUSH_CUT (+
//   retransmissions), collects FLUSH_DONE, then installs NEW_VIEW. This
//   gives the paper's virtual-synchrony guarantee: processes installing the
//   same two consecutive views deliver the same message set in between.
// * Partitions: silence makes each side suspect the other; each side's
//   smallest unsuspected member runs a view change, yielding concurrent
//   views (extended-virtual-synchrony style). Mutually suspicious members
//   resolve flush-legitimacy disputes by excluding each other — a virtual
//   partition that the merge path later heals.
// * Merge: coordinators periodically MERGE_PROBE every process that was ever
//   a member but is outside the current view. A probe answered by a
//   concurrent view elects the smaller coordinator as merge leader; every
//   constituent view flushes itself, reports MERGE_FLUSHED, and the leader
//   installs the union view whose `predecessors` list all constituent view
//   ids — the genealogy the naming service uses for garbage collection.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "sim/simulator.hpp"
#include "util/member_set.hpp"
#include "util/types.hpp"
#include "vsync/config.hpp"
#include "vsync/group_user.hpp"
#include "vsync/messages.hpp"
#include "vsync/ordered_log.hpp"
#include "vsync/view.hpp"

namespace plwg::vsync {

class VsyncHost;

class GroupEndpoint {
 public:
  enum class State {
    kJoining,   // no view yet; retrying JOIN_REQ
    kActive,    // view installed, traffic flowing
    kStopping,  // FLUSH_REQ accepted, Stop upcalled, awaiting user StopOk
    kFlushing,  // FLUSH_ACK sent, delivery frozen, awaiting FLUSH_CUT
    kStopped,   // cut delivered, FLUSH_DONE sent, awaiting NEW_VIEW
    kLeft,      // endpoint defunct (left the group / group dissolved)
  };

  struct Stats {
    std::uint64_t views_installed = 0;
    std::uint64_t msgs_sent = 0;
    std::uint64_t msgs_delivered = 0;
    std::uint64_t flushes_started = 0;   // as initiator
    std::uint64_t merges_led = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t log_trimmed = 0;       // entries GC'd below stability floor
  };

  GroupEndpoint(VsyncHost& host, HwgId gid, GroupUser& user);
  GroupEndpoint(const GroupEndpoint&) = delete;
  GroupEndpoint& operator=(const GroupEndpoint&) = delete;

  // --- downcalls (paper Table 1) ---------------------------------------
  /// Found the group: install the singleton view immediately.
  void create();
  /// Join via any of `contacts` (current members, e.g. from the naming
  /// service). Retries until a view including this process arrives.
  void join(const MemberSet& contacts);
  /// Leave the group. The endpoint becomes defunct once the departure view
  /// change completes (immediately if this is the only member).
  void leave();
  /// Virtually synchronous totally-ordered multicast. Queued for the next
  /// view while a view change is in progress.
  void send(SharedBytes payload);
  /// Confirm a Stop upcall (paper's StopOk).
  void stop_ok();
  /// Force a flush + view re-installation with unchanged membership. Used
  /// by the LWG merge-views protocol (paper Fig. 5) as its synchronization
  /// point. Only effective at the acting coordinator of an active view;
  /// requests while a change is already running are ignored.
  void force_flush();

  // --- introspection -----------------------------------------------------
  [[nodiscard]] HwgId gid() const { return gid_; }
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool defunct() const { return state_ == State::kLeft; }
  [[nodiscard]] bool has_view() const { return has_view_; }
  [[nodiscard]] const View& view() const;
  [[nodiscard]] ProcessId self() const;
  /// Smallest member of the current view not suspected by this process.
  [[nodiscard]] ProcessId acting_coordinator() const;
  [[nodiscard]] bool is_acting_coordinator() const;
  [[nodiscard]] const MemberSet& known_peers() const { return known_peers_; }
  [[nodiscard]] const MemberSet& suspected() const { return suspected_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// SEND_REQs the sequencer holds back until their predecessors are
  /// ordered (tests).
  [[nodiscard]] std::size_t held_send_reqs() const;

  // --- wire entry (called by VsyncHost) ----------------------------------
  void on_message(ProcessId from, MsgType type, Decoder& dec);
  /// Periodic driver: heartbeats, suspicion checks, NACKs, merge probes,
  /// stuck-state watchdog. Called by the host tick.
  void on_tick();

 private:
  // -- fixed protocol timings (docs/TUNING.md "Fixed protocol constants") --
  /// Heartbeat period per member per group.
  static constexpr Duration kHeartbeatIntervalUs = 200'000;
  /// Ceiling for the exponential backoff on every retry path (JOIN_REQ,
  /// flush retry, merge probes, unacked-send repair).
  static constexpr Duration kRetryBackoffCapUs = 5'000'000;
  /// Coordinator retries a stalled flush phase after this long; members
  /// that still have not answered become suspected.
  static constexpr Duration kFlushRetryUs = 600'000;
  /// Joiner re-sends its JOIN_REQ (and a leaver its LEAVE_REQ) at this
  /// period until a view arrives.
  static constexpr Duration kJoinRetryUs = 500'000;
  /// Coordinator batches join/leave requests for this long before starting
  /// a view change (avoids one flush per joiner on group start-up).
  static constexpr Duration kMembershipBatchUs = 20'000;
  /// Period of merge probes to known peers outside the view.
  static constexpr Duration kMergeProbeIntervalUs = 1'000'000;
  /// Merge leader / follower abandon a merge attempt after this long.
  static constexpr Duration kMergeTimeoutUs = 3'000'000;
  /// Gap-detection period for NACK-based retransmission.
  static constexpr Duration kNackCheckUs = 150'000;
  /// If an endpoint sits in a non-active state this long, the legitimate
  /// coordinator restarts the view change (self-healing watchdog).
  static constexpr Duration kStuckWatchdogUs = 2'000'000;

  // -- shared helpers (group_endpoint.cpp) --
  void install_view(const View& view);
  void become_defunct();
  void reset_view_state();
  void note_heard(ProcessId p);
  void update_suspicions();
  void set_state(State s);
  [[nodiscard]] bool view_matches(const ViewId& id) const {
    return has_view_ && view_.id == id;
  }
  /// `p`'s rank in the view (its index into last_heard_ and
  /// delivery_floor_), or nullopt if `p` is not a member.
  [[nodiscard]] std::optional<std::size_t> rank_of(ProcessId p) const;
  /// Send a vsync message of this group (defined in vsync_host.hpp).
  template <class M>
  void unicast(ProcessId to, const M& msg);
  template <class M>
  void multicast(const MemberSet& to, const M& msg);
  [[nodiscard]] Time now() const;
  [[nodiscard]] const VsyncConfig& config() const;
  /// Stable jitter salt for this endpoint's backoff paths (self ^ group).
  [[nodiscard]] std::uint64_t backoff_salt() const;

  // -- data path (group_endpoint_data.cpp) --
  void on_send_req(SendReqMsg msg);
  void drain_order_buffer(ProcessId origin);
  void on_ordered(OrderedMsgWire wire);
  void on_nack(ProcessId from, const NackMsg& msg);
  void on_heartbeat(const HeartbeatMsg& msg);
  /// Sequencer only: recompute the view-wide stability floor from the
  /// delivery bounds piggybacked on members' heartbeats.
  void update_stability_floor();
  /// Drop log entries at or below the stability floor — everyone has them,
  /// nobody can NACK or FETCH them.
  void trim_stable_log();
  /// `first_unacked` is the sender's progress bound carried by SEND_REQ;
  /// preserved when the message is deferred to the next view so the
  /// hold-back reasoning stays sound across the view change.
  void order_and_multicast(ProcessId origin, std::uint64_t sender_msg_id,
                           SharedBytes payload, std::uint64_t first_unacked);
  void submit_send(SharedBytes payload);
  /// This process delivered its own send `smid`: stop re-sending it.
  void ack_own_send(std::uint64_t smid);
  void deliver_contiguous();
  void deliver_one(const OrderedMsg& msg);
  void flush_pending_sends();
  void resend_unacked(bool force);
  void check_nacks();

  // -- membership / flush (group_endpoint_flush.cpp) --
  void on_join_req(const JoinReqMsg& msg);
  void on_leave_req(const LeaveReqMsg& msg);
  void on_flush_req(ProcessId from, const FlushReqMsg& msg);
  void on_flush_ack(const FlushAckMsg& msg);
  void on_flush_reject(const FlushRejectMsg& msg);
  void on_fetch(ProcessId from, const FetchMsg& msg);
  void on_fetch_reply(const FetchReplyMsg& msg);
  void on_flush_cut(const FlushCutMsg& msg);
  void on_flush_done(const FlushDoneMsg& msg);
  void answer_stale_flush_done(const FlushDoneMsg& msg);
  void on_new_view(const NewViewMsg& msg);
  void send_join_req();
  /// Schedule a membership batch; the view change starts after
  /// kMembershipBatchUs unless one is already running.
  void schedule_view_change();
  /// Start a flush as initiator. `for_merge` reports completion to the
  /// merge machinery instead of installing a view.
  void initiate_view_change(bool for_merge);
  void maybe_send_flush_ack();
  void deliver_cut(const FlushCutMsg& msg);
  void flush_acks_maybe_complete();
  void send_flush_cut();
  void flush_phase_timeout();
  void finish_flush_as_initiator();
  void install_and_announce(const MemberSet& members,
                            std::vector<ViewId> predecessors,
                            const MemberSet& recipients,
                            const MemberSet& departed);

  // -- merge (group_endpoint_merge.cpp) --
  void on_merge_probe(const MergeProbeMsg& msg);
  void on_merge_reply(const MergeReplyMsg& msg);
  void on_merge_start(ProcessId from, const MergeStartMsg& msg);
  void on_merge_flushed(const MergeFlushedMsg& msg);
  void on_merge_abort(const MergeAbortMsg& msg);
  void send_merge_probe();
  void begin_merge_as_leader(const MergeProbeMsg& other_view);
  void merge_self_flush_complete(MemberSet survivors);
  void merge_leader_maybe_install();
  void merge_timeout();
  void abort_merge();

  // ---------------------------------------------------------------------
  VsyncHost& host_;
  const HwgId gid_;
  GroupUser& user_;
  State state_ = State::kJoining;
  Time state_since_ = 0;

  // Current view + per-view data state.
  bool has_view_ = false;
  View view_;
  OrderedLog msg_log_;                           // ORDERED received, not yet GC'd
  std::uint64_t delivered_upto_ = 0;             // contiguous prefix delivered
  // Seqs a flush cut delivered above delivered_upto_, so the prefix does not
  // deliver them again. Cleared at every view install: empty outside flushes.
  std::set<std::uint64_t> cut_delivered_;
  std::uint64_t max_seen_ = 0;
  // Stability-floor log GC: the sequencer folds the delivered_upto bounds
  // piggybacked on heartbeats into a view-wide floor and advertises it on
  // every ORDERED and heartbeat; entries at or below the floor are trimmed.
  // delivery_floor_[i] is the highest bound heard from view_.members rank i
  // (the sequencer's intake); reset_view_state sizes it like last_heard_.
  std::vector<std::uint64_t> delivery_floor_;
  std::uint64_t stable_upto_ = 0;                // delivered at every member
  std::uint64_t trimmed_upto_ = 0;               // log GC'd up to here
  std::uint64_t next_order_seq_ = 1;             // sequencer counter
  std::uint64_t next_sender_msg_id_ = 1;
  std::deque<SharedBytes> pending_sends_;
  // Sender-driven reliability: a send stays here until this process delivers
  // its own copy; re-sent to the sequencer periodically within the view and
  // re-submitted into the next view after a view change. The sequencer
  // de-duplicates via ordered_. The queue holds consecutive smids in order,
  // so smid s sits at index s - front().smid. A send delivered ahead of an
  // older one is marked `delivered` and dropped once it reaches the front,
  // so the front is always the first unacked send.
  struct UnackedSend {
    std::uint64_t smid = 0;
    SharedBytes payload;
    Time last_sent = 0;
    std::uint32_t attempts = 0;  // repair resends so far (backoff input)
    bool delivered = false;
  };
  std::deque<UnackedSend> unacked_sends_;
  // Sequencer-side record of what this view ordered, per origin. A sender
  // never re-sends below the first_unacked it reports (everything below it
  // was delivered back to it), so each SEND_REQ raises the watermark `next`
  // to its first_unacked; ordering smid `next` advances it. Smids ordered
  // out of FIFO order (re-injected SEND_REQs, the sequencer's own fresh
  // sends ahead of its re-submitted ones) wait in `ahead` until the
  // watermark reaches them, so the state is bounded by the in-flight window.
  struct OriginOrder {
    std::uint64_t next = 1;  // sender message ids start at 1
    std::set<std::uint64_t> ahead;

    [[nodiscard]] bool ordered(std::uint64_t smid) const {
      return smid < next || ahead.contains(smid);
    }
    void raise(std::uint64_t first_unacked);
    /// Record `smid` as ordered; false if it already was.
    bool insert(std::uint64_t smid);
  };
  std::map<ProcessId, OriginOrder> ordered_;
  // Sequencer-side per-origin hold-back buffer: a SEND_REQ is sequenced only
  // once every sender message id between the sender's first_unacked and it
  // has been ordered, preserving per-sender FIFO under retransmission.
  std::map<ProcessId, std::map<std::uint64_t, SendReqMsg>> order_buffer_;
  // SEND_REQs that reached this (old) coordinator during a flush; re-injected
  // into the next view if the origin survives.
  std::deque<SendReqMsg> resequence_queue_;

  // Failure detection: a view member is suspected once its silence exceeds
  // suspect_timeout_us (VsyncConfig::suspects). last_heard_[i] is when
  // view_.members rank i was last heard; reset_view_state sizes it, so every
  // member of the installed view has an entry.
  std::vector<Time> last_heard_;
  MemberSet suspected_;
  Time last_heartbeat_sent_ = -1;
  Time last_nack_check_ = 0;
  Time last_probe_sent_ = 0;
  std::uint32_t probe_attempts_ = 0;  // merge probes since last view change
  Time last_flush_done_resent_ = -1;  // Stopped-straggler FLUSH_DONE re-offer

  // Membership change requests pending at this process (acted on when it is
  // the acting coordinator).
  MemberSet pending_joiners_;
  MemberSet pending_leavers_;
  bool leave_requested_ = false;   // this process wants out
  MemberSet join_contacts_;
  Time last_join_req_ = -1;
  std::uint32_t join_attempts_ = 0;  // JOIN_REQs sent (backoff input)
  Time last_leave_req_ = -1;
  Time batch_deadline_ = -1;       // membership batch expiry (-1: none)

  // Initiator-side flush operation.
  struct FlushOp {
    std::uint32_t epoch = 0;
    ViewId old_view;
    MemberSet proposal;            // next view membership
    MemberSet targets;             // old members that must flush
    MemberSet leavers;             // flushed but excluded from proposal
    std::map<ProcessId, std::vector<std::uint64_t>> acks;
    MemberSet done;
    std::set<std::uint64_t> union_have;
    std::set<std::uint64_t> awaiting_fetch;
    bool cut_sent = false;
    bool for_merge = false;
    int retries = 0;
    Time started_at = 0;
  };
  std::optional<FlushOp> flush_op_;
  std::uint32_t next_flush_epoch_ = 1;

  // Participant-side flush context.
  struct ParticipantFlush {
    ViewId old_view;
    std::uint32_t epoch = 0;
    ProcessId initiator;
    MemberSet proposal;
    bool stop_delivered = false;   // Stop upcall issued
    bool stop_acked = false;       // user called stop_ok
    bool ack_sent = false;
    bool done_sent = false;
  };
  std::optional<ParticipantFlush> part_flush_;

  // Merge machinery.
  struct MergeParty {
    ViewId view;
    ProcessId coordinator;
    MemberSet members;      // membership advertised at probe time
    bool flushed = false;
    MemberSet survivors;
  };
  struct MergeLeaderOp {
    std::uint32_t epoch = 0;
    std::vector<MergeParty> parties;  // other views (not our own)
    bool self_flushed = false;
    MemberSet self_survivors;
    Time started_at = 0;
  };
  struct MergeFollowOp {
    std::uint32_t epoch = 0;
    ProcessId leader;
    Time started_at = 0;
  };
  std::optional<MergeLeaderOp> merge_leader_;
  std::optional<MergeFollowOp> merge_follow_;
  std::uint32_t next_merge_epoch_ = 1;

  // Every process ever observed as a member (or advertiser) of this group;
  // the merge-probe target set is known_peers_ minus the current view.
  MemberSet known_peers_;
  // Voluntary leavers are forgotten so they are not probed forever.
  MemberSet departed_;

  Stats stats_;
};

std::ostream& operator<<(std::ostream& os, GroupEndpoint::State s);

}  // namespace plwg::vsync
