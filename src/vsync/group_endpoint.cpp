// GroupEndpoint: lifecycle, dispatch, failure detection, periodic driver.
// The data path lives in group_endpoint_data.cpp, the flush / view-change
// machinery in group_endpoint_flush.cpp, and the partition-merge machinery
// in group_endpoint_merge.cpp.
#include "vsync/group_endpoint.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/backoff.hpp"
#include "util/log.hpp"
#include "vsync/vsync_host.hpp"

namespace plwg::vsync {

GroupEndpoint::GroupEndpoint(VsyncHost& host, HwgId gid, GroupUser& user)
    : host_(host), gid_(gid), user_(user) {}

std::uint64_t GroupEndpoint::backoff_salt() const {
  return (static_cast<std::uint64_t>(self().value()) << 32) ^ gid_.value();
}

const View& GroupEndpoint::view() const {
  PLWG_ASSERT_MSG(has_view_, "no view installed");
  return view_;
}

ProcessId GroupEndpoint::self() const { return host_.self(); }

Time GroupEndpoint::now() const { return host_.node().now(); }

const VsyncConfig& GroupEndpoint::config() const { return host_.config(); }

ProcessId GroupEndpoint::acting_coordinator() const {
  if (!has_view_) return ProcessId::invalid();
  const MemberSet alive = view_.members.set_difference(suspected_);
  if (alive.empty()) return self();
  return alive.min_member();
}

bool GroupEndpoint::is_acting_coordinator() const {
  return has_view_ && acting_coordinator() == self();
}

void GroupEndpoint::set_state(State s) {
  if (state_ == s) return;
  state_ = s;
  state_since_ = now();
}

void GroupEndpoint::create() {
  PLWG_ASSERT_MSG(!has_view_, "create on an endpoint that has a view");
  View v;
  v.id = ViewId{self(), host_.mint_view_seq(gid_)};
  v.members = MemberSet{self()};
  install_view(v);
}

void GroupEndpoint::join(const MemberSet& contacts) {
  PLWG_ASSERT_MSG(!has_view_, "join on an endpoint that has a view");
  PLWG_ASSERT_MSG(!contacts.empty(), "join needs at least one contact");
  join_contacts_ = contacts;
  set_state(State::kJoining);
  send_join_req();
}

void GroupEndpoint::leave() {
  if (defunct()) return;
  if (!has_view_) {
    // Still joining: just abandon the attempt.
    become_defunct();
    return;
  }
  if (view_.members.size() == 1) {
    // Sole member: the group dissolves with us.
    become_defunct();
    return;
  }
  leave_requested_ = true;
  if (is_acting_coordinator()) {
    pending_leavers_.insert(self());
    schedule_view_change();
  } else {
    unicast(acting_coordinator(), LeaveReqMsg{self()});
  }
}

void GroupEndpoint::send(SharedBytes payload) {
  if (defunct()) return;
  stats_.msgs_sent++;
  submit_send(std::move(payload));
}

void GroupEndpoint::force_flush() {
  if (!has_view_ || state_ != State::kActive || !is_acting_coordinator() ||
      flush_op_ || merge_leader_ || merge_follow_) {
    return;
  }
  initiate_view_change(/*for_merge=*/false);
}

void GroupEndpoint::stop_ok() {
  if (!part_flush_ || !part_flush_->stop_delivered || part_flush_->stop_acked) {
    return;
  }
  part_flush_->stop_acked = true;
  maybe_send_flush_ack();
}

void GroupEndpoint::install_view(const View& view) {
  PLWG_ASSERT(view.members.contains(self()));
  view_ = view;
  has_view_ = true;
  reset_view_state();
  known_peers_ = known_peers_.set_union(view.members).set_difference(departed_);
  pending_joiners_ = pending_joiners_.set_difference(view.members);
  // Keep only leave requests from processes still in the view.
  pending_leavers_ = pending_leavers_.set_intersection(view.members);
  set_state(State::kActive);
  stats_.views_installed++;
  PLWG_DEBUG("vsync", "p", self(), " g", gid_, " installed ", view_);
  if (auto* obs = host_.observer()) {
    obs->on_hwg_view_installed(self(), gid_, view_);
  }
  user_.on_view(gid_, view_);
  if (defunct()) return;  // user may have left during the upcall
  flush_pending_sends();
  // Sends not yet delivered anywhere in our lineage resurface in this view.
  resend_unacked(/*force=*/true);
  // Re-inject SEND_REQs buffered while the previous view was flushing.
  std::deque<SendReqMsg> queue;
  queue.swap(resequence_queue_);
  for (SendReqMsg& req : queue) {
    if (!view_.members.contains(req.origin)) continue;
    if (view_.coordinator() == self()) {
      order_and_multicast(req.origin, req.sender_msg_id,
                          std::move(req.payload), req.first_unacked);
    } else {
      req.view = view_.id;
      unicast(view_.coordinator(), req);
    }
  }
  if (is_acting_coordinator() &&
      (!pending_joiners_.empty() || !pending_leavers_.empty())) {
    schedule_view_change();
  }
}

void GroupEndpoint::reset_view_state() {
  msg_log_.clear();
  cut_delivered_.clear();
  ordered_.clear();
  order_buffer_.clear();
  delivered_upto_ = 0;
  max_seen_ = 0;
  next_order_seq_ = 1;
  delivery_floor_.assign(view_.members.size(), 0);
  stable_upto_ = 0;
  trimmed_upto_ = 0;
  suspected_ = MemberSet{};
  last_heard_.assign(view_.members.size(), now());
  part_flush_.reset();
  flush_op_.reset();
  merge_follow_.reset();
  batch_deadline_ = -1;
  // A new view is fresh topology news: retry/probe backoff starts over.
  join_attempts_ = 0;
  probe_attempts_ = 0;
}

void GroupEndpoint::become_defunct() {
  if (auto* obs = host_.observer()) obs->on_hwg_endpoint_reset(self(), gid_);
  set_state(State::kLeft);
  has_view_ = false;
  flush_op_.reset();
  part_flush_.reset();
  merge_leader_.reset();
  merge_follow_.reset();
}

std::optional<std::size_t> GroupEndpoint::rank_of(ProcessId p) const {
  const auto& members = view_.members.members();
  const auto it = std::lower_bound(members.begin(), members.end(), p);
  if (it == members.end() || *it != p) return std::nullopt;
  return static_cast<std::size_t>(it - members.begin());
}

void GroupEndpoint::note_heard(ProcessId p) {
  if (!has_view_) return;
  const std::optional<std::size_t> rank = rank_of(p);
  if (!rank) return;
  last_heard_[*rank] = now();
  // Rehabilitation: live shared-view traffic from a suspect restores trust.
  // Suspicion used to be sticky until a view change reset it, which is fine
  // when the suspecter ends up acting coordinator (it excludes the suspect)
  // — but after a one-way outage heals, a member that suspected the
  // coordinator while everyone else stayed connected is NOT the acting
  // coordinator, so nobody ever turns its suspicion into a view change. It
  // then refuses to NACK-repair from or route sends through the "dead"
  // sequencer forever: a silent livelock with a perfectly consistent view.
  // Only an active member rehabilitates: mid-flush, clearing the suspicion
  // can hand acting coordination back to the suspect, which never heard of
  // the flush, and the flushing members wedge forever. The view change
  // settles the suspicion (the suspect merges back later).
  if (state_ == State::kActive && suspected_.contains(p)) {
    suspected_.erase(p);
    PLWG_DEBUG("vsync", "p", self(), " g", gid_, " rehabilitates ", p);
    flush_pending_sends();
  }
}

void GroupEndpoint::update_suspicions() {
  if (!has_view_) return;
  const Time t = now();
  bool changed = false;
  const auto& members = view_.members.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    const ProcessId p = members[i];
    if (p == self() || suspected_.contains(p)) continue;
    if (config().suspects(t - last_heard_[i])) {
      suspected_.insert(p);
      changed = true;
      PLWG_DEBUG("vsync", "p", self(), " g", gid_, " suspects ", p);
    }
  }
  if (changed && is_acting_coordinator()) schedule_view_change();
}

void GroupEndpoint::on_tick() {
  if (defunct()) return;
  const Time t = now();

  if (state_ == State::kJoining) {
    // Re-sending JOIN_REQ on a fixed period hammers a contact that is slow
    // rather than gone; back the retries off (capped, jittered).
    const Duration retry_in =
        backoff_delay(kJoinRetryUs, join_attempts_ > 0 ? join_attempts_ - 1 : 0,
                      kRetryBackoffCapUs, backoff_salt() ^ 0x4a);
    if (last_join_req_ < 0 || t - last_join_req_ >= retry_in) {
      send_join_req();
    }
    return;
  }
  if (!has_view_) return;

  // Heartbeats keep the failure detector fed in every state. They double as
  // the stability-ack channel: each member piggybacks its contiguous
  // delivery bound, and the sequencer piggybacks the resulting view-wide
  // floor back out, so log GC costs no dedicated messages at all.
  if (view_.members.size() > 1 &&
      (last_heartbeat_sent_ < 0 ||
       t - last_heartbeat_sent_ >= kHeartbeatIntervalUs)) {
    last_heartbeat_sent_ = t;
    const bool sequencer = view_.coordinator() == self();
    if (sequencer) update_stability_floor();
    const std::uint64_t high_water = sequencer ? next_order_seq_ - 1 : 0;
    MemberSet others = view_.members;
    others.erase(self());
    multicast(others, HeartbeatMsg{view_.id, self(), high_water,
                                   delivered_upto_, stable_upto_});
  }
  trim_stable_log();

  update_suspicions();

  // Re-send a pending leave request in case it was lost.
  if (leave_requested_ && !is_acting_coordinator() &&
      (last_leave_req_ < 0 || t - last_leave_req_ >= kJoinRetryUs)) {
    last_leave_req_ = t;
    unicast(acting_coordinator(), LeaveReqMsg{self()});
  }

  if (t - last_nack_check_ >= kNackCheckUs) {
    last_nack_check_ = t;
    check_nacks();
    resend_unacked(/*force=*/false);
  }

  // Membership batch expiry.
  if (batch_deadline_ >= 0 && t >= batch_deadline_) {
    batch_deadline_ = -1;
    if (is_acting_coordinator() && !flush_op_ && !merge_leader_ &&
        !merge_follow_ &&
        (!pending_joiners_.empty() || !pending_leavers_.empty() ||
         !suspected_.empty())) {
      initiate_view_change(/*for_merge=*/false);
    }
  }

  // Flush progress / retry, backed off per attempt so a flush stalled on a
  // degraded member does not re-multicast its phase message at full rate.
  if (flush_op_ &&
      t - flush_op_->started_at >=
          backoff_delay(kFlushRetryUs,
                        static_cast<std::uint32_t>(flush_op_->retries),
                        kRetryBackoffCapUs, backoff_salt() ^ 0xf1)) {
    flush_phase_timeout();
  }

  // Merge probe + timeouts.
  if (merge_leader_ && t - merge_leader_->started_at >= kMergeTimeoutUs) {
    merge_timeout();
  }
  if (merge_follow_ && t - merge_follow_->started_at >= kMergeTimeoutUs) {
    merge_follow_.reset();
    if (flush_op_ && flush_op_->for_merge) flush_op_->for_merge = false;
  }
  // Merge probes back off too: the probe targets are by definition outside
  // our view, so every unanswered round is evidence they are partitioned
  // away or dead — probe less, not harder. A view change (any topology
  // news) resets the cadence. Every member runs this, not just the
  // coordinator: a non-coordinator ships its foreign peers to the
  // coordinator instead of probing (see send_merge_probe).
  if (state_ == State::kActive && has_view_ && !flush_op_ &&
      !merge_leader_ && !merge_follow_ &&
      t - last_probe_sent_ >=
          backoff_delay(kMergeProbeIntervalUs, probe_attempts_,
                        kRetryBackoffCapUs, backoff_salt() ^ 0x6d)) {
    last_probe_sent_ = t;
    if (probe_attempts_ < 32) probe_attempts_++;
    send_merge_probe();
  }

  // Watchdog: a member wedged mid-view-change re-forms the view if it is the
  // legitimate coordinator (covers crashed initiators and lost merges).
  // A merge follower must outwait the leader's whole kMergeTimeoutUs budget
  // (the leader's constituent flush may legitimately take that long when its
  // view carries a member only the failure detector can remove): re-forming
  // sooner abandons the view the leader is merging, the merged NEW_VIEW
  // arrives just too late to match, and the retry loop phase-locks into a
  // livelock of re-forms and rejected installs.
  const Duration wedge_patience =
      merge_follow_ ? kMergeTimeoutUs + kStuckWatchdogUs : kStuckWatchdogUs;
  if ((state_ == State::kStopping || state_ == State::kFlushing ||
       state_ == State::kStopped) &&
      t - state_since_ >= wedge_patience && is_acting_coordinator() &&
      !flush_op_ && !merge_leader_) {
    merge_follow_.reset();
    PLWG_DEBUG("vsync", "p", self(), " g", gid_, " watchdog re-forms view");
    initiate_view_change(/*for_merge=*/false);
  }

  // A NON-coordinator wedged in Stopped confirmed the cut, but the
  // initiator's NEW_VIEW to it was lost: the initiator dismantles its flush
  // op on the last FLUSH_DONE, so nothing retransmits the view, while our
  // cross-view heartbeats keep feeding everyone's failure detector — nobody
  // ever suspects us and we stay deaf forever. Re-offer the FLUSH_DONE; the
  // initiator answers a stale one with the superseding view (or an eject if
  // history moved past it).
  if (state_ == State::kStopped && part_flush_ && part_flush_->done_sent &&
      t - state_since_ >= kStuckWatchdogUs &&
      (last_flush_done_resent_ < 0 ||
       t - last_flush_done_resent_ >= kFlushRetryUs)) {
    last_flush_done_resent_ = t;
    unicast(part_flush_->initiator,
            FlushDoneMsg{part_flush_->old_view, part_flush_->epoch, self()});
  }
}

void GroupEndpoint::on_message(ProcessId from, MsgType type, Decoder& dec) {
  if (defunct()) return;
  // Failure-detector feed: only traffic of the *shared view's* protocols
  // counts as liveness. Merge probes and join requests deliberately do not
  // — a process excluded from its peers' current view must still suspect
  // them, take over its own stale view, and meet them through the merge
  // path; hearing their probes must not keep its stale trust alive.
  switch (type) {
    case SendReqMsg::kType:
    case OrderedMsgWire::kType:
    case NackMsg::kType:
    case HeartbeatMsg::kType:
    case FlushReqMsg::kType:
    case FlushAckMsg::kType:
    case FlushRejectMsg::kType:
    case FetchMsg::kType:
    case FetchReplyMsg::kType:
    case FlushCutMsg::kType:
    case FlushDoneMsg::kType:
    case NewViewMsg::kType:
      note_heard(from);
      break;
    default:
      break;
  }
  // Membership-protocol messages carry a configurable CPU charge (see
  // VsyncConfig::membership_msg_cost_us).
  switch (type) {
    case FlushReqMsg::kType:
    case FlushAckMsg::kType:
    case FlushRejectMsg::kType:
    case FetchMsg::kType:
    case FetchReplyMsg::kType:
    case FlushCutMsg::kType:
    case FlushDoneMsg::kType:
    case NewViewMsg::kType:
      if (config().membership_msg_cost_us > 0) {
        host_.node().network().charge_cpu(host_.node().id(),
                                          config().membership_msg_cost_us);
      }
      break;
    default:
      break;
  }
  switch (type) {
    case JoinReqMsg::kType:
      on_join_req(dec.get_exact<JoinReqMsg>());
      break;
    case LeaveReqMsg::kType:
      on_leave_req(dec.get_exact<LeaveReqMsg>());
      break;
    case SendReqMsg::kType:
      on_send_req(dec.get_exact<SendReqMsg>());
      break;
    case OrderedMsgWire::kType:
      on_ordered(dec.get_exact<OrderedMsgWire>());
      break;
    case NackMsg::kType:
      on_nack(from, dec.get_exact<NackMsg>());
      break;
    case HeartbeatMsg::kType:
      on_heartbeat(dec.get_exact<HeartbeatMsg>());
      break;
    case FlushReqMsg::kType:
      on_flush_req(from, dec.get_exact<FlushReqMsg>());
      break;
    case FlushAckMsg::kType:
      on_flush_ack(dec.get_exact<FlushAckMsg>());
      break;
    case FlushRejectMsg::kType:
      on_flush_reject(dec.get_exact<FlushRejectMsg>());
      break;
    case FetchMsg::kType:
      on_fetch(from, dec.get_exact<FetchMsg>());
      break;
    case FetchReplyMsg::kType:
      on_fetch_reply(dec.get_exact<FetchReplyMsg>());
      break;
    case FlushCutMsg::kType:
      on_flush_cut(dec.get_exact<FlushCutMsg>());
      break;
    case FlushDoneMsg::kType:
      on_flush_done(dec.get_exact<FlushDoneMsg>());
      break;
    case NewViewMsg::kType:
      on_new_view(dec.get_exact<NewViewMsg>());
      break;
    case MergeProbeMsg::kType:
      on_merge_probe(dec.get_exact<MergeProbeMsg>());
      break;
    case MergeReplyMsg::kType:
      on_merge_reply(dec.get_exact<MergeReplyMsg>());
      break;
    case MergeStartMsg::kType:
      on_merge_start(from, dec.get_exact<MergeStartMsg>());
      break;
    case MergeFlushedMsg::kType:
      on_merge_flushed(dec.get_exact<MergeFlushedMsg>());
      break;
    case MergeAbortMsg::kType:
      on_merge_abort(dec.get_exact<MergeAbortMsg>());
      break;
  }
}

std::ostream& operator<<(std::ostream& os, GroupEndpoint::State s) {
  switch (s) {
    case GroupEndpoint::State::kJoining: return os << "joining";
    case GroupEndpoint::State::kActive: return os << "active";
    case GroupEndpoint::State::kStopping: return os << "stopping";
    case GroupEndpoint::State::kFlushing: return os << "flushing";
    case GroupEndpoint::State::kStopped: return os << "stopped";
    case GroupEndpoint::State::kLeft: return os << "left";
  }
  return os << "?";
}

}  // namespace plwg::vsync
