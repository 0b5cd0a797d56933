// GroupEndpoint membership: join/leave handling and the coordinator-driven
// flush protocol that installs new views while preserving virtual synchrony.
//
// The delivery cut of a view change is the union of every survivor's
// have-list; the initiator fetches contents it lacks, multicasts the cut
// with retransmissions, and installs the new view only after every survivor
// confirmed the cut. Any two processes installing the same two consecutive
// views therefore deliver exactly the cut between them (paper Sect. 3).
#include <algorithm>

#include "util/assert.hpp"
#include "util/log.hpp"
#include "vsync/group_endpoint.hpp"
#include "vsync/vsync_host.hpp"

namespace plwg::vsync {

void GroupEndpoint::send_join_req() {
  last_join_req_ = now();
  if (join_attempts_ < 32) join_attempts_++;  // backoff input (on_tick)
  Encoder& body = scratch_body();
  JoinReqMsg{self()}.encode(body);
  multicast(join_contacts_, MsgType::kJoinReq, body);
}

void GroupEndpoint::on_join_req(const JoinReqMsg& msg) {
  if (!has_view_) return;
  if (msg.joiner != self() && view_.members.contains(msg.joiner)) {
    // A JOIN_REQ only ever comes from a state-less endpoint, so a listed
    // member asking to join has lost its endpoint state: it crashed and
    // restarted before anyone suspected it. Re-sending the NEW_VIEW would
    // graft a fresh endpoint onto a view whose delivery cut its previous
    // incarnation confirmed — the backlog retransmission would replay
    // messages the old incarnation already consumed. Vacate the dead seat
    // instead; the new incarnation is re-admitted by the next view change.
    // Every member records the suspicion so acting-coordinator selection
    // skips the dead seat even when the reborn process *was* the
    // coordinator.
    suspected_.insert(msg.joiner);
  }
  if (!is_acting_coordinator()) {
    Encoder& body = scratch_body();
    msg.encode(body);
    unicast(acting_coordinator(), MsgType::kJoinReq, body);
    return;
  }
  if (pending_joiners_.insert(msg.joiner)) {
    departed_.erase(msg.joiner);
  }
  schedule_view_change();
}

void GroupEndpoint::on_leave_req(const LeaveReqMsg& msg) {
  if (!has_view_ || !view_.members.contains(msg.leaver)) return;
  if (!is_acting_coordinator()) {
    Encoder& body = scratch_body();
    msg.encode(body);
    unicast(acting_coordinator(), MsgType::kLeaveReq, body);
    return;
  }
  if (pending_leavers_.insert(msg.leaver)) schedule_view_change();
}

void GroupEndpoint::schedule_view_change() {
  if (batch_deadline_ >= 0 || flush_op_ || merge_leader_ || merge_follow_) {
    return;  // a batch or change is already pending; the tick re-checks
  }
  batch_deadline_ = now() + kMembershipBatchUs;
}

void GroupEndpoint::initiate_view_change(bool for_merge) {
  PLWG_ASSERT(has_view_);
  PLWG_ASSERT(!flush_op_);
  update_suspicions();
  if (!is_acting_coordinator()) return;

  const MemberSet survivors = view_.members.set_difference(suspected_);
  MemberSet leavers;
  MemberSet proposal = survivors;
  if (!for_merge) {
    leavers = pending_leavers_.set_intersection(survivors);
    if (leave_requested_) leavers.insert(self());
    proposal = survivors.set_difference(leavers);
    for (ProcessId j : pending_joiners_.members()) proposal.insert(j);
  }
  if (proposal.empty()) {
    // Everyone (including us) is leaving: the group dissolves.
    become_defunct();
    return;
  }

  FlushOp op;
  op.epoch = next_flush_epoch_++;
  op.old_view = view_.id;
  op.proposal = proposal;
  op.targets = survivors;
  op.leavers = leavers;
  op.for_merge = for_merge;
  op.started_at = now();
  flush_op_ = std::move(op);
  stats_.flushes_started++;
  PLWG_DEBUG("vsync", "p", self(), " g", gid_, " flush ", view_.id,
             " epoch=", flush_op_->epoch, " proposal=", proposal);

  Encoder& body = scratch_body();
  FlushReqMsg{view_.id, flush_op_->epoch, self(), proposal}.encode(body);
  multicast(flush_op_->targets, MsgType::kFlushReq, body);
}

void GroupEndpoint::on_flush_req(ProcessId from, const FlushReqMsg& msg) {
  (void)from;
  if (!view_matches(msg.old_view)) return;

  // Legitimacy: the initiator must be the smallest member we do not suspect.
  if (msg.initiator != self()) {
    if (suspected_.contains(msg.initiator) ||
        msg.initiator != acting_coordinator()) {
      Encoder& body = scratch_body();
      FlushRejectMsg{msg.old_view, msg.epoch, self(), suspected_}.encode(body);
      unicast(msg.initiator, MsgType::kFlushReject, body);
      return;
    }
  }

  if (part_flush_ && part_flush_->old_view == msg.old_view) {
    if (msg.initiator > part_flush_->initiator &&
        !suspected_.contains(part_flush_->initiator)) {
      // A larger-pid pretender lost the race; tell it who we believe in.
      Encoder& body = scratch_body();
      FlushRejectMsg{msg.old_view, msg.epoch, self(), suspected_}.encode(body);
      unicast(msg.initiator, MsgType::kFlushReject, body);
      return;
    }
    // Same or smaller initiator (or ours got suspected): adopt the request.
    part_flush_->initiator = msg.initiator;
    part_flush_->epoch = msg.epoch;
    part_flush_->proposal = msg.proposal;
    if (part_flush_->ack_sent) {
      // Idempotent re-ack for retried requests.
      part_flush_->ack_sent = false;
      maybe_send_flush_ack();
    }
    return;
  }

  ParticipantFlush pf;
  pf.old_view = msg.old_view;
  pf.epoch = msg.epoch;
  pf.initiator = msg.initiator;
  pf.proposal = msg.proposal;
  part_flush_ = std::move(pf);
  if (state_ == State::kActive) set_state(State::kStopping);

  part_flush_->stop_delivered = true;
  user_.on_stop(gid_);  // user must call stop_ok(); may do so synchronously
}

void GroupEndpoint::maybe_send_flush_ack() {
  if (!part_flush_ || !part_flush_->stop_acked || part_flush_->ack_sent) {
    return;
  }
  part_flush_->ack_sent = true;
  set_state(State::kFlushing);
  std::vector<std::uint64_t> have;
  have.reserve(msg_log_.size());
  for (const auto& [seq, msg] : msg_log_) have.push_back(seq);
  Encoder& body = scratch_body();
  FlushAckMsg{part_flush_->old_view, part_flush_->epoch, self(),
              std::move(have)}
      .encode(body);
  unicast(part_flush_->initiator, MsgType::kFlushAck, body);
}

void GroupEndpoint::on_flush_ack(const FlushAckMsg& msg) {
  if (!flush_op_ || flush_op_->old_view != msg.old_view ||
      msg.epoch > flush_op_->epoch) {
    return;
  }
  if (!flush_op_->targets.contains(msg.sender)) return;
  flush_op_->acks[msg.sender] = msg.have;
  for (std::uint64_t s : msg.have) {
    // A peer that trims its log lazily may still report seqs below our own
    // stability trim. Those are delivered at every survivor by definition of
    // the floor, so they need no cut entry — and our log no longer has them.
    if (s <= trimmed_upto_) continue;
    flush_op_->union_have.insert(s);
  }
  flush_acks_maybe_complete();
}

void GroupEndpoint::flush_acks_maybe_complete() {
  PLWG_ASSERT(flush_op_.has_value());
  if (flush_op_->cut_sent) return;
  for (ProcessId p : flush_op_->targets.members()) {
    if (!flush_op_->acks.contains(p)) return;
  }
  // Every survivor acked. Messages this initiator sequenced after sending
  // its own have-list are still part of the view's stream — fold the live
  // log into the cut so they are not lost.
  for (const auto& [seq, msg] : msg_log_) flush_op_->union_have.insert(seq);
  // Fetch any cut contents this process lacks.
  flush_op_->awaiting_fetch.clear();
  for (std::uint64_t s : flush_op_->union_have) {
    if (!msg_log_.contains(s)) flush_op_->awaiting_fetch.insert(s);
  }
  if (flush_op_->awaiting_fetch.empty()) {
    send_flush_cut();
    return;
  }
  // Group the fetches per holder (first acker that has each seq).
  std::map<ProcessId, std::vector<std::uint64_t>> per_holder;
  for (std::uint64_t s : flush_op_->awaiting_fetch) {
    for (const auto& [p, have] : flush_op_->acks) {
      if (p == self()) continue;
      if (std::find(have.begin(), have.end(), s) != have.end()) {
        per_holder[p].push_back(s);
        break;
      }
    }
  }
  for (auto& [holder, seqs] : per_holder) {
    Encoder& body = scratch_body();
    FetchMsg{flush_op_->old_view, flush_op_->epoch, std::move(seqs)}.encode(
        body);
    unicast(holder, MsgType::kFetch, body);
  }
}

void GroupEndpoint::on_fetch(ProcessId from, const FetchMsg& msg) {
  if (!view_matches(msg.old_view)) return;
  FetchReplyMsg reply;
  reply.old_view = msg.old_view;
  reply.epoch = msg.epoch;
  for (std::uint64_t s : msg.seqs) {
    auto it = msg_log_.find(s);
    if (it != msg_log_.end()) reply.msgs.push_back(it->second);
  }
  Encoder& body = scratch_body();
  reply.encode(body);
  unicast(from, MsgType::kFetchReply, body);
}

void GroupEndpoint::on_fetch_reply(const FetchReplyMsg& msg) {
  if (!flush_op_ || flush_op_->old_view != msg.old_view ||
      flush_op_->cut_sent) {
    return;
  }
  for (const OrderedMsg& m : msg.msgs) {
    msg_log_.emplace(m.seq, m);
    flush_op_->awaiting_fetch.erase(m.seq);
  }
  if (flush_op_->awaiting_fetch.empty()) send_flush_cut();
}

void GroupEndpoint::send_flush_cut() {
  PLWG_ASSERT(flush_op_.has_value());
  FlushCutMsg cut;
  cut.old_view = flush_op_->old_view;
  cut.epoch = flush_op_->epoch;
  cut.cut.assign(flush_op_->union_have.begin(), flush_op_->union_have.end());
  // Retransmit any message at least one survivor is missing.
  for (std::uint64_t s : cut.cut) {
    bool everyone_has = true;
    for (const auto& [p, have] : flush_op_->acks) {
      if (std::find(have.begin(), have.end(), s) == have.end()) {
        everyone_has = false;
        break;
      }
    }
    if (!everyone_has) {
      auto it = msg_log_.find(s);
      PLWG_ASSERT_MSG(it != msg_log_.end(), "cut content missing at initiator");
      cut.retrans.push_back(it->second);
    }
  }
  flush_op_->cut_sent = true;
  flush_op_->started_at = now();  // restart the phase timer for DONE waits
  Encoder& body = scratch_body();
  cut.encode(body);
  multicast(flush_op_->targets, MsgType::kFlushCut, body);
}

void GroupEndpoint::on_flush_cut(const FlushCutMsg& msg) {
  if (!part_flush_ || part_flush_->old_view != msg.old_view) return;
  if (!part_flush_->ack_sent) {
    maybe_send_flush_ack();
    // Without our ack the initiator's cut cannot cover our deliveries yet;
    // wait for the retried cut (the user has not confirmed Stop).
    if (!part_flush_->ack_sent) return;
  }
  deliver_cut(msg);
  if (defunct()) return;
  part_flush_->done_sent = true;
  if (auto* obs = host_.observer()) {
    obs->on_hwg_flush_completed(self(), gid_, msg.old_view,
                                /*initiator=*/false);
  }
  set_state(State::kStopped);
  Encoder& body = scratch_body();
  FlushDoneMsg{msg.old_view, msg.epoch, self()}.encode(body);
  unicast(part_flush_->initiator, MsgType::kFlushDone, body);
}

void GroupEndpoint::deliver_cut(const FlushCutMsg& msg) {
  for (const OrderedMsg& m : msg.retrans) msg_log_.emplace(m.seq, m);
  for (std::uint64_t s : msg.cut) {
    // Skip what this member already delivered: the contiguous prefix
    // (its trimmed part included) and earlier deliveries of this cut.
    if (s <= delivered_upto_ || cut_delivered_.contains(s)) continue;
    auto it = msg_log_.find(s);
    PLWG_ASSERT_MSG(it != msg_log_.end(),
                    "cut message neither in log nor retransmitted");
    cut_delivered_.insert(s);
    deliver_one(it->second);
    if (defunct()) return;
  }
}

void GroupEndpoint::on_flush_done(const FlushDoneMsg& msg) {
  if (!flush_op_ || flush_op_->old_view != msg.old_view ||
      !flush_op_->cut_sent) {
    answer_stale_flush_done(msg);
    return;
  }
  if (!flush_op_->targets.contains(msg.sender)) return;
  flush_op_->done.insert(msg.sender);
  if (flush_op_->done == flush_op_->targets) finish_flush_as_initiator();
}

void GroupEndpoint::finish_flush_as_initiator() {
  PLWG_ASSERT(flush_op_.has_value());
  const FlushOp op = std::move(*flush_op_);
  flush_op_.reset();
  if (auto* obs = host_.observer()) {
    obs->on_hwg_flush_completed(self(), gid_, op.old_view,
                                /*initiator=*/true);
  }
  if (op.for_merge) {
    merge_self_flush_complete(op.proposal);
    return;
  }
  pending_leavers_ = pending_leavers_.set_difference(op.leavers);
  if (op.leavers.contains(self())) leave_requested_ = false;
  install_and_announce(op.proposal, {op.old_view}, op.targets, op.leavers);
}

void GroupEndpoint::install_and_announce(const MemberSet& members,
                                         std::vector<ViewId> predecessors,
                                         const MemberSet& recipients,
                                         const MemberSet& departed) {
  View v;
  v.id = ViewId{self(), host_.mint_view_seq(gid_)};
  v.members = members;
  v.predecessors = std::move(predecessors);
  NewViewMsg msg{v, departed};
  Encoder& body = scratch_body();
  body.reserve(msg.encoded_size_hint());
  msg.encode(body);
  // Recipients: new members (including joiners), flush survivors (so leavers
  // learn the outcome), all via one multicast. Our own copy arrives by
  // loopback and installs the view locally.
  MemberSet all = members.set_union(recipients);
  for (ProcessId j : pending_joiners_.members()) {
    if (members.contains(j)) all.insert(j);
  }
  multicast(all, MsgType::kNewView, body);
}

// A FLUSH_DONE for a flush we are not running comes from a straggler still
// Stopped in a view we already closed: the NEW_VIEW we multicast on the
// last DONE was lost on its link, and the flush op that could have
// retransmitted it is dismantled. The straggler keeps heartbeating (so
// nobody suspects it) but is deaf to the new view's protocols — without an
// answer it is wedged forever. Re-announce the outcome: replay our view if
// it directly succeeded the one the straggler is stuck in (its NACK repair
// then backfills the backlog — stability GC stalls on a silent member, so
// the log is still complete), else eject it so the layer above rejoins
// with fresh endpoint state.
void GroupEndpoint::answer_stale_flush_done(const FlushDoneMsg& msg) {
  if (state_ != State::kActive || !has_view_ || flush_op_ ||
      msg.sender == self() || msg.old_view == view_.id) {
    return;
  }
  const auto& preds = view_.predecessors;
  const bool direct_successor =
      std::find(preds.begin(), preds.end(), msg.old_view) != preds.end();
  NewViewMsg reply{view_,
                   direct_successor ? departed_ : MemberSet{msg.sender}};
  Encoder& body = scratch_body();
  body.reserve(reply.encoded_size_hint());
  reply.encode(body);
  unicast(msg.sender, MsgType::kNewView, body);
}

void GroupEndpoint::on_new_view(const NewViewMsg& msg) {
  departed_ = departed_.set_union(msg.departed);
  if (state_ == State::kJoining) {
    if (msg.view.members.contains(self())) install_view(msg.view);
    return;
  }
  if (!has_view_) return;
  // Accept a view that succeeds ours (its predecessors include our view).
  const auto& preds = msg.view.predecessors;
  const bool succeeds_ours =
      std::find(preds.begin(), preds.end(), view_.id) != preds.end();
  if (!succeeds_ours) {
    // Eject answer to a stale FLUSH_DONE: history moved past any direct
    // successor of the view we are stuck in, so a clean late install is
    // impossible. Only a Stopped straggler obeys — an installed member
    // ignores a stray eject that raced its recovery.
    if (state_ == State::kStopped && msg.departed.contains(self())) {
      become_defunct();
    }
    return;
  }
  if (msg.view.members.contains(self())) {
    install_view(msg.view);
    known_peers_ = known_peers_.set_difference(departed_);
  } else {
    // Our departure was granted (leave) or we were excluded while wedged;
    // either way this endpoint is done. The LWG layer re-joins if needed.
    become_defunct();
  }
}

void GroupEndpoint::on_flush_reject(const FlushRejectMsg& msg) {
  if (!flush_op_ || flush_op_->old_view != msg.old_view) return;
  if (msg.suspected.contains(self())) {
    // Mutual suspicion: the rejector will never follow us. Treat it as
    // partitioned away; it will form its own view and merge probes heal the
    // split later.
    suspected_.insert(msg.sender);
    flush_op_->targets.erase(msg.sender);
    flush_op_->proposal.erase(msg.sender);
    flush_op_->acks.erase(msg.sender);
    flush_op_->done.erase(msg.sender);
    if (flush_op_->cut_sent) {
      if (flush_op_->done == flush_op_->targets) finish_flush_as_initiator();
    } else {
      flush_acks_maybe_complete();
    }
  }
  // Otherwise the rejector trusts a smaller member we suspect; keep retrying
  // (the flush timeout re-sends) until one side's failure detector converges.
}

void GroupEndpoint::flush_phase_timeout() {
  PLWG_ASSERT(flush_op_.has_value());
  flush_op_->started_at = now();
  if (flush_op_->retries < 1) {
    // First stall: benign loss — re-send the current phase message.
    flush_op_->retries++;
    if (!flush_op_->cut_sent) {
      Encoder& body = scratch_body();
      FlushReqMsg{flush_op_->old_view, flush_op_->epoch, self(),
                  flush_op_->proposal}
          .encode(body);
      multicast(flush_op_->targets, MsgType::kFlushReq, body);
    } else {
      flush_op_->cut_sent = false;
      send_flush_cut();
    }
    return;
  }
  // Second stall: suspect the non-responders and restart the view change.
  const MemberSet& expected = flush_op_->targets;
  MemberSet responded;
  if (!flush_op_->cut_sent) {
    for (const auto& [p, have] : flush_op_->acks) responded.insert(p);
  } else {
    responded = flush_op_->done;
  }
  const MemberSet stragglers = expected.set_difference(responded);
  for (ProcessId p : stragglers.members()) {
    if (p != self()) suspected_.insert(p);
  }
  const bool for_merge = flush_op_->for_merge;
  flush_op_.reset();
  PLWG_DEBUG("vsync", "p", self(), " g", gid_, " flush restart; suspected ",
             stragglers);
  initiate_view_change(for_merge);
}

}  // namespace plwg::vsync
