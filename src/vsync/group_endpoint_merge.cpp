// GroupEndpoint partition healing: peer discovery by merge probes and the
// merge protocol that folds concurrent views of a group into one.
//
// Coordinators periodically probe every process that was ever seen in the
// group but is outside the current view. When a probe reaches a concurrent
// view, the smaller-pid coordinator leads: each constituent view flushes
// itself (preserving virtual synchrony per view), reports MERGE_FLUSHED,
// and the leader installs the union view. The merged view's `predecessors`
// carry the genealogy the naming service uses to discard obsolete mappings.
// Merges are pairwise; k concurrent views converge in O(log k) probe rounds.
#include "util/assert.hpp"
#include "util/log.hpp"
#include "vsync/group_endpoint.hpp"
#include "vsync/vsync_host.hpp"

namespace plwg::vsync {

void GroupEndpoint::send_merge_probe() {
  PLWG_ASSERT(has_view_);
  const MemberSet targets =
      known_peers_.set_difference(view_.members).set_difference(departed_);
  if (targets.empty()) return;
  if (!is_acting_coordinator()) {
    // Only the coordinator can lead a merge, but it probes from its own
    // known_peers_ — and after a crash–restart the coordinator may be the
    // one member that never saw the concurrent component (its peer memory
    // died with the previous incarnation). Report our foreign peers via a
    // same-view probe: the coordinator learns the member set and drops the
    // message at the same-view check, and its next probe round reaches
    // peers only we remembered.
    unicast(acting_coordinator(),
            MergeProbeMsg{view_.id, self(),
                          known_peers_.set_difference(departed_)});
    return;
  }
  multicast(targets, MergeProbeMsg{view_.id, self(), view_.members});
}

void GroupEndpoint::on_merge_probe(const MergeProbeMsg& msg) {
  if (!has_view_) return;
  // Learn before the same-view check: a member's peer report arrives as a
  // same-view probe and must still extend known_peers_.
  known_peers_ = known_peers_.set_union(msg.members);
  known_peers_.insert(msg.sender);
  if (msg.view == view_.id) return;  // same view: nothing to merge
  if (!is_acting_coordinator()) {
    unicast(acting_coordinator(), msg);
    return;
  }
  if (flush_op_ || merge_leader_ || merge_follow_ ||
      state_ != State::kActive) {
    return;  // busy; the prober retries on its next period
  }
  if (self() < msg.sender) {
    begin_merge_as_leader(msg);
  } else {
    unicast(msg.sender, MergeReplyMsg{{view_.id, self(), view_.members}});
  }
}

void GroupEndpoint::on_merge_reply(const MergeReplyMsg& msg) {
  if (!has_view_) return;
  known_peers_ = known_peers_.set_union(msg.members);
  known_peers_.insert(msg.sender);
  if (msg.view == view_.id) return;
  if (!is_acting_coordinator()) return;  // stale; drop
  if (flush_op_ || merge_leader_ || merge_follow_ ||
      state_ != State::kActive) {
    return;
  }
  if (self() < msg.sender) begin_merge_as_leader(msg);
}

void GroupEndpoint::begin_merge_as_leader(const MergeProbeMsg& other) {
  PLWG_ASSERT(!merge_leader_ && !flush_op_);
  MergeLeaderOp op;
  op.epoch = next_merge_epoch_++;
  op.started_at = now();
  op.parties.push_back(MergeParty{other.view, other.sender, other.members,
                                  /*flushed=*/false, MemberSet{}});
  merge_leader_ = std::move(op);
  stats_.merges_led++;
  PLWG_DEBUG("vsync", "p", self(), " g", gid_, " leads merge of ", view_.id,
             " + ", other.view);

  unicast(other.sender,
          MergeStartMsg{merge_leader_->epoch, self(), {view_.id, other.view}});
  initiate_view_change(/*for_merge=*/true);
}

void GroupEndpoint::on_merge_start(ProcessId from, const MergeStartMsg& msg) {
  (void)from;
  if (!has_view_ || !is_acting_coordinator()) return;
  if (msg.leader >= self()) return;  // only a smaller pid may lead us
  if (flush_op_ || merge_leader_ || merge_follow_ ||
      state_ != State::kActive) {
    return;  // leader will time out and retry via the next probe
  }
  merge_follow_ = MergeFollowOp{msg.merge_epoch, msg.leader, now()};
  initiate_view_change(/*for_merge=*/true);
}

void GroupEndpoint::merge_self_flush_complete(MemberSet survivors) {
  if (merge_leader_) {
    merge_leader_->self_flushed = true;
    merge_leader_->self_survivors = std::move(survivors);
    merge_leader_maybe_install();
    return;
  }
  if (merge_follow_) {
    unicast(merge_follow_->leader,
            MergeFlushedMsg{merge_follow_->epoch, view_.id, self(), survivors});
    // Remain Stopped; the leader's NEW_VIEW (whose predecessors include our
    // view id) completes the merge. The watchdog re-forms the view if the
    // leader dies.
    return;
  }
  // The merge was aborted while our flush ran: re-form our own view.
  install_and_announce(survivors, {view_.id}, survivors, MemberSet{});
}

void GroupEndpoint::on_merge_flushed(const MergeFlushedMsg& msg) {
  if (!merge_leader_ || merge_leader_->epoch != msg.merge_epoch) return;
  for (MergeParty& party : merge_leader_->parties) {
    if (party.coordinator == msg.sender) {
      party.flushed = true;
      party.survivors = msg.members;
      party.view = msg.view;  // the view actually flushed (may be newer)
      break;
    }
  }
  merge_leader_maybe_install();
}

void GroupEndpoint::merge_leader_maybe_install() {
  PLWG_ASSERT(merge_leader_.has_value());
  if (!merge_leader_->self_flushed) return;
  for (const MergeParty& party : merge_leader_->parties) {
    if (!party.flushed) return;
  }
  MemberSet members = merge_leader_->self_survivors;
  std::vector<ViewId> preds{view_.id};
  for (const MergeParty& party : merge_leader_->parties) {
    members = members.set_union(party.survivors);
    preds.push_back(party.view);
  }
  const MergeLeaderOp done = std::move(*merge_leader_);
  merge_leader_.reset();
  PLWG_DEBUG("vsync", "p", self(), " g", gid_, " merge installs ", members);
  install_and_announce(members, std::move(preds), members, MemberSet{});
  (void)done;
}

void GroupEndpoint::merge_timeout() {
  PLWG_ASSERT(merge_leader_.has_value());
  PLWG_DEBUG("vsync", "p", self(), " g", gid_, " merge timed out");
  for (const MergeParty& party : merge_leader_->parties) {
    if (party.flushed) continue;
    unicast(party.coordinator, MergeAbortMsg{merge_leader_->epoch});
  }
  const bool self_flushed = merge_leader_->self_flushed;
  const MemberSet survivors = merge_leader_->self_survivors;
  merge_leader_.reset();
  if (self_flushed) {
    // Our constituent flush finished; resume as a standalone view.
    install_and_announce(survivors, {view_.id}, survivors, MemberSet{});
  } else if (flush_op_ && flush_op_->for_merge) {
    flush_op_->for_merge = false;  // let the flush install normally
  }
}

void GroupEndpoint::abort_merge() {
  if (merge_leader_) merge_timeout();
}

void GroupEndpoint::on_merge_abort(const MergeAbortMsg& msg) {
  if (!merge_follow_ || merge_follow_->epoch != msg.merge_epoch) return;
  merge_follow_.reset();
  if (flush_op_ && flush_op_->for_merge) {
    flush_op_->for_merge = false;
  } else if (state_ == State::kStopped && is_acting_coordinator() &&
             !flush_op_) {
    // Already flushed for the aborted merge: re-form our own view now
    // rather than waiting for the watchdog.
    initiate_view_change(/*for_merge=*/false);
  }
}

}  // namespace plwg::vsync
