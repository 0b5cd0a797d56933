// GroupEndpoint data path: sequencer-based totally-ordered multicast with
// NACK repair.
//
// The sequencer is the *view coordinator* (smallest member of the installed
// view) and is fixed for the lifetime of the view: if it becomes suspected,
// sends queue locally until the next view. This keeps the total order
// single-writer — two sequencers can never assign the same sequence number
// in one view.
#include "vsync/group_endpoint.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/backoff.hpp"
#include "util/log.hpp"
#include "vsync/vsync_host.hpp"

namespace plwg::vsync {

void GroupEndpoint::submit_send(SharedBytes payload) {
  if (!has_view_ || state_ != State::kActive ||
      suspected_.contains(view_.coordinator())) {
    pending_sends_.push_back(std::move(payload));
    return;
  }
  const std::uint64_t smid = next_sender_msg_id_++;
  unacked_sends_.push_back(UnackedSend{smid, payload, now()});
  if (view_.coordinator() == self()) {
    order_and_multicast(self(), smid, std::move(payload), smid);
    return;
  }
  unicast(view_.coordinator(),
          SendReqMsg{view_.id, self(), smid, unacked_sends_.front().smid,
                     std::move(payload)});
}

void GroupEndpoint::ack_own_send(std::uint64_t smid) {
  if (unacked_sends_.empty() || smid < unacked_sends_.front().smid) return;
  const std::uint64_t index = smid - unacked_sends_.front().smid;
  if (index >= unacked_sends_.size()) return;
  UnackedSend& send = unacked_sends_[index];
  send.delivered = true;
  send.payload = {};
  while (!unacked_sends_.empty() && unacked_sends_.front().delivered) {
    unacked_sends_.pop_front();
  }
}

void GroupEndpoint::resend_unacked(bool force) {
  if (!has_view_ || state_ != State::kActive ||
      suspected_.contains(view_.coordinator())) {
    return;
  }
  const Time t = now();
  const Duration base = 3 * kNackCheckUs;
  for (UnackedSend& send : unacked_sends_) {
    if (send.delivered) continue;
    const std::uint64_t smid = send.smid;
    // Per-send capped backoff: a message the sequencer keeps not acking is
    // evidence the sequencer (or the path to it) is degraded — repair
    // retries slow down instead of piling on. A view change re-submits
    // with a fresh cadence (force resets the attempt count).
    const Duration interval = backoff_delay(base, send.attempts,
                                            kRetryBackoffCapUs,
                                            backoff_salt() ^ smid);
    if (!force && t - send.last_sent < interval) continue;
    send.last_sent = t;
    send.attempts = force ? 1 : std::min<std::uint32_t>(send.attempts + 1, 32);
    if (view_.coordinator() == self()) {
      // ordered_ de-duplicates if the original made it through.
      order_and_multicast(self(), smid, send.payload,
                          unacked_sends_.front().smid);
    } else {
      unicast(view_.coordinator(),
              SendReqMsg{view_.id, self(), smid, unacked_sends_.front().smid,
                         send.payload});
    }
  }
}

void GroupEndpoint::order_and_multicast(ProcessId origin,
                                        std::uint64_t sender_msg_id,
                                        SharedBytes payload,
                                        std::uint64_t first_unacked) {
  PLWG_ASSERT(view_.coordinator() == self());
  if (state_ != State::kActive) {
    // A flush is underway: hold the message for the next view.
    resequence_queue_.push_back(
        SendReqMsg{view_.id, origin, sender_msg_id, first_unacked,
                   std::move(payload)});
    return;
  }
  OriginOrder& order = ordered_[origin];
  if (origin == self() && !unacked_sends_.empty()) {
    order.raise(unacked_sends_.front().smid);
  }
  if (!order.insert(sender_msg_id)) {
    return;  // duplicate of a retransmitted send already in the order
  }
  OrderedMsgWire wire;
  wire.view = view_.id;
  wire.stable_upto = stable_upto_;
  wire.msg.seq = next_order_seq_++;
  wire.msg.origin = origin;
  wire.msg.sender_msg_id = sender_msg_id;
  wire.msg.payload = std::move(payload);
  // Multicast includes self: the sequencer's own copy arrives through the
  // loopback path so delivery is uniform at every member.
  multicast(view_.members, wire);
  // ORDERED traffic feeds every member's failure detector (note_heard) and
  // carries the stability floor, so it IS a heartbeat: suppress the
  // dedicated one while data flows and it costs nothing extra.
  last_heartbeat_sent_ = now();
}

void GroupEndpoint::on_send_req(SendReqMsg msg) {
  if (!view_matches(msg.view)) return;
  if (view_.coordinator() != self()) return;  // stale routing
  OriginOrder& order = ordered_[msg.origin];
  order.raise(msg.first_unacked);
  if (order.ordered(msg.sender_msg_id)) return;
  if (order.ordered(msg.sender_msg_id - 1) &&
      !order_buffer_.contains(msg.origin)) {
    // In FIFO order with nothing of this origin held back: what the hold-back
    // buffer would do at once, without passing through it.
    order_and_multicast(msg.origin, msg.sender_msg_id, std::move(msg.payload),
                        msg.first_unacked);
    return;
  }
  auto [it, inserted] =
      order_buffer_[msg.origin].try_emplace(msg.sender_msg_id, msg);
  if (!inserted && msg.first_unacked > it->second.first_unacked) {
    // A retransmission carries fresher progress information; without the
    // refresh a stale first_unacked could hold the message back forever.
    it->second = msg;
  }
  drain_order_buffer(msg.origin);
}

std::size_t GroupEndpoint::held_send_reqs() const {
  std::size_t n = 0;
  for (const auto& [origin, pending] : order_buffer_) n += pending.size();
  return n;
}

void GroupEndpoint::drain_order_buffer(ProcessId origin) {
  auto it = order_buffer_.find(origin);
  if (it == order_buffer_.end()) return;
  auto& pending = it->second;
  const OriginOrder& order = ordered_[origin];
  while (!pending.empty()) {
    auto first = pending.begin();
    const std::uint64_t smid = first->first;
    // Orderable iff nothing from this sender can still precede it: its
    // predecessor has been ordered in this view, or lies below the
    // watermark the sender's first_unacked raised (this smid is then the
    // sender's first outstanding message).
    if (!order.ordered(smid - 1)) break;
    SendReqMsg taken = std::move(first->second);
    pending.erase(first);
    order_and_multicast(origin, smid, std::move(taken.payload),
                        taken.first_unacked);
  }
  if (pending.empty()) order_buffer_.erase(it);
}

void GroupEndpoint::OriginOrder::raise(std::uint64_t first_unacked) {
  if (first_unacked <= next) return;
  next = first_unacked;
  ahead.erase(ahead.begin(), ahead.lower_bound(next));
  while (!ahead.empty() && *ahead.begin() == next) {
    ahead.erase(ahead.begin());
    ++next;
  }
}

bool GroupEndpoint::OriginOrder::insert(std::uint64_t smid) {
  if (ordered(smid)) return false;
  if (smid == next) {
    raise(smid + 1);
  } else {
    ahead.insert(smid);
  }
  return true;
}

void GroupEndpoint::on_ordered(OrderedMsgWire wire) {
  if (!view_matches(wire.view)) return;
  const std::uint64_t seq = wire.msg.seq;
  max_seen_ = std::max(max_seen_, seq);
  stable_upto_ = std::max(stable_upto_, wire.stable_upto);
  msg_log_.insert(std::move(wire.msg));
  // Delivery continues while the user is being stopped, but freezes once the
  // FLUSH_ACK (our have-list) is out: anything delivered after that point
  // might not be in the coordinator's cut.
  const bool frozen = part_flush_ && part_flush_->ack_sent;
  if (!frozen) deliver_contiguous();
}

void GroupEndpoint::deliver_contiguous() {
  while (true) {
    const OrderedMsg* msg = msg_log_.find(delivered_upto_ + 1);
    if (msg == nullptr) break;
    ++delivered_upto_;
    if (cut_delivered_.empty() || cut_delivered_.erase(delivered_upto_) == 0) {
      deliver_one(*msg);
      if (defunct()) return;
    }
  }
}

void GroupEndpoint::deliver_one(const OrderedMsg& msg) {
  if (msg.origin == self()) ack_own_send(msg.sender_msg_id);
  stats_.msgs_delivered++;
  // During a cut delivery view_.id is still the closing view — exactly the
  // view this delivery belongs to under virtual synchrony.
  if (auto* obs = host_.observer()) {
    obs->on_hwg_delivered(self(), gid_, view_.id, msg.seq, msg.origin,
                          msg.sender_msg_id, msg.payload);
  }
  user_.on_data(gid_, msg.origin, msg.payload);
}

void GroupEndpoint::check_nacks() {
  if (!has_view_ || state_ != State::kActive) return;
  if (view_.coordinator() == self()) return;
  if (suspected_.contains(view_.coordinator())) return;
  std::vector<std::uint64_t> missing;
  for (std::uint64_t s = delivered_upto_ + 1; s <= max_seen_; ++s) {
    if (!msg_log_.contains(s)) missing.push_back(s);
  }
  if (missing.empty()) return;
  stats_.nacks_sent++;
  unicast(view_.coordinator(), NackMsg{view_.id, std::move(missing)});
}

void GroupEndpoint::on_nack(ProcessId from, const NackMsg& msg) {
  if (!view_matches(msg.view)) return;
  if (view_.coordinator() != self()) return;
  for (std::uint64_t seq : msg.missing) {
    // A NACKed seq below the stability floor cannot happen (the NACKer's own
    // delivery bound is folded into the floor before the log is trimmed), so
    // a log miss here means the message is simply not ordered yet.
    const OrderedMsg* logged = msg_log_.find(seq);
    if (logged == nullptr) continue;
    OrderedMsgWire wire{view_.id, stable_upto_, *logged};
    unicast(from, wire);
  }
}

void GroupEndpoint::on_heartbeat(const HeartbeatMsg& hb) {
  if (!view_matches(hb.view)) return;
  if (const std::optional<std::size_t> rank = rank_of(hb.sender)) {
    std::uint64_t& floor = delivery_floor_[*rank];
    floor = std::max(floor, hb.delivered_upto);
  }
  if (hb.sender == view_.coordinator()) {
    // The sequencer's advertised high-water mark exposes tail losses to the
    // NACK-based repair; its stability floor bounds our log GC.
    max_seen_ = std::max(max_seen_, hb.max_seq);
    stable_upto_ = std::max(stable_upto_, hb.stable_upto);
  }
  if (view_.coordinator() == self()) update_stability_floor();
}

void GroupEndpoint::update_stability_floor() {
  if (!has_view_ || view_.coordinator() != self()) return;
  std::uint64_t floor = delivered_upto_;
  const auto& members = view_.members.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] != self()) floor = std::min(floor, delivery_floor_[i]);
  }
  stable_upto_ = std::max(stable_upto_, floor);
}

void GroupEndpoint::trim_stable_log() {
  // Trimming is frozen during any view change: FLUSH_ACK have-lists and the
  // delivery cut are computed from the logs as they stood when the flush
  // began, and the initiator's union must stay fetchable.
  if (!has_view_ || state_ != State::kActive || part_flush_ || flush_op_) {
    return;
  }
  const std::uint64_t to = std::min(stable_upto_, delivered_upto_);
  if (to <= trimmed_upto_) return;
  stats_.log_trimmed += msg_log_.trim_upto(to);
  trimmed_upto_ = to;
}

void GroupEndpoint::flush_pending_sends() {
  while (!pending_sends_.empty() && has_view_ && state_ == State::kActive &&
         !suspected_.contains(view_.coordinator())) {
    SharedBytes payload = std::move(pending_sends_.front());
    pending_sends_.pop_front();
    submit_send(std::move(payload));
  }
}

}  // namespace plwg::vsync
