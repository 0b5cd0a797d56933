// Wire messages of the heavy-weight group (vsync) protocol.
//
// Every packet on Port::kVsync is one message in its envelope (see
// encode_envelope below):
//   [HwgId gid][u8 M::kType][M's fields]
// Each message declares its tag (kType) next to its field list, and each
// body carries the ViewId it pertains to where relevant, so stale traffic
// from superseded views is filtered deterministically.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "util/codec.hpp"
#include "util/member_set.hpp"
#include "util/types.hpp"
#include "vsync/view.hpp"

namespace plwg::vsync {

/// The wire values of the message tags; each message names its own in kType.
enum class MsgType : std::uint8_t {
  kJoinReq = 1,
  kLeaveReq,
  kSendReq,      // sender -> sequencer (view coordinator)
  kOrdered,      // sequencer -> members, totally ordered
  kNack,         // member -> sequencer, missing seqs
  kHeartbeat,
  kFlushReq,     // view-change coordinator -> old-view members
  kFlushAck,     // member -> coordinator: have-list
  kFlushReject,  // member -> would-be coordinator: you are not legitimate
  kFetch,        // coordinator -> holder: send me these messages
  kFetchReply,
  kFlushCut,     // coordinator -> members: final delivery cut + retransmissions
  kFlushDone,    // member -> coordinator: cut fully delivered
  kNewView,
  kMergeProbe,   // coordinator -> known peers outside the view
  kMergeReply,
  kMergeStart,   // merge leader -> constituent coordinators
  kMergeFlushed, // constituent coordinator -> leader
  kMergeAbort,
};

/// One totally-ordered message as stored in the per-view log and carried by
/// kOrdered / retransmissions. A received payload is a slice of the frame it
/// arrived in, so logging, re-sending and delivering it copy no bytes.
struct OrderedMsg {
  std::uint64_t seq = 0;       // position in the view's total order
  ProcessId origin;            // original sender
  std::uint64_t sender_msg_id = 0;
  SharedBytes payload;

  static constexpr auto kFields =
      std::tuple{&OrderedMsg::seq, &OrderedMsg::origin,
                 &OrderedMsg::sender_msg_id, &OrderedMsg::payload};
};

struct JoinReqMsg {
  ProcessId joiner;

  static constexpr MsgType kType = MsgType::kJoinReq;
  static constexpr auto kFields = std::tuple{&JoinReqMsg::joiner};
};

struct LeaveReqMsg {
  ProcessId leaver;

  static constexpr MsgType kType = MsgType::kLeaveReq;
  static constexpr auto kFields = std::tuple{&LeaveReqMsg::leaver};
};

struct SendReqMsg {
  ViewId view;
  ProcessId origin;
  std::uint64_t sender_msg_id = 0;
  /// The sender's smallest not-yet-self-delivered message id. The sequencer
  /// holds a request back until everything between `first_unacked` and
  /// `sender_msg_id` is ordered, which preserves per-sender FIFO even when
  /// an earlier SEND_REQ was lost and retransmitted late.
  std::uint64_t first_unacked = 0;
  SharedBytes payload;

  static constexpr MsgType kType = MsgType::kSendReq;
  static constexpr auto kFields =
      std::tuple{&SendReqMsg::view, &SendReqMsg::origin,
                 &SendReqMsg::sender_msg_id, &SendReqMsg::first_unacked,
                 &SendReqMsg::payload};
};

struct OrderedMsgWire {
  ViewId view;
  /// The sequencer's stability floor at send time, piggybacked so steady
  /// data traffic keeps everyone's log-trim bound fresh without dedicated
  /// stability messages. Every seq <= stable_upto is delivered everywhere.
  std::uint64_t stable_upto = 0;
  OrderedMsg msg;

  static constexpr MsgType kType = MsgType::kOrdered;
  static constexpr auto kFields =
      std::tuple{&OrderedMsgWire::view, &OrderedMsgWire::stable_upto,
                 &OrderedMsgWire::msg};
};

struct NackMsg {
  ViewId view;
  std::vector<std::uint64_t> missing;

  static constexpr MsgType kType = MsgType::kNack;
  static constexpr auto kFields = std::tuple{&NackMsg::view, &NackMsg::missing};
};

struct HeartbeatMsg {
  ViewId view;
  ProcessId sender;
  /// The sequencer's high-water mark (last sequence number assigned).
  /// Non-sequencer members send 0. Receivers use it to NACK tail losses
  /// that no later message would reveal.
  std::uint64_t max_seq = 0;
  /// Sender's contiguous-delivery prefix. The sequencer folds these into the
  /// view-wide stability floor, so acks ride the liveness traffic instead of
  /// costing frames of their own.
  std::uint64_t delivered_upto = 0;
  /// The sequencer's stability floor (only meaningful from the coordinator;
  /// others echo what they last heard). Everything <= this is delivered at
  /// every member and safe to trim from retransmission logs.
  std::uint64_t stable_upto = 0;

  static constexpr MsgType kType = MsgType::kHeartbeat;
  static constexpr auto kFields =
      std::tuple{&HeartbeatMsg::view, &HeartbeatMsg::sender,
                 &HeartbeatMsg::max_seq, &HeartbeatMsg::delivered_upto,
                 &HeartbeatMsg::stable_upto};
};

struct FlushReqMsg {
  ViewId old_view;
  std::uint32_t epoch = 0;
  ProcessId initiator;
  MemberSet proposal;  // membership of the view being prepared

  static constexpr MsgType kType = MsgType::kFlushReq;
  static constexpr auto kFields =
      std::tuple{&FlushReqMsg::old_view, &FlushReqMsg::epoch,
                 &FlushReqMsg::initiator, &FlushReqMsg::proposal};
};

struct FlushAckMsg {
  ViewId old_view;
  std::uint32_t epoch = 0;
  ProcessId sender;
  std::vector<std::uint64_t> have;  // every seq received in old_view

  static constexpr MsgType kType = MsgType::kFlushAck;
  static constexpr auto kFields =
      std::tuple{&FlushAckMsg::old_view, &FlushAckMsg::epoch,
                 &FlushAckMsg::sender, &FlushAckMsg::have};
};

struct FlushRejectMsg {
  ViewId old_view;
  std::uint32_t epoch = 0;
  ProcessId sender;
  MemberSet suspected;  // rejector's suspicion set, to help convergence

  static constexpr MsgType kType = MsgType::kFlushReject;
  static constexpr auto kFields =
      std::tuple{&FlushRejectMsg::old_view, &FlushRejectMsg::epoch,
                 &FlushRejectMsg::sender, &FlushRejectMsg::suspected};
};

struct FetchMsg {
  ViewId old_view;
  std::uint32_t epoch = 0;
  std::vector<std::uint64_t> seqs;

  static constexpr MsgType kType = MsgType::kFetch;
  static constexpr auto kFields =
      std::tuple{&FetchMsg::old_view, &FetchMsg::epoch, &FetchMsg::seqs};
};

struct FetchReplyMsg {
  ViewId old_view;
  std::uint32_t epoch = 0;
  std::vector<OrderedMsg> msgs;

  static constexpr MsgType kType = MsgType::kFetchReply;
  static constexpr auto kFields =
      std::tuple{&FetchReplyMsg::old_view, &FetchReplyMsg::epoch,
                 &FetchReplyMsg::msgs};
};

struct FlushCutMsg {
  ViewId old_view;
  std::uint32_t epoch = 0;
  std::vector<std::uint64_t> cut;    // ordered seqs every survivor delivers
  std::vector<OrderedMsg> retrans;   // contents for anyone missing them

  static constexpr MsgType kType = MsgType::kFlushCut;
  static constexpr auto kFields =
      std::tuple{&FlushCutMsg::old_view, &FlushCutMsg::epoch, &FlushCutMsg::cut,
                 &FlushCutMsg::retrans};
};

struct FlushDoneMsg {
  ViewId old_view;
  std::uint32_t epoch = 0;
  ProcessId sender;

  static constexpr MsgType kType = MsgType::kFlushDone;
  static constexpr auto kFields =
      std::tuple{&FlushDoneMsg::old_view, &FlushDoneMsg::epoch,
                 &FlushDoneMsg::sender};
};

struct NewViewMsg {
  View view;
  /// Voluntary leavers in this change: receivers drop them from the merge
  /// probe target set (crash/partition exclusions stay probeable).
  MemberSet departed;

  static constexpr MsgType kType = MsgType::kNewView;
  static constexpr auto kFields =
      std::tuple{&NewViewMsg::view, &NewViewMsg::departed};
};

struct MergeProbeMsg {
  ViewId view;
  ProcessId sender;  // acting coordinator of `view`
  MemberSet members;

  static constexpr MsgType kType = MsgType::kMergeProbe;
  static constexpr auto kFields =
      std::tuple{&MergeProbeMsg::view, &MergeProbeMsg::sender,
                 &MergeProbeMsg::members};
};

/// MERGE_PROBE's answer: the same fields, the opposite direction.
struct MergeReplyMsg : MergeProbeMsg {
  static constexpr MsgType kType = MsgType::kMergeReply;
};

struct MergeStartMsg {
  std::uint32_t merge_epoch = 0;
  ProcessId leader;
  std::vector<ViewId> parties;

  static constexpr MsgType kType = MsgType::kMergeStart;
  static constexpr auto kFields =
      std::tuple{&MergeStartMsg::merge_epoch, &MergeStartMsg::leader,
                 &MergeStartMsg::parties};
};

struct MergeFlushedMsg {
  std::uint32_t merge_epoch = 0;
  ViewId view;              // the constituent view that finished flushing
  ProcessId sender;
  MemberSet members;        // its surviving members

  static constexpr MsgType kType = MsgType::kMergeFlushed;
  static constexpr auto kFields =
      std::tuple{&MergeFlushedMsg::merge_epoch, &MergeFlushedMsg::view,
                 &MergeFlushedMsg::sender, &MergeFlushedMsg::members};
};

struct MergeAbortMsg {
  std::uint32_t merge_epoch = 0;

  static constexpr MsgType kType = MsgType::kMergeAbort;
  static constexpr auto kFields = std::tuple{&MergeAbortMsg::merge_epoch};
};

/// Writes `msg` into `out` (cleared first) as one Port::kVsync packet of
/// group `gid`: [HwgId gid][u8 M::kType][M's fields].
template <class M>
const Encoder& encode_envelope(Encoder& out, HwgId gid, const M& msg) {
  out.clear();
  out.put(gid);
  out.put_u8(static_cast<std::uint8_t>(M::kType));
  out.put(msg);
  return out;
}

}  // namespace plwg::vsync
