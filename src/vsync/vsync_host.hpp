// Per-process host of the heavy-weight group layer.
//
// Owns one GroupEndpoint per group this process participates in,
// demultiplexes Port::kVsync packets to them, provides the downcall half of
// the paper's Table 1 interface, and drives the shared periodic tick.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "durable/store.hpp"
#include "transport/node_runtime.hpp"
#include "util/types.hpp"
#include "vsync/config.hpp"
#include "vsync/group_endpoint.hpp"
#include "vsync/group_user.hpp"
#include "vsync/observer.hpp"

namespace plwg::vsync {

/// Builds a globally unique group id from its creator and a local counter.
[[nodiscard]] constexpr HwgId make_hwg_id(ProcessId creator,
                                          std::uint32_t counter) {
  return HwgId{(static_cast<std::uint64_t>(creator.value()) << 32) | counter};
}

class VsyncHost : public transport::PortHandler {
 public:
  /// `store` backs the view-seq and group-id counters so they survive a
  /// crash–restart of this process (see durable/store.hpp for why letting
  /// them die with the host is unsafe).
  VsyncHost(transport::NodeRuntime& node, VsyncConfig config,
            durable::ProcessStore& store);
  ~VsyncHost() override;
  VsyncHost(const VsyncHost&) = delete;
  VsyncHost& operator=(const VsyncHost&) = delete;

  /// Allocate a fresh globally-unique group id created by this process.
  [[nodiscard]] HwgId allocate_group_id();

  // --- Table 1 downcalls -------------------------------------------------
  /// Found a new group; installs the singleton view synchronously.
  void create_group(HwgId gid, GroupUser& user);
  /// Join `gid` through any of `contacts` (e.g. members published in the
  /// naming service). The View upcall signals completion.
  void join_group(HwgId gid, const MemberSet& contacts, GroupUser& user);
  void leave_group(HwgId gid);
  void send(HwgId gid, SharedBytes data);
  void stop_ok(HwgId gid);
  /// Force a flush + view re-installation with unchanged membership (no-op
  /// unless this process is the group's acting coordinator and idle).
  void force_flush(HwgId gid);

  // --- introspection -------------------------------------------------------
  [[nodiscard]] bool is_member(HwgId gid) const;
  [[nodiscard]] const View* view_of(HwgId gid) const;
  [[nodiscard]] GroupEndpoint* endpoint(HwgId gid);
  [[nodiscard]] const GroupEndpoint* endpoint(HwgId gid) const;
  [[nodiscard]] std::vector<HwgId> groups() const;
  [[nodiscard]] ProcessId self() const { return node_.process_id(); }
  [[nodiscard]] transport::NodeRuntime& node() { return node_; }
  [[nodiscard]] const VsyncConfig& config() const { return config_; }

  /// Protocol observer (the cross-node oracle); may be null. Not owned.
  void set_observer(VsyncObserver* observer) { observer_ = observer; }
  [[nodiscard]] VsyncObserver* observer() const { return observer_; }

  // --- used by GroupEndpoint ----------------------------------------------
  /// Send `msg` of group `gid` to `to`, in its envelope.
  template <class M>
  void send_group_msg(HwgId gid, ProcessId to, const M& msg) {
    node_.send(transport::Port::kVsync, transport::node_of(to),
               encode_envelope(frame_scratch_, gid, msg), class_of(M::kType));
  }
  /// Multicast `msg` of group `gid` to every process in `to`.
  template <class M>
  void multicast_group_msg(HwgId gid, const MemberSet& to, const M& msg) {
    node_.multicast(transport::Port::kVsync,
                    std::span<const ProcessId>(to.members()),
                    encode_envelope(frame_scratch_, gid, msg),
                    class_of(M::kType));
  }
  /// Next view-sequence number this process mints for `gid`. Lives at host
  /// scope — not in the endpoint — so a process that leaves a group and
  /// later rejoins it never reuses a (coordinator, seq) view id it already
  /// minted; stale packets tagged with a recycled id must stay stale.
  [[nodiscard]] std::uint32_t mint_view_seq(HwgId gid) {
    return ++store_.hwg_view_seqs[gid];
  }

  /// Protocol observer (the cross-node oracle) epoch hooks fire through the
  /// endpoints; exposed so a full-host teardown (process restart) can close
  /// every endpoint's delivery epoch first.
  [[nodiscard]] const auto& endpoints() const { return endpoints_; }

  // transport::PortHandler
  void on_message(NodeId from, Decoder& dec) override;

 private:
  /// Stability traffic — liveness, acknowledgement bounds, and flush votes
  /// — is tagged so the transport can report how much of it piggybacked on
  /// frames it shared with data instead of costing frames of its own.
  [[nodiscard]] static constexpr transport::MsgClass class_of(MsgType type) {
    switch (type) {
      case NackMsg::kType:
      case HeartbeatMsg::kType:
      case FlushAckMsg::kType:
      case FlushDoneMsg::kType:
        return transport::MsgClass::kAck;
      default:
        return transport::MsgClass::kData;
    }
  }
  void tick();
  void sweep_defunct();

  transport::NodeRuntime& node_;
  VsyncConfig config_;
  durable::ProcessStore& store_;       // not owned
  VsyncObserver* observer_ = nullptr;  // not owned
  std::unordered_map<HwgId, std::unique_ptr<GroupEndpoint>> endpoints_;
  bool dispatching_ = false;
  // Every outbound message is encoded here; safe because the transport
  // copies it into the destination's batch before returning and nothing
  // sends re-entrantly while a message is being encoded.
  Encoder frame_scratch_;
};

// GroupEndpoint's send helpers need the complete VsyncHost.
template <class M>
void GroupEndpoint::unicast(ProcessId to, const M& msg) {
  host_.send_group_msg(gid_, to, msg);
}

template <class M>
void GroupEndpoint::multicast(const MemberSet& to, const M& msg) {
  host_.multicast_group_msg(gid_, to, msg);
}

}  // namespace plwg::vsync
