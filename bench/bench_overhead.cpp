// Wire-overhead accounting: bytes added by each protocol layer around a
// user payload, plus the sizes of the control messages that dominate flush
// and reconciliation traffic. These are the message-size inputs behind the
// bus model's contention numbers.
#include <cstdio>
#include <iostream>

#include "lwg/messages.hpp"
#include "metrics/stats.hpp"
#include "names/messages.hpp"
#include "vsync/messages.hpp"

namespace plwg::bench {
namespace {

MemberSet members(std::uint32_t n) {
  MemberSet set;
  for (std::uint32_t i = 0; i < n; ++i) set.insert(ProcessId{i});
  return set;
}

/// Bytes of `msg` in its vsync packet, plus the transport's port byte.
template <class Msg>
std::size_t framed_size(const Msg& msg) {
  Encoder enc;
  return vsync::encode_envelope(enc, HwgId{1}, msg).size() + 1;
}

std::size_t lwg_data_size(std::size_t payload) {
  const std::vector<std::uint8_t> bytes(payload, 0);
  return lwg::encode_envelope(
             lwg::DataMsg{LwgId{1}, vsync::ViewId{ProcessId{0}, 1}, bytes})
      .size();
}

std::size_t vsync_ordered_size(std::size_t inner) {
  vsync::OrderedMsgWire wire;
  wire.view = vsync::ViewId{ProcessId{0}, 1};
  wire.msg.payload = std::vector<std::uint8_t>(inner, 0);
  return framed_size(wire);
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  constexpr std::size_t kEthernetHeader = 46;

  std::printf("# Per-layer wire overhead around a user payload\n");
  metrics::Table table({"user-payload-B", "lwg-layer-B", "on-wire-B",
                        "overhead-B", "overhead-pct"});
  for (std::size_t payload : {0ul, 64ul, 256ul, 1024ul}) {
    const std::size_t lwg_bytes = lwg_data_size(payload);
    const std::size_t wire = vsync_ordered_size(lwg_bytes) + kEthernetHeader;
    const std::size_t overhead = wire - payload;
    table.add_row(
        {std::to_string(payload), std::to_string(lwg_bytes),
         std::to_string(wire), std::to_string(overhead),
         payload == 0
             ? "-"
             : metrics::Table::fmt(100.0 * static_cast<double>(overhead) /
                                       static_cast<double>(payload),
                                   0) + "%"});
  }
  table.print(std::cout);

  std::printf("\n# Control-message sizes (8-member group, before the "
              "Ethernet header)\n");
  metrics::Table ctrl({"message", "bytes"});
  const vsync::ViewId vid{ProcessId{0}, 3};
  {
    vsync::HeartbeatMsg m{vid, ProcessId{0}, 42};
    ctrl.add_row({"HEARTBEAT", std::to_string(framed_size(m))});
  }
  {
    vsync::FlushReqMsg m{vid, 1, ProcessId{0}, members(8)};
    ctrl.add_row({"FLUSH_REQ", std::to_string(framed_size(m))});
  }
  {
    vsync::FlushAckMsg m{vid, 1, ProcessId{1}, {1, 2, 3, 4, 5, 6, 7, 8}};
    ctrl.add_row({"FLUSH_ACK (8 msgs)", std::to_string(framed_size(m))});
  }
  {
    vsync::NewViewMsg m;
    m.view.id = vid;
    m.view.members = members(8);
    m.view.predecessors = {vid};
    ctrl.add_row({"NEW_VIEW", std::to_string(framed_size(m))});
  }
  {
    vsync::MergeProbeMsg m{vid, ProcessId{0}, members(8)};
    ctrl.add_row({"MERGE_PROBE", std::to_string(framed_size(m))});
  }
  {
    names::SetReqMsg m;
    m.req_id = 1;
    m.lwg = LwgId{1};
    m.entry.lwg_view = vid;
    m.entry.lwg_members = members(4);
    m.entry.hwg = HwgId{1};
    m.entry.hwg_view = vid;
    m.entry.hwg_members = members(8);
    ctrl.add_row({"ns.set (4-member lwg)",
                  std::to_string(names::encode_envelope(m).size() + 1)});
  }
  ctrl.print(std::cout);
  return 0;
}
