// Light-weight group protocol messages. These ride as payloads of the
// heavy-weight group's totally-ordered multicast, which doubles as the flush
// barrier of the LWG protocols: a protocol message is ordered against all
// DATA on the same HWG, so everything sent in an LWG view is delivered
// before the view-changing message that closes it. Each payload is one
// message in its envelope, [u8 M::kType][M's fields] (encode_envelope
// below); each message declares its tag (kType) next to its field list.
#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "lwg/lwg_view.hpp"
#include "util/codec.hpp"
#include "util/member_set.hpp"
#include "util/types.hpp"

namespace plwg::lwg {

/// The wire values of the message tags; each message names its own in kType.
enum class LwgMsgType : std::uint8_t {
  kData = 1,
  kJoin,        // joiner announces itself on the HWG
  kLeave,
  kView,        // LWG coordinator installs an LWG view
  kSwitch,      // coordinator starts switching the LWG to another HWG
  kSwitchReady, // member arrived on the target HWG
  kSwitched,    // forward pointer for stale joiners on the old HWG
  kRedirect,    // tells a stale joiner where the LWG went
  kMergeViews,  // paper Fig. 5: request the HWG flush that merges
  kAnnounce = 11,  // a member's mapped LWG views (V_p); 10 was ALL-VIEWS
};

/// DATA. `payload` is a span so one type serves both sides: the sender
/// points it at the bytes being sent, and the receive path decodes it as a
/// view of the delivered packet buffer (valid only for the duration of the
/// delivery upcall), so the user sees the wire bytes with no intermediate
/// copy.
struct DataMsg {
  LwgId lwg;
  ViewId lwg_view;  // delivery is filtered per LWG view (paper Sect. 5.1)
  std::span<const std::uint8_t> payload;

  static constexpr LwgMsgType kType = LwgMsgType::kData;
  static constexpr auto kFields =
      std::tuple{&DataMsg::lwg, &DataMsg::lwg_view, &DataMsg::payload};
};

struct JoinMsg {
  LwgId lwg;
  ProcessId joiner;

  static constexpr LwgMsgType kType = LwgMsgType::kJoin;
  static constexpr auto kFields = std::tuple{&JoinMsg::lwg, &JoinMsg::joiner};
};

struct LeaveMsg {
  LwgId lwg;
  ProcessId leaver;

  static constexpr LwgMsgType kType = LwgMsgType::kLeave;
  static constexpr auto kFields =
      std::tuple{&LeaveMsg::lwg, &LeaveMsg::leaver};
};

struct ViewMsg {
  LwgId lwg;
  LwgView view;
  std::vector<ViewId> predecessors;

  static constexpr LwgMsgType kType = LwgMsgType::kView;
  static constexpr auto kFields =
      std::tuple{&ViewMsg::lwg, &ViewMsg::view, &ViewMsg::predecessors};
};

struct SwitchMsg {
  LwgId lwg;
  ViewId lwg_view;   // the view being switched (flush barrier on old HWG)
  HwgId to_hwg;
  MemberSet contacts;  // processes to join the target HWG through

  static constexpr LwgMsgType kType = LwgMsgType::kSwitch;
  static constexpr auto kFields =
      std::tuple{&SwitchMsg::lwg, &SwitchMsg::lwg_view, &SwitchMsg::to_hwg,
                 &SwitchMsg::contacts};
};

struct SwitchReadyMsg {
  LwgId lwg;
  ViewId lwg_view;  // the old view the member is switching from
  ProcessId member;

  static constexpr LwgMsgType kType = LwgMsgType::kSwitchReady;
  static constexpr auto kFields =
      std::tuple{&SwitchReadyMsg::lwg, &SwitchReadyMsg::lwg_view,
                 &SwitchReadyMsg::member};
};

struct SwitchedMsg {
  LwgId lwg;
  HwgId to_hwg;
  MemberSet contacts;

  static constexpr LwgMsgType kType = LwgMsgType::kSwitched;
  static constexpr auto kFields = std::tuple{
      &SwitchedMsg::lwg, &SwitchedMsg::to_hwg, &SwitchedMsg::contacts};
};

struct RedirectMsg {
  LwgId lwg;
  ProcessId joiner;
  HwgId to_hwg;
  MemberSet contacts;

  static constexpr LwgMsgType kType = LwgMsgType::kRedirect;
  static constexpr auto kFields =
      std::tuple{&RedirectMsg::lwg, &RedirectMsg::joiner, &RedirectMsg::to_hwg,
                 &RedirectMsg::contacts};
};

struct MergeViewsMsg {
  static constexpr LwgMsgType kType = LwgMsgType::kMergeViews;
  static constexpr auto kFields = std::tuple{};
};

/// The ANNOUNCEs ordered in an HWG view serve both local peer discovery
/// (Step 3) and, as the collected set AV_p(hwg), the merge of the flush
/// that ends the view (Fig. 5, lines 109-114).
struct AnnounceMsg {
  std::vector<LwgViewInfo> views;

  static constexpr LwgMsgType kType = LwgMsgType::kAnnounce;
  static constexpr auto kFields = std::tuple{&AnnounceMsg::views};
};

/// `msg` as the payload of an HWG multicast: [u8 M::kType][M's fields].
template <class M>
std::vector<std::uint8_t> encode_envelope(const M& msg) {
  Encoder out;
  out.reserve(1 + encoded_size(msg));
  out.put_u8(static_cast<std::uint8_t>(M::kType));
  out.put(msg);
  return out.take();
}

}  // namespace plwg::lwg
