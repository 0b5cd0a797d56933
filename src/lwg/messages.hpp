// Light-weight group protocol messages. These ride as payloads of the
// heavy-weight group's totally-ordered multicast, which doubles as the flush
// barrier of the LWG protocols: a protocol message is ordered against all
// DATA on the same HWG, so everything sent in an LWG view is delivered
// before the view-changing message that closes it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lwg/lwg_view.hpp"
#include "util/codec.hpp"
#include "util/member_set.hpp"
#include "util/types.hpp"

namespace plwg::lwg {

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

struct DataMsg {
  LwgId lwg;
  ViewId lwg_view;  // delivery is filtered per LWG view (paper Sect. 5.1)
  std::vector<std::uint8_t> payload;

  void encode(Encoder& enc) const;
  static DataMsg decode(Decoder& dec);
  [[nodiscard]] std::size_t encoded_size_hint() const {
    return 8 + ViewId::kEncodedSize + 4 + payload.size();
  }
};

/// Zero-copy decode of a DataMsg: `payload` aliases the Decoder's input
/// buffer and is valid only for the duration of the delivery upcall. The
/// hot DATA receive path uses this so the user sees the wire bytes with no
/// intermediate vector copy.
struct DataMsgView {
  LwgId lwg;
  ViewId lwg_view;
  std::span<const std::uint8_t> payload;

  static DataMsgView decode(Decoder& dec);
};

struct JoinMsg {
  LwgId lwg;
  ProcessId joiner;

  void encode(Encoder& enc) const;
  static JoinMsg decode(Decoder& dec);
  [[nodiscard]] std::size_t encoded_size_hint() const {
    return 12;
  }
};

struct LeaveMsg {
  LwgId lwg;
  ProcessId leaver;

  void encode(Encoder& enc) const;
  static LeaveMsg decode(Decoder& dec);
  [[nodiscard]] std::size_t encoded_size_hint() const {
    return 12;
  }
};

struct ViewMsg {
  LwgId lwg;
  LwgView view;
  std::vector<ViewId> predecessors;

  void encode(Encoder& enc) const;
  static ViewMsg decode(Decoder& dec);
  [[nodiscard]] std::size_t encoded_size_hint() const {
    return 8 + view.encoded_size_hint() + 4 +
           ViewId::kEncodedSize * predecessors.size();
  }
};

struct SwitchMsg {
  LwgId lwg;
  ViewId lwg_view;   // the view being switched (flush barrier on old HWG)
  HwgId to_hwg;
  MemberSet contacts;  // processes to join the target HWG through

  void encode(Encoder& enc) const;
  static SwitchMsg decode(Decoder& dec);
  [[nodiscard]] std::size_t encoded_size_hint() const {
    return 8 + ViewId::kEncodedSize + 8 + contacts.encoded_size();
  }
};

struct SwitchReadyMsg {
  LwgId lwg;
  ViewId lwg_view;  // the old view the member is switching from
  ProcessId member;

  void encode(Encoder& enc) const;
  static SwitchReadyMsg decode(Decoder& dec);
  [[nodiscard]] std::size_t encoded_size_hint() const {
    return 8 + ViewId::kEncodedSize + 4;
  }
};

struct SwitchedMsg {
  LwgId lwg;
  HwgId to_hwg;
  MemberSet contacts;

  void encode(Encoder& enc) const;
  static SwitchedMsg decode(Decoder& dec);
  [[nodiscard]] std::size_t encoded_size_hint() const {
    return 16 + contacts.encoded_size();
  }
};

struct RedirectMsg {
  LwgId lwg;
  ProcessId joiner;
  HwgId to_hwg;
  MemberSet contacts;

  void encode(Encoder& enc) const;
  static RedirectMsg decode(Decoder& dec);
  [[nodiscard]] std::size_t encoded_size_hint() const {
    return 20 + contacts.encoded_size();
  }
};

struct MergeViewsMsg {
  void encode(Encoder&) const {}
  static MergeViewsMsg decode(Decoder&) { return {}; }
};

/// The ANNOUNCEs ordered in an HWG view serve both local peer discovery
/// (Step 3) and, as the collected set AV_p(hwg), the merge of the flush
/// that ends the view (Fig. 5, lines 109-114).
struct AnnounceMsg {
  std::vector<LwgViewInfo> views;

  void encode(Encoder& enc) const;
  static AnnounceMsg decode(Decoder& dec);
  [[nodiscard]] std::size_t encoded_size_hint() const {
    std::size_t n = 4;
    for (const LwgViewInfo& v : views) n += v.encoded_size_hint();
    return n;
  }
};

}  // namespace plwg::lwg
