// Light-weight group views.
//
// An LWG view mirrors the HWG view concept one level up: an identifier of
// the form (coordinator, sequence) plus a member set, and additionally the
// HWG the view is mapped onto. Concurrent LWG views arise both from network
// partitions and transiently while a healed partition is being reconciled.
#pragma once

#include <ostream>
#include <vector>

#include "util/codec.hpp"
#include "util/member_set.hpp"
#include "util/types.hpp"
#include "vsync/view.hpp"

namespace plwg::lwg {

using ViewId = vsync::ViewId;

struct LwgView {
  ViewId id;
  MemberSet members;
  HwgId hwg;  // the heavy-weight group this view is mapped onto

  /// Deterministic LWG coordinator: smallest member.
  [[nodiscard]] ProcessId coordinator() const { return members.min_member(); }

  void encode(Encoder& enc) const {
    id.encode(enc);
    members.encode(enc);
    enc.put_id(hwg);
  }
  /// Exact encode() output size, for Encoder::reserve().
  [[nodiscard]] std::size_t encoded_size_hint() const {
    return ViewId::kEncodedSize + members.encoded_size() + 8;
  }
  static LwgView decode(Decoder& dec) {
    LwgView v;
    v.id = ViewId::decode(dec);
    v.members = MemberSet::decode(dec);
    v.hwg = dec.get_id<HwgId>();
    return v;
  }

  friend bool operator==(const LwgView&, const LwgView&) = default;
};

std::ostream& operator<<(std::ostream& os, const LwgView& view);

/// Compact (lwg, view) record carried by ANNOUNCE, the merge-views payload
/// (paper Fig. 5's ALL-VIEWS / MAPPED-VIEWS). It carries the
/// holder's view *ancestry* so every collector can decide supersession
/// canonically — from the collected evidence alone, not from local state
/// that may differ between a straggler and already-merged members.
struct LwgViewInfo {
  LwgId lwg;
  LwgView view;
  std::vector<ViewId> ancestors;

  void encode(Encoder& enc) const {
    enc.put_id(lwg);
    view.encode(enc);
    enc.put_u32(static_cast<std::uint32_t>(ancestors.size()));
    for (const ViewId& a : ancestors) a.encode(enc);
  }
  [[nodiscard]] std::size_t encoded_size_hint() const {
    return 8 + view.encoded_size_hint() + 4 +
           ViewId::kEncodedSize * ancestors.size();
  }
  static LwgViewInfo decode(Decoder& dec) {
    LwgViewInfo info;
    info.lwg = dec.get_id<LwgId>();
    info.view = LwgView::decode(dec);
    const std::uint32_t n = dec.get_count(12);
    info.ancestors.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      info.ancestors.push_back(ViewId::decode(dec));
    }
    return info;
  }
};

}  // namespace plwg::lwg
