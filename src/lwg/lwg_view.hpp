// Light-weight group views.
//
// An LWG view mirrors the HWG view concept one level up: an identifier of
// the form (coordinator, sequence) plus a member set, and additionally the
// HWG the view is mapped onto. Concurrent LWG views arise both from network
// partitions and transiently while a healed partition is being reconciled.
#pragma once

#include <ostream>
#include <tuple>
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

  static constexpr auto kFields =
      std::tuple{&LwgView::id, &LwgView::members, &LwgView::hwg};

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

  static constexpr auto kFields = std::tuple{
      &LwgViewInfo::lwg, &LwgViewInfo::view, &LwgViewInfo::ancestors};
};

}  // namespace plwg::lwg
