// Configuration of the light-weight group service, including the paper's
// heuristic parameters (Fig. 1: k_m, k_c) and the mapping mode used to
// realize the Fig. 2 baselines.
#pragma once

#include "util/member_set.hpp"
#include "util/types.hpp"

namespace plwg::lwg {

enum class MappingMode {
  /// The paper's service: optimistic initial mapping + share / interference /
  /// shrink rules + switching + partition reconciliation.
  kDynamic,
  /// Baseline "static LWG service": every LWG is mapped onto one configured
  /// HWG shared by everybody (maximum sharing, maximum interference).
  kStaticSingle,
  /// Baseline "no LWG service": every user group gets its own HWG
  /// (no sharing, no interference).
  kPerGroup,
};

struct LwgConfig {
  MappingMode mode = MappingMode::kDynamic;

  /// Fig. 1 "minority" divisor: lwg is a minority of hwg iff
  /// |lwg| <= |hwg| / k_m. Paper prototype: 4.
  double k_m = 4.0;
  /// Fig. 1 "closeness" divisor: |hwg| - |lwg| <= |hwg| / k_c. Paper: 4.
  double k_c = 4.0;
  /// Period of the heuristic evaluation (paper prototype: once a minute).
  Duration policy_period_us = 60'000'000;
  /// Shrink rule delay: leave an HWG only after it has carried no local LWG
  /// for this long (avoids thrash while switches are in flight).
  Duration shrink_delay_us = 30'000'000;
  /// Act on MULTIPLE-MAPPINGS callbacks (paper Sect. 6.2). Disabled only in
  /// ablation experiments.
  bool reconcile_on_conflict = true;
  /// Run the Fig. 1 mapping heuristics (disabled for both baselines and in
  /// ablations).
  bool policies_enabled = true;

  /// kStaticSingle only: the shared HWG and who founds it.
  HwgId static_hwg;
  /// kStaticSingle only: processes to contact to join the shared HWG; the
  /// smallest listed process creates it.
  MemberSet static_contacts;
};

}  // namespace plwg::lwg
