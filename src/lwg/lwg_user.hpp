// The user-facing interface of a light-weight group service: the same
// virtually synchronous contract as the heavy-weight layer (paper Table 1),
// addressed by LwgId. Implemented by applications; all three services
// (dynamic, static, per-group baseline) deliver through it, which is what
// lets the paper's Fig. 2 comparison swap services under one workload.
#pragma once

#include <span>
#include <vector>

#include "lwg/lwg_view.hpp"
#include "util/types.hpp"

namespace plwg::lwg {

class LwgUser {
 public:
  virtual ~LwgUser() = default;

  /// A new view of the light-weight group was installed at this process.
  virtual void on_lwg_view(LwgId lwg, const LwgView& view) = 0;

  /// A multicast from `src`, delivered in the current LWG view.
  virtual void on_lwg_data(LwgId lwg, ProcessId src,
                           std::span<const std::uint8_t> data) = 0;

  /// Partition-merge notification ("deliver views and re-start groups",
  /// paper Fig. 5): `merged` folds the `constituents` that evolved in
  /// concurrent partitions. Called immediately after the on_lwg_view for
  /// `merged`, so state the application multicasts from here is delivered
  /// in the merged view at every member — the place to exchange and
  /// reconcile diverged replicas. May fire more than once per heal if the
  /// merge takes several rounds (stragglers); reconciliation should be
  /// idempotent. Default: no-op.
  virtual void on_lwg_merge(LwgId lwg, const std::vector<LwgView>& constituents,
                            const LwgView& merged) {
    (void)lwg;
    (void)constituents;
    (void)merged;
  }
};

/// A user that ignores every upcall: for members whose deliveries nobody
/// reads (formation in benches, scenarios and tests).
class NoopUser final : public LwgUser {
 public:
  void on_lwg_view(LwgId, const LwgView&) override {}
  void on_lwg_data(LwgId, ProcessId, std::span<const std::uint8_t>) override {}
};

/// The downcall half, common to the dynamic service and the baselines.
class GroupService {
 public:
  virtual ~GroupService() = default;

  /// Join (creating if needed) the light-weight group `lwg`.
  virtual void join(LwgId lwg, LwgUser& user) = 0;
  virtual void leave(LwgId lwg) = 0;
  /// Virtually synchronous multicast to the group.
  virtual void send(LwgId lwg, std::vector<std::uint8_t> data) = 0;
};

}  // namespace plwg::lwg
