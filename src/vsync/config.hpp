// Tunables of the heavy-weight group protocol.
#pragma once

#include "util/types.hpp"

namespace plwg::vsync {

struct VsyncConfig {
  /// A peer silent for longer than this is suspected (must be a few
  /// heartbeats; the heartbeat period is GroupEndpoint::kHeartbeatIntervalUs).
  Duration suspect_timeout_us = 1'000'000;
  /// Simulated CPU cost of processing one membership-protocol message
  /// (flush/ack/cut/new-view). Models the expensive protocol work of a view
  /// change on period hardware; 0 disables the charge. This is what makes
  /// per-group recovery cost scale with the number of groups in the Fig. 2
  /// recovery experiment.
  Duration membership_msg_cost_us = 0;

  /// The failure detector's one rule: suspicion is silence strictly longer
  /// than suspect_timeout_us (silence of exactly the timeout is tolerated).
  [[nodiscard]] constexpr bool suspects(Duration silence) const {
    return silence > suspect_timeout_us;
  }
};

}  // namespace plwg::vsync
