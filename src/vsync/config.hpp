// Tunables of the heavy-weight group protocol.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/types.hpp"

namespace plwg::vsync {

/// Which failure detector drives GroupEndpoint::update_suspicions.
enum class DetectorKind : std::uint8_t {
  /// Fixed threshold: suspect after suspect_timeout_us of silence. The
  /// deterministic default — zero history, zero surprises.
  kFixedTimeout = 0,
  /// Phi-accrual style: learn each peer's inter-arrival distribution and
  /// suspect when the current silence is statistically implausible
  /// (phi >= a fixed threshold), clamped to a fixed [min, max] silence.
  /// Adapts to jittery or stall-prone peers instead of flapping on them.
  kPhiAccrual = 1,
};

struct VsyncConfig {
  /// A peer silent for this long is suspected (must be a few heartbeats;
  /// the heartbeat period is GroupEndpoint::kHeartbeatIntervalUs).
  Duration suspect_timeout_us = 1'000'000;
  /// Failure-detector selection (docs/TUNING.md). The phi detector's
  /// threshold and bounds are constants of PhiAccrualDetector.
  DetectorKind detector = DetectorKind::kFixedTimeout;
  /// Inter-arrival samples remembered per peer.
  std::size_t detector_window = 32;
  /// Simulated CPU cost of processing one membership-protocol message
  /// (flush/ack/cut/new-view). Models the expensive protocol work of a view
  /// change on period hardware; 0 disables the charge. This is what makes
  /// per-group recovery cost scale with the number of groups in the Fig. 2
  /// recovery experiment.
  Duration membership_msg_cost_us = 0;
};

}  // namespace plwg::vsync
