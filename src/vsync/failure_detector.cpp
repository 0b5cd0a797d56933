#include "vsync/failure_detector.hpp"

#include <algorithm>
#include <cmath>

namespace plwg::vsync {

PhiAccrualDetector::PhiAccrualDetector(const VsyncConfig& cfg)
    : fallback_timeout_us_(cfg.suspect_timeout_us),
      window_size_(std::max<std::size_t>(cfg.detector_window, kMinSamples)) {}

void PhiAccrualDetector::heard(ProcessId p, Time t) {
  History& h = peers_[p.value()];
  if (h.window.empty()) h.window.assign(window_size_, 0);
  if (h.last_arrival >= 0) {
    const Duration interval = t - h.last_arrival;
    // Several messages often land in the same event round (one coalesced
    // frame); zero-width intervals say nothing about the peer's heartbeat
    // cadence and would only collapse the fitted mean toward zero.
    if (interval > 0) {
      if (h.count == h.window.size()) {
        const auto evicted = static_cast<double>(h.window[h.next]);
        h.sum -= evicted;
        h.sum_sq -= evicted * evicted;
      } else {
        h.count++;
      }
      h.window[h.next] = interval;
      h.next = (h.next + 1) % h.window.size();
      const auto v = static_cast<double>(interval);
      h.sum += v;
      h.sum_sq += v * v;
    }
  }
  h.last_arrival = std::max(h.last_arrival, t);
}

double PhiAccrualDetector::phi(ProcessId p, Duration elapsed) const {
  const auto it = peers_.find(p.value());
  if (it == peers_.end() || it->second.count < kMinSamples) return 0.0;
  const History& h = it->second;
  const auto n = static_cast<double>(h.count);
  const double mean = h.sum / n;
  const double var = std::max(h.sum_sq / n - mean * mean, 0.0);
  // Floor the deviation: a metronomic peer would otherwise produce a
  // near-zero sigma and an effectively fixed (and hair-trigger) threshold.
  const double sigma = std::max({std::sqrt(var), mean * 0.1, 1000.0});
  const double z = (static_cast<double>(elapsed) - mean) / sigma;
  // P(silence >= elapsed) under the normal fit; erfc keeps precision in
  // the far tail where (1 - cdf) would round to zero.
  const double p_later = 0.5 * std::erfc(z / std::sqrt(2.0));
  if (p_later <= 0.0) return 1e9;  // beyond double precision: certainty
  return -std::log10(p_later);
}

std::size_t PhiAccrualDetector::samples(ProcessId p) const {
  const auto it = peers_.find(p.value());
  return it == peers_.end() ? 0 : it->second.count;
}

bool PhiAccrualDetector::suspect(ProcessId p, Time now,
                                 Time last_heard) const {
  const Duration elapsed = now - last_heard;
  if (elapsed <= kSuspectMinUs) return false;
  if (elapsed > kSuspectMaxUs) return true;
  const auto it = peers_.find(p.value());
  if (it == peers_.end() || it->second.count < kMinSamples) {
    // Not enough history to fit a distribution: behave like the fixed
    // detector rather than guessing.
    return elapsed > fallback_timeout_us_;
  }
  return phi(p, elapsed) >= kPhiThreshold;
}

void PhiAccrualDetector::forget(ProcessId p) { peers_.erase(p.value()); }

std::unique_ptr<FailureDetector> make_failure_detector(const VsyncConfig& cfg) {
  switch (cfg.detector) {
    case DetectorKind::kPhiAccrual:
      return std::make_unique<PhiAccrualDetector>(cfg);
    case DetectorKind::kFixedTimeout:
      break;
  }
  return std::make_unique<FixedTimeoutDetector>(cfg.suspect_timeout_us);
}

}  // namespace plwg::vsync
