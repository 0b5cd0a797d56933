// Pluggable failure detection for GroupEndpoint::update_suspicions.
//
// The paper's protocol only needs an eventually-accurate suspicion oracle;
// HOW a peer comes to be suspected is a policy choice with a real tradeoff
// under gray failures. A fixed threshold is perfectly predictable but has
// one knob serving two masters: low enough to detect crashes fast, high
// enough not to flap on a peer that merely paused for a GC cycle or sits
// behind a jittery link. The phi-accrual detector (Hayashibara et al.,
// popularized by Cassandra/Akka) splits the difference by learning each
// peer's inter-heartbeat distribution and asking "how implausible is the
// current silence GIVEN this peer's history?" — a peer that routinely
// stalls earns a wider distribution and stops tripping the detector, while
// a normally-quiet peer is still suspected promptly.
//
// Both implementations are pure functions of (heard timestamps, now): no
// RNG, no wall clock, no allocation ordering — determinism of the sim is
// untouched no matter which detector a scenario selects.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "util/types.hpp"
#include "vsync/config.hpp"

namespace plwg::vsync {

class FailureDetector {
 public:
  virtual ~FailureDetector() = default;
  /// A liveness signal from `p` (any protocol message) arrived at `t`.
  virtual void heard(ProcessId p, Time t) = 0;
  /// Should `p` be suspected at `now`, having last been heard at
  /// `last_heard`? Const: suspicion must be a query, never a mutation, so
  /// the caller may evaluate it any number of times per tick.
  [[nodiscard]] virtual bool suspect(ProcessId p, Time now,
                                     Time last_heard) const = 0;
  /// Drop any per-peer history (peer left the view / was excluded).
  virtual void forget(ProcessId p) = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// The legacy policy, verbatim: silence beyond suspect_timeout_us.
class FixedTimeoutDetector final : public FailureDetector {
 public:
  explicit FixedTimeoutDetector(Duration timeout_us) : timeout_us_(timeout_us) {}
  void heard(ProcessId, Time) override {}
  [[nodiscard]] bool suspect(ProcessId, Time now,
                             Time last_heard) const override {
    return now - last_heard > timeout_us_;
  }
  void forget(ProcessId) override {}
  [[nodiscard]] const char* name() const override { return "fixed-timeout"; }

 private:
  Duration timeout_us_;
};

/// Phi-accrual: phi(now) = -log10(P(silence >= now - last_heard)) under a
/// normal fit of the peer's recent inter-arrival intervals. Suspect when
/// phi >= kPhiThreshold, never before kSuspectMinUs of silence, always
/// after kSuspectMaxUs. Falls back to the fixed threshold until a peer
/// has enough history to fit (kMinSamples intervals).
class PhiAccrualDetector final : public FailureDetector {
 public:
  explicit PhiAccrualDetector(const VsyncConfig& cfg);
  void heard(ProcessId p, Time t) override;
  [[nodiscard]] bool suspect(ProcessId p, Time now,
                             Time last_heard) const override;
  void forget(ProcessId p) override;
  [[nodiscard]] const char* name() const override { return "phi-accrual"; }

  /// The current phi for a hypothetical silence of `elapsed` — exposed for
  /// tests and the bench matrix.
  [[nodiscard]] double phi(ProcessId p, Duration elapsed) const;
  [[nodiscard]] std::size_t samples(ProcessId p) const;

 private:
  static constexpr std::size_t kMinSamples = 4;
  /// Suspect when -log10(P(silence this long | history)) crosses this.
  static constexpr double kPhiThreshold = 8.0;
  /// Never suspect before this much silence (floor), making the best-case
  /// detection latency equal to the default fixed detector's...
  static constexpr Duration kSuspectMinUs = 1'000'000;
  /// ...and always suspect after this much (ceiling), bounding the latency
  /// cost of a history widened by past stalls.
  static constexpr Duration kSuspectMaxUs = 8'000'000;

  struct History {
    Time last_arrival = -1;          // -1: no arrival recorded yet
    std::vector<Duration> window;    // ring buffer of intervals
    std::size_t next = 0;            // ring write cursor
    std::size_t count = 0;           // valid entries (<= window.size())
    double sum = 0;                  // running mean/variance support
    double sum_sq = 0;
  };

  Duration fallback_timeout_us_;
  std::size_t window_size_;
  std::unordered_map<std::uint64_t, History> peers_;
};

/// Build the detector the config asks for.
[[nodiscard]] std::unique_ptr<FailureDetector> make_failure_detector(
    const VsyncConfig& cfg);

}  // namespace plwg::vsync
