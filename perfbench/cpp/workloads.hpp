// The benchmark's three workloads, each a generator of one deterministic
// episode: build a SimWorld, form its groups, then run a fixed sequence of
// fixed-simulated-length slices (closed-loop traffic slices or heal
// cycles). Everything an episode feeds the system comes from the seed;
// two episodes of one seed must produce identical simulated results.
//
// The benchmark drives the system only through public entry points:
// harness::SimWorld, lwg::LwgService, and the stats()/site_events_run()/
// database() accessors.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/world.hpp"

namespace perfbench {

enum class Size { kFull, kTiny };

struct Params {
  std::string workload;
  std::uint64_t seed = 1;
  Size size = Size::kFull;
  std::size_t threads = 1;  // engine threads (already clamped to nproc)
  bool oracle = false;
};

/// Engine threads of the thread check (before clamping to nproc). Every
/// workload itself runs on one engine thread.
constexpr std::size_t kThreadCheckThreads = 4;
/// Whether the workload runs with the protocol oracle wired in.
[[nodiscard]] bool default_oracle(const std::string& workload);
[[nodiscard]] bool known_workload(const std::string& workload);

/// Per-layer counts summed over every node, read at slice boundaries.
enum Counter : std::size_t {
  kEngineEvents,
  kNetFrames,
  kNetMessages,
  kNetDeliveries,
  kNetBytesOnWire,
  kNetDrops,
  kNetLinkBlocked,
  kNetStaleEpochDrops,
  kNetBusBusyUs,
  kTransportFrames,
  kTransportMessages,
  kTransportPiggybackedAcks,
  kTransportBackpressureHeld,
  kTransportMalformedFrames,
  kTransportDecodeErrors,
  kVsyncMsgsDelivered,
  kVsyncViewsInstalled,
  kVsyncFlushesStarted,
  kVsyncMergesLed,
  kVsyncNacksSent,
  kLwgDataDelivered,
  kLwgDataFiltered,
  kLwgDataSuperseded,
  kLwgDataResent,
  kLwgSwitchesCompleted,
  kLwgMerges,
  kLwgConflictCallbacks,
  kLwgViewsInstalled,
  kNamesRequests,
  kNamesSyncsSent,
  kNamesFullSyncs,
  kNamesDeltaSyncs,
  kNamesCallbacksSent,
  kCounterCount,
};
using Counters = std::array<std::uint64_t, kCounterCount>;


/// Simulated outcomes of one episode. Deterministic for a seed.
struct SimTally {
  std::uint64_t sends_attempted = 0;  // measured-window sends, incl. skipped
  std::uint64_t sends_skipped = 0;    // no view at the sender
  std::uint64_t sends_refused = 0;    // view on an HWG the sender left
  std::uint64_t sends_lost = 0;       // never delivered back to the sender
  std::uint64_t sends_late = 0;       // back at the sender past the limit
  std::uint64_t heals = 0;
  std::uint64_t heals_failed = 0;     // not converged before the next cut
  std::uint64_t conservation_errors = 0;
  std::string first_conservation_error;
  std::uint64_t multicasts = 0;       // measured sends back at sender in time
  std::uint64_t app_deliveries = 0;   // measured sends, every member
  /// Measured deliveries; misses (late, lost, skipped, refused) read above
  /// the latency limit.
  std::vector<std::int64_t> latencies_us;
  /// Heal -> converged (heal-cycles), or formation start -> converged (the
  /// other workloads, whose only membership disturbance is formation).
  std::vector<std::int64_t> recoveries_us;
  std::uint64_t avail_samples = 0;
  std::uint64_t avail_hits = 0;
  std::int64_t measured_sim_us = 0;
  std::uint64_t restarts = 0;
  std::uint64_t fault_calls = 0;
  std::uint64_t oracle_violations = 0;
  int first_failed_heal = -1;            // slice index
  std::string first_failed_heal_report;  // liveness_report() excerpt
};

/// Engine and world state read at the end of the measured phase.
struct WorldProbe {
  std::uint64_t digest = 0;         // combined trace digest
  std::size_t sites = 0;            // engine sites (= LAN segments)
  std::uint64_t hwg_memberships = 0;
  std::uint64_t db_bytes = 0;       // largest name-server database
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Construct the SimWorld(s) and the application users.
  virtual void build() = 0;
  /// Join every group and run until the world converged. False when it did
  /// not form.
  virtual bool form() = 0;
  /// Untimed settling traffic before the measured phase.
  virtual void warmup() = 0;
  [[nodiscard]] virtual std::size_t num_slices() const = 0;
  /// Run slice `k`; returns the simulated time it covered.
  virtual plwg::Duration run_slice(std::size_t k) = 0;
  /// Stop the load, drain, and check outputs into the tally.
  virtual void finish() = 0;

  [[nodiscard]] virtual Counters counters() = 0;
  [[nodiscard]] virtual WorldProbe probe() = 0;
  /// The simulated outcomes so far (complete after finish()).
  [[nodiscard]] virtual SimTally tally() = 0;
  /// A hash of the tally's counts, folded into each slice checkpoint.
  [[nodiscard]] virtual std::uint64_t tally_fingerprint() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Params& params);
/// The thread check's world: 16 segments x 3 processes, one local LWG per
/// segment, each process sending every 2 ms, 4 slices of 0.25 sim-s. Its
/// simulated results must not depend on the engine thread count.
[[nodiscard]] std::unique_ptr<Workload> make_thread_check_world(
    const Params& params);

}  // namespace perfbench
