// Gray-failure detection: fixed-timeout vs phi-accrual, the experiment the
// adaptive detector exists for.
//
// A 6-process LWG rides out a train of sub-lethal process stalls (GC-pause
// length: longer than the 1 s suspicion floor, far shorter than a crash).
// The victim is never dead, so every suspicion raised against it during the
// gray phase is FALSE — with the fixed-timeout detector each stall fires
// suspicion and a needless view change; phi-accrual learns the victim's
// pause envelope after the first stall and stops flapping.
//
// Detection time is measured separately with a real crash, twice per
// detector: once on a clean metronomic history (where phi's suspect_min
// floor makes its best-case latency equal to the fixed detector's — the
// "equal detection latency" leg of the comparison) and once after the gray
// phase (the honest cost: a widened envelope slows crash detection, bounded
// by suspect_max).
//
// Self-checking: exits non-zero unless phi's false-suspicion episodes are
// strictly below fixed's at (near-)equal clean detection latency.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "metrics/stats.hpp"

namespace plwg::bench {
namespace {

constexpr std::size_t kProcs = 6;
constexpr std::size_t kVictim = kProcs - 1;  // never the acting coordinator
constexpr Duration kStallUs = 1'300'000;     // past the 1 s floor, sub-lethal
constexpr Duration kRecoveryUs = 4'500'000;  // between stalls of the train
constexpr std::size_t kStallCycles = 6;

harness::WorldConfig world_config(vsync::DetectorKind kind,
                                  std::uint64_t seed) {
  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the protocol, not checking it
  cfg.num_processes = kProcs;
  cfg.num_name_servers = 2;
  cfg.net.seed = seed * 7919 + 17;
  cfg.vsync.detector = kind;
  // One extra window's worth of history so a stall outlier survives the
  // metronome heartbeats of several recovery intervals.
  cfg.vsync.detector_window = 64;
  return cfg;
}

/// Form one LWG over every process; returns the backing HWG id.
HwgId form_group(harness::SimWorld& world, lwg::LwgUser& user) {
  const LwgId id{1};
  if (!world.form_lwg(id, harness::process_range(0, kProcs), user)) {
    std::fprintf(stderr, "group never formed\n");
    std::exit(1);
  }
  return world.lwg(0).view_of(id)->hwg;
}

/// Does any alive peer currently suspect the victim?
bool victim_suspected(harness::SimWorld& world, HwgId gid) {
  const ProcessId victim = world.pid(kVictim);
  for (std::size_t i = 0; i < kProcs; ++i) {
    if (i == kVictim || world.crashed(i)) continue;
    const vsync::GroupEndpoint* ep = world.vsync(i).endpoint(gid);
    if (ep != nullptr && ep->suspected().contains(victim)) return true;
  }
  return false;
}

/// Crash the victim and report how long until any peer suspects it (ms).
double measure_detection_ms(harness::SimWorld& world, HwgId gid) {
  world.crash(kVictim);
  const Time t0 = world.simulator().now();
  const bool detected = world.run_until(
      [&] { return victim_suspected(world, gid); }, 30'000'000);
  if (!detected) return -1.0;
  return static_cast<double>(world.simulator().now() - t0) / 1e3;
}

struct GrayRun {
  std::size_t false_episodes = 0;  // stall cycles with a (false) suspicion
  double post_gray_detect_ms = 0;  // crash detection after the gray phase
};

/// Clean-history crash detection: steady heartbeats, then a real crash.
double run_clean_detection(vsync::DetectorKind kind, std::uint64_t seed) {
  harness::SimWorld world(world_config(kind, seed));
  lwg::NoopUser user;
  const HwgId gid = form_group(world, user);
  world.run_for(5'000'000);  // settle into a metronomic heartbeat history
  return measure_detection_ms(world, gid);
}

/// The gray phase: a train of sub-lethal stalls, then a real crash.
GrayRun run_gray_phase(vsync::DetectorKind kind, std::uint64_t seed) {
  harness::SimWorld world(world_config(kind, seed));
  lwg::NoopUser user;
  const HwgId gid = form_group(world, user);
  world.run_for(5'000'000);

  GrayRun out;
  for (std::size_t cycle = 0; cycle < kStallCycles; ++cycle) {
    world.network().stall_node(world.node(kVictim), kStallUs);
    bool suspected = false;
    const Time cycle_end =
        world.simulator().now() + kStallUs + kRecoveryUs;
    while (world.simulator().now() < cycle_end) {
      world.run_for(50'000);
      suspected = suspected || victim_suspected(world, gid);
    }
    if (suspected) ++out.false_episodes;  // the victim was never dead
  }
  out.post_gray_detect_ms = measure_detection_ms(world, gid);
  return out;
}

const char* detector_name(vsync::DetectorKind kind) {
  return kind == vsync::DetectorKind::kPhiAccrual ? "phi-accrual"
                                                  : "fixed-timeout";
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  std::printf(
      "# Gray-failure detection: %zu stall cycles of %.1f s against a 1 s "
      "suspicion floor (6 processes; victim never dead during the train)\n",
      kStallCycles, static_cast<double>(kStallUs) / 1e6);
  metrics::Table table({"detector", "seed", "false-suspicion-episodes",
                        "of-stalls", "clean-detect-ms",
                        "post-gray-detect-ms"});

  std::size_t false_total[2] = {0, 0};
  double clean_ms[2] = {0, 0};
  bool detected_everywhere = true;
  constexpr std::uint64_t kSeeds = 2;
  const vsync::DetectorKind kinds[2] = {vsync::DetectorKind::kFixedTimeout,
                                        vsync::DetectorKind::kPhiAccrual};
  for (int k = 0; k < 2; ++k) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const double clean = run_clean_detection(kinds[k], seed);
      const GrayRun gray = run_gray_phase(kinds[k], seed);
      detected_everywhere = detected_everywhere && clean >= 0 &&
                            gray.post_gray_detect_ms >= 0;
      false_total[k] += gray.false_episodes;
      clean_ms[k] += clean / static_cast<double>(kSeeds);
      table.add_row({detector_name(kinds[k]), std::to_string(seed),
                     std::to_string(gray.false_episodes),
                     std::to_string(kStallCycles),
                     metrics::Table::fmt(clean, 0),
                     metrics::Table::fmt(gray.post_gray_detect_ms, 0)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nshape check: clean-history detection is equal for both detectors "
      "(the phi floor IS the fixed timeout); fixed flags the stalling-but-"
      "alive victim every cycle, phi only until it has learned the pause "
      "envelope; the price is slower post-gray crash detection, bounded by "
      "suspect_max.\n");

  // Self-check: the adaptive detector must pay for its keep.
  bool ok = detected_everywhere;
  if (false_total[1] >= false_total[0]) {
    std::fprintf(stderr,
                 "FAIL: phi false episodes (%zu) not strictly below "
                 "fixed (%zu)\n",
                 false_total[1], false_total[0]);
    ok = false;
  }
  // "Equal detection latency": same floor, same heartbeats — allow only
  // sampling noise (run_until probes) between the two clean columns.
  if (std::abs(clean_ms[1] - clean_ms[0]) > 300.0) {
    std::fprintf(stderr,
                 "FAIL: clean detection diverged (fixed %.0f ms, phi "
                 "%.0f ms)\n",
                 clean_ms[0], clean_ms[1]);
    ok = false;
  }
  if (!detected_everywhere) {
    std::fprintf(stderr, "FAIL: a crash went undetected for 30 s\n");
  }
  return ok ? 0 : 1;
}
