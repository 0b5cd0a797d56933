// Geographic scale: the paper motivates partitionable operation with
// "networks of large geographical scale". Two experiments:
//
//   1. Latency sweep — a group spanning two LANs joined by a WAN backbone
//      is cut and healed across campus-to-continental WAN delays;
//      reconciliation stays dominated by the (constant) probe/sync periods.
//   2. Segment-count sweep — 100 and 1,000 segments (3 processes each, up
//      to ~3,000 nodes), one local LWG per segment: wall-clock per
//      sim-second and peak memory against node count.
//      PLWG_BENCH_BIG=0 skips the 1,000-segment cell (a smoke run).
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string_view>
#include <vector>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "metrics/stats.hpp"
#include "util/codec.hpp"

namespace plwg::bench {
namespace {

class LatencyUser : public lwg::LwgUser {
 public:
  LatencyUser(harness::SimWorld& world, metrics::LatencyRecorder& rec)
      : world_(world), rec_(rec) {}
  void on_lwg_view(LwgId, const lwg::LwgView&) override {}
  void on_lwg_data(LwgId, ProcessId,
                   std::span<const std::uint8_t> data) override {
    Decoder dec(data);
    rec_.record(world_.simulator().now() - dec.get_i64());
    ++delivered;
  }

  std::uint64_t delivered = 0;

 private:
  harness::SimWorld& world_;
  metrics::LatencyRecorder& rec_;
};

struct Result {
  double cross_lan_latency_ms = 0;
  double reconcile_ms = -1;
  double frames_per_msg = 0;  // wire frames per delivered message
};

Result run_one(Duration wan_delay_us) {
  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the protocol, not checking it
  cfg.num_processes = 6;
  cfg.num_name_servers = 2;
  cfg.segments = {{0, 1, 2}, {3, 4, 5}};
  cfg.wan.propagation_delay_us = wan_delay_us;
  cfg.wan.bandwidth_bps = 5e6;
  harness::SimWorld world(cfg);
  metrics::LatencyRecorder latency;
  std::vector<std::unique_ptr<LatencyUser>> users;
  for (int i = 0; i < 6; ++i) {
    users.push_back(std::make_unique<LatencyUser>(world, latency));
  }
  const LwgId id{1};
  const std::vector<std::size_t> all = harness::process_range(0, 6);
  world.form_lwg(id, all,
                 [&](std::size_t i) -> lwg::LwgUser& { return *users[i]; });

  // Cross-LAN latency under light traffic.
  const std::uint64_t frames_base = world.network().stats().frames_sent;
  auto delivered_total = [&] {
    std::uint64_t total = 0;
    for (const auto& u : users) total += u->delivered;
    return total;
  };
  const std::uint64_t delivered_base = delivered_total();
  for (int m = 0; m < 50; ++m) {
    Encoder enc;
    enc.put_i64(world.simulator().now());
    world.lwg(0).send(id, enc.take());
    world.run_for(100'000);
  }
  world.run_for(1'000'000);
  Result r;
  r.cross_lan_latency_ms = latency.mean_us() / 1000.0;
  // All frames on the wire during the traffic window (data + the heartbeat /
  // naming background it piggybacks on) per end-to-end delivery.
  const std::uint64_t delivered = delivered_total() - delivered_base;
  if (delivered > 0) {
    r.frames_per_msg = static_cast<double>(world.network().stats().frames_sent -
                                           frames_base) /
                       static_cast<double>(delivered);
  }

  // WAN cut + heal: full reconciliation time.
  world.cut_wan();
  world.run_until(
      [&] {
        return world.lwg_formed(id, {0, 1, 2}) &&
               world.lwg_formed(id, {3, 4, 5});
      },
      60'000'000);
  world.heal();
  const Time heal_at = world.simulator().now();
  const bool ok =
      world.run_until([&] { return world.lwg_formed(id, all); }, 240'000'000);
  if (ok) {
    r.reconcile_ms =
        static_cast<double>(world.simulator().now() - heal_at) / 1000.0;
  }
  return r;
}

class CountUser : public lwg::LwgUser {
 public:
  void on_lwg_view(LwgId, const lwg::LwgView&) override {}
  void on_lwg_data(LwgId, ProcessId, std::span<const std::uint8_t>) override {
    ++delivered;
  }
  std::uint64_t delivered = 0;
};

constexpr std::size_t kPerSegment = 3;

/// Build an N-segment WAN world with one local LWG per segment, form all
/// groups (leaders in one wave, then members), and return it ready to run.
struct SegmentWorld {
  harness::WorldConfig cfg;
  std::unique_ptr<harness::SimWorld> world;
  std::vector<std::unique_ptr<CountUser>> users;
  bool formed = false;
};

SegmentWorld make_segment_world(std::size_t segments) {
  SegmentWorld sw;
  sw.cfg.oracle = false;
  sw.cfg.num_processes = segments * kPerSegment;
  sw.cfg.num_name_servers = 2;
  for (std::size_t s = 0; s < segments; ++s) {
    std::vector<std::size_t> seg;
    for (std::size_t i = 0; i < kPerSegment; ++i)
      seg.push_back(s * kPerSegment + i);
    sw.cfg.segments.push_back(seg);
  }
  sw.world = std::make_unique<harness::SimWorld>(sw.cfg);
  for (std::size_t i = 0; i < sw.cfg.num_processes; ++i)
    sw.users.push_back(std::make_unique<CountUser>());
  harness::SimWorld& world = *sw.world;
  for (std::size_t s = 0; s < segments; ++s)
    world.lwg(s * kPerSegment).join(LwgId{s + 1}, *sw.users[s * kPerSegment]);
  world.run_until(
      [&] {
        for (std::size_t s = 0; s < segments; ++s) {
          if (world.lwg(s * kPerSegment).view_of(LwgId{s + 1}) == nullptr)
            return false;
        }
        return true;
      },
      60'000'000);
  for (std::size_t s = 0; s < segments; ++s) {
    for (std::size_t i = 1; i < kPerSegment; ++i)
      world.lwg(s * kPerSegment + i).join(LwgId{s + 1},
                                          *sw.users[s * kPerSegment + i]);
  }
  sw.formed = world.run_until(
      [&] {
        for (std::size_t s = 0; s < segments; ++s) {
          if (!world.lwg_formed(
                  LwgId{s + 1},
                  harness::process_range(s * kPerSegment, kPerSegment))) {
            return false;
          }
        }
        return true;
      },
      120'000'000);
  return sw;
}

/// Drive every process at one send per `period_us` for `sim_us`, returning
/// wall seconds spent inside the engine.
double drive(SegmentWorld& sw, Duration sim_us, Duration period_us) {
  harness::SimWorld& world = *sw.world;
  const Time end = world.simulator().now() + sim_us;
  const auto t0 = std::chrono::steady_clock::now();
  while (world.simulator().now() < end) {
    for (std::size_t p = 0; p < sw.cfg.num_processes; ++p) {
      Encoder enc;
      enc.put_i64(world.simulator().now());
      world.lwg(p).send(LwgId{p / kPerSegment + 1}, enc.take());
    }
    world.run_for(period_us);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Experiment 2: segment-count sweep at fixed per-segment load.
void run_scale_sweep() {
  std::printf("\n# Segment-count sweep: N segments x %zu processes, one "
              "local LWG each, 1 send/process/10ms, 1 sim-s measured\n",
              kPerSegment);
  // Peak RSS is the process's high-water mark after the row: each row's
  // world is larger than everything built before it.
  metrics::Table table({"segments", "nodes", "wall-s-per-sim-s", "deliveries",
                        "peak-rss-MB"});
  const char* big = std::getenv("PLWG_BENCH_BIG");
  const bool run_big = big == nullptr || std::string_view(big) != "0";
  for (std::size_t segments : {std::size_t{100}, std::size_t{1'000}}) {
    if (segments > 100 && !run_big) {
      std::printf("segments=%zu: skipped (PLWG_BENCH_BIG=0)\n", segments);
      continue;
    }
    SegmentWorld sw = make_segment_world(segments);
    if (!sw.formed) {
      std::printf("segments=%zu: formation timed out\n", segments);
      continue;
    }
    drive(sw, 200'000, 10'000);  // warmup
    const double wall = drive(sw, 1'000'000, 10'000);
    std::uint64_t delivered = 0;
    for (const auto& u : sw.users) delivered += u->delivered;
    table.add_row({std::to_string(segments),
                   std::to_string(sw.cfg.num_processes),
                   metrics::Table::fmt(wall, 3), std::to_string(delivered),
                   metrics::Table::fmt(peak_rss_mb(), 1)});
  }
  table.print(std::cout);
  std::printf("shape check: 10x the nodes costs more than 10x the "
              "wall-clock; EXPERIMENTS.md attributes the excess.\n");
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  std::printf("# Geographic scale: 2 LANs x 3 processes over a WAN backbone; "
              "latency + reconciliation vs WAN delay\n");
  metrics::Table table({"wan-one-way-ms", "cross-lan-multicast-ms",
                        "heal-to-merged-ms", "frames-per-delivered-msg"});
  for (Duration wan : {1'000, 20'000, 100'000}) {
    const Result r = run_one(wan);
    table.add_row({metrics::Table::fmt(static_cast<double>(wan) / 1000.0, 0),
                   metrics::Table::fmt(r.cross_lan_latency_ms, 1),
                   r.reconcile_ms < 0
                       ? "timeout"
                       : metrics::Table::fmt(r.reconcile_ms, 0),
                   metrics::Table::fmt(r.frames_per_msg, 3)});
  }
  table.print(std::cout);
  std::printf("\nshape check: data latency scales with WAN delay; "
              "reconciliation stays dominated by the constant probe/sync "
              "periods.\n");
  run_scale_sweep();
  return 0;
}
