// Paper Sect. 4: *virtual partitions* — "excessively loaded portions of the
// network, whose delays cause timeouts to expire and the connections to be
// marked as crashed. In an asynchronous system a virtual partition is
// indistinguishable from a network partition."
//
// A background flooder saturates the shared bus for a configurable storm
// duration; heartbeats queue behind the junk traffic, the failure detector
// fires, and the group fragments into concurrent views exactly as if the
// network had partitioned. When the storm passes, the same merge machinery
// that heals real partitions reassembles the group. We report the
// fragmentation observed and the time to reconverge, side by side with a
// *real* partition of the same duration.
#include <cstdio>
#include <iostream>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "metrics/stats.hpp"

namespace plwg::bench {
namespace {

struct Outcome {
  bool fragmented = false;      // the group split during the disturbance
  std::size_t min_view = 8;     // smallest LWG view seen at any member
  Duration reconverge_ms = -1;  // time from storm end to full view
};

Outcome run_one(bool real_partition, Duration disturbance_us) {
  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the protocol, not checking it
  cfg.num_processes = 8;
  cfg.net.bandwidth_bps = 10e6;
  // A WAN-ish failure detector: three missed heartbeats mark a peer down —
  // the setting that makes load-induced "virtual" partitions possible.
  cfg.vsync.suspect_timeout_us = 600'000;
  harness::SimWorld world(cfg);
  lwg::NoopUser user;
  const LwgId id{1};
  const std::vector<std::size_t> all = harness::process_range(0, 8);
  world.form_lwg(id, all, user);

  Outcome out;
  auto observe = [&] {
    for (std::size_t i = 0; i < 8; ++i) {
      const lwg::LwgView* v = world.lwg(i).view_of(id);
      if (v != nullptr && v->members.size() < 8) {
        out.fragmented = true;
        out.min_view = std::min(out.min_view, v->members.size());
      }
    }
  };

  const Time start = world.simulator().now();
  if (real_partition) {
    world.partition({{0, 1, 2, 3}, {4, 5, 6, 7}}, {0});
    while (world.simulator().now() - start < disturbance_us) {
      world.run_for(100'000);
      observe();
    }
    world.heal();
  } else {
    // Storm: junk multicasts flood the bus beyond its drain rate
    // (~1.16 ms of bus time each at 10 Mbps, three injected per
    // millisecond = 3.5x capacity), stretching heartbeat inter-arrivals
    // past the suspicion timeout.
    const std::vector<NodeId> everyone{
        world.node(0), world.node(1), world.node(2), world.node(3),
        world.node(4), world.node(5), world.node(6), world.node(7)};
    const std::vector<std::uint8_t> junk(1400, 0);  // port 0: dropped cheaply
    while (world.simulator().now() - start < disturbance_us) {
      for (int i = 0; i < 3; ++i) {
        world.network().multicast(world.node(i), everyone, junk);
      }
      world.run_for(1'000);
      observe();
    }
  }
  const Time disturbance_end = world.simulator().now();

  // Recovery: a virtual partition mostly *manifests* after the storm, once
  // the queued traffic (and the suspicion evidence buried in it) drains.
  // "Reconverged" therefore means quiescence: the full view is installed
  // everywhere AND no process suspects anyone.
  const HwgId hwg = *world.lwg(0).hwg_of(id);
  const bool ok = world.run_until(
      [&] {
        observe();
        if (!world.lwg_formed(id, all)) return false;
        for (std::size_t i = 0; i < 8; ++i) {
          const vsync::GroupEndpoint* ep = world.vsync(i).endpoint(hwg);
          if (ep == nullptr || !ep->suspected().empty()) return false;
        }
        return true;
      },
      240'000'000);
  if (ok) {
    out.reconverge_ms = (world.simulator().now() - disturbance_end) / 1000;
  }
  if (!out.fragmented) out.min_view = 8;
  return out;
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  std::printf("# Sect. 4: virtual partitions (bus-saturation storms) vs real "
              "partitions — same split, same healing machinery\n");
  metrics::Table table({"disturbance", "duration-s", "group-fragmented",
                        "smallest-view", "reconverge-ms"});
  for (Duration dur : {2'000'000, 4'000'000}) {
    for (bool real : {true, false}) {
      const Outcome out = run_one(real, dur);
      table.add_row(
          {real ? "real-partition" : "bus-storm",
           metrics::Table::fmt(static_cast<double>(dur) / 1e6, 0),
           out.fragmented ? "yes" : "no", std::to_string(out.min_view),
           out.reconverge_ms < 0 ? "timeout"
                                 : std::to_string(out.reconverge_ms)});
    }
  }
  table.print(std::cout);
  std::printf("\nshape check: a sufficiently long bus storm fragments the "
              "group exactly like a real partition, and both heal through "
              "the same merge path.\n");
  return 0;
}
