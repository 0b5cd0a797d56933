// Naming-service deployment ablation (paper Sect. 3.1 / 5.2): dedicated
// per-LAN servers vs. a replica at every process ("making updates expensive
// but read operations purely local").
//
// Measures, for both deployments: mapping-resolution latency (the ns.read a
// joiner performs), update cost in server-to-server sync messages, and
// whether partition reconciliation still converges.
#include <cstdio>
#include <iostream>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "metrics/stats.hpp"

namespace plwg::bench {
namespace {

struct Result {
  double join_latency_ms = 0;   // mean time from join() to installed view
  std::uint64_t syncs = 0;      // server->server sync messages sent
  std::size_t replicas = 0;
  bool reconciled = false;
};

Result run_one(harness::NamingMode mode) {
  constexpr std::size_t kProcs = 8;
  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the protocol, not checking it
  cfg.num_processes = kProcs;
  cfg.num_name_servers = 2;
  cfg.naming_mode = mode;
  harness::SimWorld world(cfg);
  lwg::NoopUser user;

  Result r;
  r.replicas =
      mode == harness::NamingMode::kReplicatedEverywhere ? kProcs : 2;

  // Sequentially join 8 groups; measure join->view latency for the joiners
  // that resolve through the naming service (members 1..3 of each group).
  metrics::LatencyRecorder join_latency;
  for (std::uint64_t g = 0; g < 8; ++g) {
    const LwgId id{100 + g};
    const std::size_t first = (g % 2) * 4;
    world.lwg(first).join(id, user);
    world.run_until([&] { return world.lwg(first).view_of(id) != nullptr; },
                    20'000'000);
    for (std::size_t k = 1; k < 4; ++k) {
      const std::size_t p = first + k;
      const Time start = world.simulator().now();
      world.lwg(p).join(id, user);
      world.run_until([&] { return world.lwg(p).view_of(id) != nullptr; },
                      20'000'000);
      join_latency.record(world.simulator().now() - start);
    }
  }
  r.join_latency_ms = join_latency.mean_us() / 1000.0;

  // Update cost: server-to-server anti-entropy traffic over a fixed
  // 10-second settling window.
  auto total_syncs = [&] {
    std::uint64_t syncs = 0;
    for (std::size_t j = 0; j < r.replicas; ++j) {
      syncs += world.server(j).stats().syncs_sent;
    }
    return syncs;
  };
  const std::uint64_t before = total_syncs();
  world.run_for(10'000'000);
  r.syncs = total_syncs() - before;

  // Partition + heal still reconciles in both deployments.
  world.partition({{0, 1, 2, 3}, {4, 5, 6, 7}}, {0, 1});
  world.run_for(10'000'000);
  world.heal();
  r.reconciled = world.run_until(
      [&] {
        for (std::uint64_t g = 0; g < 8; ++g) {
          const LwgId id{100 + g};
          const std::size_t first = (g % 2) * 4;
          if (!world.lwg_formed(id, harness::process_range(first, 4))) {
            return false;
          }
        }
        return true;
      },
      180'000'000);
  return r;
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  std::printf("# Naming-service deployments: dedicated per-LAN servers vs a "
              "replica at every process (paper Sect. 3.1 alternative)\n");
  metrics::Table table({"deployment", "replicas", "mean-join-latency-ms",
                        "server-sync-msgs", "reconciles-after-heal"});
  for (harness::NamingMode mode :
       {harness::NamingMode::kDedicatedServers,
        harness::NamingMode::kReplicatedEverywhere}) {
    const Result r = run_one(mode);
    table.add_row(
        {mode == harness::NamingMode::kDedicatedServers ? "dedicated-2"
                                                        : "replicated-all",
         std::to_string(r.replicas), metrics::Table::fmt(r.join_latency_ms, 1),
         std::to_string(r.syncs), r.reconciled ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::printf("\nshape check: full replication trades cheap local reads for "
              "O(replicas^2) anti-entropy traffic — the scalability trade "
              "the paper notes.\n");
  return 0;
}
