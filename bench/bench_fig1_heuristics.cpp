// Paper Fig. 1 ablation: the mapping heuristics' parameters k_m (minority)
// and k_c (closeness), defaults 4/4 in the paper's prototype.
//
// Workload: one big LWG over all 8 processes and one small LWG over {0,1}
// that starts out co-mapped on the big HWG (the optimistic initial mapping).
// For each (k_m, k_c) we report whether the interference rule evicted the
// small group, how many switches it took, and the final number of HWGs —
// showing why the paper's 4/4 gives eviction without thrash.
#include <cstdio>
#include <iostream>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "metrics/stats.hpp"

namespace plwg::bench {
namespace {

struct Outcome {
  bool evicted = false;
  std::uint64_t switches = 0;
  std::size_t hwgs_at_p0 = 0;
};

Outcome run_one(double k_m, double k_c) {
  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the protocol, not checking it
  cfg.num_processes = 8;
  cfg.lwg.k_m = k_m;
  cfg.lwg.k_c = k_c;
  cfg.lwg.policy_period_us = 2'000'000;
  cfg.lwg.shrink_delay_us = 4'000'000;
  harness::SimWorld world(cfg);
  lwg::NoopUser user;

  const LwgId big{1};
  const LwgId small{2};
  world.form_lwg(big, harness::process_range(0, 8), user);
  world.form_lwg(small, {0, 1}, user);

  // Many policy periods: time for eviction (or for thrash to show up).
  world.run_for(30'000'000);

  Outcome out;
  const auto h_big = world.lwg(0).hwg_of(big);
  const auto h_small = world.lwg(0).hwg_of(small);
  out.evicted = h_big && h_small && *h_big != *h_small;
  for (std::size_t i = 0; i < 8; ++i) {
    out.switches += world.lwg(i).stats().switches_started;
  }
  out.hwgs_at_p0 = world.lwg(0).member_hwgs().size();
  return out;
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  std::printf("# Fig. 1 ablation: interference/closeness parameters k_m, "
              "k_c. Workload: LWG{8 members} + LWG{2 members} co-mapped.\n");
  std::printf("# |small| = 2, |hwg| = 8: minority iff 2 <= 8/k_m, i.e. "
              "k_m <= 4.\n");
  metrics::Table table({"k_m", "k_c", "small-lwg-evicted", "total-switches",
                        "hwgs-at-p0"});
  for (double k_m : {2.0, 4.0, 8.0}) {
    for (double k_c : {2.0, 4.0, 8.0}) {
      const Outcome out = run_one(k_m, k_c);
      table.add_row({metrics::Table::fmt(k_m, 0), metrics::Table::fmt(k_c, 0),
                     out.evicted ? "yes" : "no",
                     std::to_string(out.switches),
                     std::to_string(out.hwgs_at_p0)});
    }
  }
  table.print(std::cout);
  std::printf("\nshape check: k_m <= 4 evicts the minority group with a "
              "single switch; larger k_m tolerates it (more interference, "
              "fewer HWGs).\n");
  return 0;
}
