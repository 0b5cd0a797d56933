// Paper Fig. 5: the merge-views protocol. All concurrent LWG views mapped on
// one HWG are merged with a *single* HWG flush, regardless of how many LWGs
// are involved — the resource-sharing claim of Sect. 6.4.
//
// m LWGs (all with the same 8 members, hence all on one HWG) are split by a
// partition and healed. We measure the time from heal until every LWG at
// every member has one merged view, and how many HWG view installations the
// merge cost. The strawman column extrapolates a per-LWG flush design
// (m x the single-group cost), which is what the shared flush avoids.
//
// The claim is also a gate: the bench exits non-zero when any m times out
// or its merge installs more than kMaxHwgViews HWG views at p0 — one for the
// HWG merge itself and one for the flush that merges the LWG views.
#include <cstdio>
#include <iostream>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "metrics/stats.hpp"

namespace plwg::bench {
namespace {

constexpr std::uint64_t kMaxHwgViews = 2;

struct RunResult {
  Duration merge_time_us = -1;
  std::uint64_t hwg_views = 0;  // HWG views installed at p0 during the merge
};

RunResult run_one(std::size_t m) {
  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the protocol, not checking it
  cfg.num_processes = 8;
  cfg.num_name_servers = 2;
  harness::SimWorld world(cfg);
  lwg::NoopUser user;
  const std::vector<std::size_t> all = harness::process_range(0, 8);

  std::vector<LwgId> ids;
  for (std::size_t g = 0; g < m; ++g) ids.push_back(LwgId{100 + g});

  // Sequential formation keeps all LWGs on one HWG.
  for (LwgId id : ids) world.form_lwg(id, all, user);
  const HwgId hwg = *world.lwg(0).hwg_of(ids[0]);

  world.partition({{0, 1, 2, 3}, {4, 5, 6, 7}}, {0, 1});
  world.run_until(
      [&] {
        for (LwgId id : ids) {
          if (!world.lwg_formed(id, {0, 1, 2, 3}) ||
              !world.lwg_formed(id, {4, 5, 6, 7})) {
            return false;
          }
        }
        return true;
      },
      60'000'000);

  const auto views_before =
      world.vsync(0).endpoint(hwg)->stats().views_installed;
  world.heal();
  const Time heal_at = world.simulator().now();
  const bool ok = world.run_until(
      [&] {
        for (LwgId id : ids) {
          if (!world.lwg_formed(id, all)) return false;
        }
        return true;
      },
      120'000'000);
  RunResult r;
  if (!ok) return r;
  r.merge_time_us = world.simulator().now() - heal_at;
  r.hwg_views =
      world.vsync(0).endpoint(hwg)->stats().views_installed - views_before;
  return r;
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  std::printf("# Fig. 5: merge-views protocol — one HWG flush merges all "
              "concurrent LWG views on the HWG\n");
  metrics::Table table({"m-lwgs-on-hwg", "merge-time-ms", "hwg-views-installed",
                        "per-lwg-flush-strawman-ms"});
  double base_ms = 0;
  bool claim_holds = true;
  for (std::size_t m : {1, 2, 4, 8, 16}) {
    const RunResult r = run_one(m);
    if (r.merge_time_us < 0 || r.hwg_views > kMaxHwgViews) claim_holds = false;
    const double ms = static_cast<double>(r.merge_time_us) / 1000.0;
    if (m == 1) base_ms = ms;
    table.add_row({std::to_string(m),
                   r.merge_time_us < 0 ? "timeout" : metrics::Table::fmt(ms, 1),
                   std::to_string(r.hwg_views),
                   metrics::Table::fmt(base_ms * static_cast<double>(m), 1)});
  }
  table.print(std::cout);
  std::printf("\nshape check: merge-time and hwg-views stay ~flat in m, the "
              "strawman grows linearly.\n");
  if (!claim_holds) {
    std::printf("FAIL: a merge timed out or installed more than %llu HWG "
                "views\n",
                static_cast<unsigned long long>(kMaxHwgViews));
    return 1;
  }
  return 0;
}
