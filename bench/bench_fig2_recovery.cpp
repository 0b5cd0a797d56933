// Paper Fig. 2 (right panel): time to recover from the crash of a member.
//
// One member of set A (process 3) crashes; recovery is complete when every
// surviving member of every affected group has installed an LWG view that
// excludes the crashed process.
//
// Expected shape: with no LWG service each of the n affected groups is its
// own HWG and runs its own failure detection + flush on the shared bus, so
// recovery grows with n; the LWG services share one failure detector and
// one flush across all n groups, and the dynamic service additionally keeps
// set B's HWG untouched.
#include <cstdio>
#include <iostream>

#include "fig2_common.hpp"

namespace plwg::bench {
namespace {

Duration run_one(lwg::MappingMode mode, std::size_t n) {
  Fig2World f = build_fig2_world(mode, n);
  constexpr std::size_t kVictim = 3;  // member of every set-A group

  const Time crash_at = f.world->simulator().now();
  f.world->crash(kVictim);

  const bool ok = f.world->run_until(
      [&] {
        for (LwgId g : f.set_a) {
          if (!f.world->lwg_formed(g, {0, 1, 2})) return false;
        }
        return true;
      },
      120'000'000);
  if (!ok) return -1;
  return f.world->simulator().now() - crash_at;
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  std::printf("# Fig. 2 (recovery): time from member crash until every "
              "affected group installed the surviving view, 2 x n groups of "
              "4 on 8 processes\n");
  metrics::Table table({"n-groups-per-set", "service", "recovery-time-ms"});
  for (std::size_t n : {1, 2, 4, 8, 16}) {
    for (lwg::MappingMode mode :
         {lwg::MappingMode::kPerGroup, lwg::MappingMode::kStaticSingle,
          lwg::MappingMode::kDynamic}) {
      const Duration t = run_one(mode, n);
      table.add_row({std::to_string(n), mode_name(mode),
                     t < 0 ? "timeout" : metrics::Table::fmt(
                                             static_cast<double>(t) / 1000.0, 1)});
    }
  }
  table.print(std::cout);
  return 0;
}
