// Paper Table 4 + Figure 4: evolution of the naming-service database during
// the four-stage reconciliation of a healed partition:
//   1) merged naming service (both mappings per LWG, conflicting HWGs)
//   2) merged HWGs            (entries re-registered against merged HWG views)
//   3) switched LWGs          (all views of an LWG on the same HWG)
//   4) merged LWGs            (one view, obsolete rows GC'd via genealogy)
//
// The database of server 0 is polled; every distinct state is printed with
// its simulated timestamp, reproducing the Table 4 progression.
#include <cstdio>
#include <iostream>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"

int main() {
  using namespace plwg;

  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the protocol, not checking it
  cfg.num_processes = 4;
  cfg.num_name_servers = 2;
  harness::SimWorld world(cfg);
  lwg::NoopUser user;

  std::printf("# Table 4 / Fig. 4: naming-service evolution through the "
              "four reconciliation stages\n\n");

  world.partition({{0, 1}, {2, 3}}, {0, 1});
  const LwgId lwg_a{0xA};
  const LwgId lwg_b{0xB};
  for (std::size_t i = 0; i < 4; ++i) {
    world.lwg(i).join(lwg_a, user);
    world.lwg(i).join(lwg_b, user);
  }
  world.run_until(
      [&] {
        for (LwgId id : {lwg_a, lwg_b}) {
          if (!world.lwg_formed(id, {0, 1}) || !world.lwg_formed(id, {2, 3})) {
            return false;
          }
        }
        return true;
      },
      60'000'000);
  world.run_for(3'000'000);
  std::printf("[t=%lldms] pre-heal: partition p database (server 0):\n%s\n",
              static_cast<long long>(world.simulator().now() / 1000),
              world.server(0).dump_database().c_str());

  world.heal();
  const Time heal_at = world.simulator().now();

  std::string last = world.server(0).dump_database();
  int stage = 0;
  const Time deadline = heal_at + 150'000'000;
  while (world.simulator().now() < deadline) {
    world.run_for(20'000);
    const std::string dump = world.server(0).dump_database();
    if (dump != last) {
      last = dump;
      ++stage;
      std::printf("[t=+%lldms] database state %d:\n%s\n",
                  static_cast<long long>(
                      (world.simulator().now() - heal_at) / 1000),
                  stage, dump.c_str());
    }
    // Stop once stage 4 is reached: one conflict-free row per LWG.
    const auto& db = world.server(0).database();
    bool done = true;
    for (LwgId id : {lwg_a, lwg_b}) {
      auto it = db.records.find(id);
      if (it == db.records.end() || it->second.entries.size() != 1 ||
          it->second.has_conflict()) {
        done = false;
      }
    }
    if (done && stage > 1) break;
  }

  const auto& db = world.server(0).database();
  const bool converged =
      db.records.at(lwg_a).entries.size() == 1 &&
      db.records.at(lwg_b).entries.size() == 1 &&
      !db.records.at(lwg_a).has_conflict() &&
      !db.records.at(lwg_b).has_conflict();
  std::printf("final state: one GC'd mapping per LWG (Table 4 stage 4): %s\n",
              converged ? "yes" : "NO");
  std::printf("reconciliation completed %lld ms after heal, %d distinct "
              "database states observed\n",
              static_cast<long long>((world.simulator().now() - heal_at) /
                                     1000),
              stage);
  return 0;
}
