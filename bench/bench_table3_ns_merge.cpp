// Paper Table 3 + Figure 3: inconsistent mappings made in two concurrent
// partitions, and the merged naming-service database after reconciliation.
//
// Two LWGs (a and b) are created independently in partitions p = {0,1} and
// p' = {2,3}; the sides make opposite mapping decisions. After healing, the
// name servers reconcile and the merged database holds *both* view-to-view
// mappings per LWG — exactly the state of Table 3. LWG-level reconciliation
// is disabled here so the Table 3 state is stable and printable; the
// bench_table4_evolution binary shows the full four-stage evolution.
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
  cfg.lwg.reconcile_on_conflict = false;  // freeze the Table 3 state
  harness::SimWorld world(cfg);
  lwg::NoopUser user;

  std::printf("# Table 3 / Fig. 3: inconsistent mappings in concurrent "
              "partitions and the merged NS database\n\n");

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
  world.run_for(3'000'000);  // let ns.set traffic land

  std::printf("-- partition p (server 0) --\n%s\n",
              world.server(0).dump_database().c_str());
  std::printf("-- partition p' (server 1) --\n%s\n",
              world.server(1).dump_database().c_str());

  const bool opposite =
      *world.lwg(0).hwg_of(lwg_a) != *world.lwg(2).hwg_of(lwg_a) &&
      *world.lwg(0).hwg_of(lwg_b) != *world.lwg(2).hwg_of(lwg_b);
  std::printf("mappings diverged across partitions: %s\n\n",
              opposite ? "yes" : "no");

  world.heal();
  world.run_until(
      [&] {
        for (std::size_t s = 0; s < 2; ++s) {
          const auto& db = world.server(s).database();
          for (LwgId id : {lwg_a, lwg_b}) {
            auto it = db.records.find(id);
            if (it == db.records.end()) return false;
            if (it->second.entries.size() != 2) return false;
          }
        }
        return true;
      },
      30'000'000);

  std::printf("-- merged naming service (Table 3) --\n%s\n",
              world.server(0).dump_database().c_str());
  std::printf("conflicts detected: LWG a: %s, LWG b: %s\n",
              world.server(0).database().records.at(lwg_a).has_conflict()
                  ? "yes" : "no",
              world.server(0).database().records.at(lwg_b).has_conflict()
                  ? "yes" : "no");
  std::printf("both replicas identical after reconciliation: %s\n",
              world.server(0).dump_database() ==
                      world.server(1).dump_database()
                  ? "yes" : "no");
  return 0;
}
