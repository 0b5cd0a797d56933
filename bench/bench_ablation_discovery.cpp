// Sect. 6.1 ablation: callback-based global peer discovery vs. the polling
// alternative the paper rejects ("this could load the servers with
// unnecessary requests").
//
// We measure the naming-service request load of the implemented callback
// design across a partition/heal cycle with m LWGs, and compare with the
// computed load of the polling design (every member of every LWG polls the
// server once per period over the same interval).
#include <cstdio>
#include <iostream>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "metrics/stats.hpp"

namespace plwg::bench {
namespace {

struct Load {
  std::uint64_t server_requests = 0;  // set/read/testset processed
  std::uint64_t callbacks = 0;        // MULTIPLE-MAPPINGS pushed
  Duration interval_us = 0;
};

Load run_one(std::size_t m) {
  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the protocol, not checking it
  cfg.num_processes = 8;
  cfg.num_name_servers = 2;
  harness::SimWorld world(cfg);
  lwg::NoopUser user;
  const std::vector<std::size_t> all = harness::process_range(0, 8);

  std::vector<LwgId> ids;
  for (std::size_t g = 0; g < m; ++g) ids.push_back(LwgId{100 + g});
  for (LwgId id : ids) world.form_lwg(id, all, user);

  const Time start = world.simulator().now();
  auto requests = [&] {
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < 2; ++s) {
      const auto& st = world.server(s).stats();
      total += st.set_requests + st.read_requests + st.testset_requests;
    }
    return total;
  };
  auto callbacks = [&] {
    return world.server(0).stats().callbacks_sent +
           world.server(1).stats().callbacks_sent;
  };
  const std::uint64_t req_before = requests();
  const std::uint64_t cb_before = callbacks();

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
  world.heal();
  world.run_until(
      [&] {
        for (LwgId id : ids) {
          if (!world.lwg_formed(id, all)) return false;
        }
        return true;
      },
      120'000'000);
  world.run_for(5'000'000);  // post-reconciliation registrations

  Load load;
  load.server_requests = requests() - req_before;
  load.callbacks = callbacks() - cb_before;
  load.interval_us = world.simulator().now() - start;
  return load;
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  constexpr double kPollPeriodSec = 1.0;  // a modest polling rate
  std::printf("# Sect. 6.1 ablation: server load of callback-based discovery "
              "vs. polling (computed at 1 poll/member/lwg/sec)\n");
  metrics::Table table({"m-lwgs", "interval-s", "callback-design:requests",
                        "callback-design:callbacks", "polling-design:requests"});
  for (std::size_t m : {1, 2, 4, 8}) {
    const Load load = run_one(m);
    const double secs = static_cast<double>(load.interval_us) / 1e6;
    const double poll_requests =
        static_cast<double>(m) * 8.0 * (secs / kPollPeriodSec);
    table.add_row({std::to_string(m), metrics::Table::fmt(secs, 1),
                   std::to_string(load.server_requests),
                   std::to_string(load.callbacks),
                   metrics::Table::fmt(poll_requests, 0)});
  }
  table.print(std::cout);
  std::printf("\nshape check: callback-design request count stays "
              "per-event (mapping updates), polling grows with time x "
              "members x groups.\n");
  return 0;
}
