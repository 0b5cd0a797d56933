// A second workload configuration in the spirit of Fig. 2 (the paper
// reports one of several configurations from the Dynamic LWG paper [8]):
// two sets of n groups whose memberships overlap heavily — set A spans
// processes 0..5, set B spans 2..7 (overlap 4 of 6).
//
// With this overlap the share rule fires (k = 4 > sqrt(2*2*2) = 2.83): the
// dynamic service *collapses* both sets onto one HWG — here maximum sharing
// is the right call because nearly every process wants nearly every
// message, so filtering waste is small. The latency comparison shows the
// dynamic service converging to static-like behaviour instead of paying 2n
// failure detectors like no-LWG — the mirror image of the disjoint
// configuration, demonstrating the policies adapt to the workload.
#include <cstdio>
#include <iostream>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "metrics/stats.hpp"

namespace plwg::bench {
namespace {

const char* mode_name(lwg::MappingMode mode) {
  switch (mode) {
    case lwg::MappingMode::kDynamic: return "dynamic-lwg";
    case lwg::MappingMode::kStaticSingle: return "static-lwg";
    case lwg::MappingMode::kPerGroup: return "no-lwg";
  }
  return "?";
}

class CountingLatencyUser : public lwg::LwgUser {
 public:
  CountingLatencyUser(harness::SimWorld& world,
                      metrics::LatencyRecorder& recorder)
      : world_(world), recorder_(recorder) {}
  void on_lwg_view(LwgId, const lwg::LwgView&) override {}
  void on_lwg_data(LwgId, ProcessId,
                   std::span<const std::uint8_t> data) override {
    Decoder dec(data);
    recorder_.record(world_.simulator().now() - dec.get_i64());
  }

 private:
  harness::SimWorld& world_;
  metrics::LatencyRecorder& recorder_;
};

struct Result {
  double mean_us = 0;
  std::size_t hwgs = 0;
};

Result run_one(lwg::MappingMode mode, std::size_t n) {
  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the protocol, not checking it
  cfg.num_processes = 8;
  cfg.net.bandwidth_bps = 10e6;
  cfg.net.node_process_cost_us = 300;
  cfg.lwg.mode = mode;
  cfg.lwg.policy_period_us = 3'000'000;
  cfg.lwg.shrink_delay_us = 5'000'000;
  if (mode == lwg::MappingMode::kStaticSingle) {
    cfg.lwg.static_hwg = HwgId{0xFFFF'0001};
    MemberSet contacts;
    for (std::uint32_t i = 0; i < 8; ++i) contacts.insert(ProcessId{i});
    cfg.lwg.static_contacts = contacts;
  }
  harness::SimWorld world(cfg);
  metrics::LatencyRecorder latency;
  std::vector<std::unique_ptr<CountingLatencyUser>> users;
  for (int i = 0; i < 8; ++i) {
    users.push_back(std::make_unique<CountingLatencyUser>(world, latency));
  }

  const auto user_of = [&](std::size_t i) -> lwg::LwgUser& {
    return *users[i];
  };

  std::vector<LwgId> set_a, set_b;
  for (std::size_t g = 0; g < n; ++g) {
    const LwgId a{0x0A00 + g};
    const LwgId b{0x0B00 + g};
    world.form_lwg(a, harness::process_range(0, 6), user_of);  // 0..5
    world.form_lwg(b, harness::process_range(2, 6), user_of);  // 2..7
    set_a.push_back(a);
    set_b.push_back(b);
  }
  // Give the share rule a few periods to settle the mapping.
  world.run_for(12'000'000);

  constexpr Duration kInterval = 20'000;
  constexpr Duration kMeasure = 8'000'000;
  const Time end = world.simulator().now() + kMeasure;
  latency.clear();
  while (world.simulator().now() < end) {
    const Time now = world.simulator().now();
    Encoder enc;
    enc.put_i64(now);
    std::vector<std::uint8_t> probe = enc.take();
    probe.resize(64, 0);
    for (LwgId g : set_a) world.lwg(0).send(g, probe);
    for (LwgId g : set_b) world.lwg(7).send(g, probe);
    world.run_for(kInterval);
  }
  world.run_for(2'000'000);

  Result r;
  r.mean_us = latency.mean_us();
  r.hwgs = world.lwg(2).member_hwgs().size();  // p2 belongs to both sets
  return r;
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  std::printf("# Overlap configuration: 2 x n groups, memberships 0-5 and "
              "2-7 (overlap 4/6) — the share rule collapses the HWGs\n");
  metrics::Table table({"n-groups-per-set", "service", "mean-latency-us",
                        "hwgs-at-p2"});
  for (std::size_t n : {2, 4, 8}) {
    for (lwg::MappingMode mode :
         {lwg::MappingMode::kPerGroup, lwg::MappingMode::kStaticSingle,
          lwg::MappingMode::kDynamic}) {
      const Result r = run_one(mode, n);
      table.add_row({std::to_string(n), mode_name(mode),
                     metrics::Table::fmt(r.mean_us, 1),
                     std::to_string(r.hwgs)});
    }
  }
  table.print(std::cout);
  std::printf("\nshape check: dynamic converges to one shared HWG (like "
              "static) because the overlap makes sharing cheap; no-lwg "
              "still pays per-group machinery.\n");
  return 0;
}
