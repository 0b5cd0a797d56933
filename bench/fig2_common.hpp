// Shared workload builder for the paper's Fig. 2 experiments.
//
// Configuration (paper Sect. 3.3): 8 processes on a loaded 10 Mbps shared
// Ethernet; two sets of n user groups; every group in set A has members
// {0,1,2,3}, every group in set B has members {4,5,6,7} (disjoint sets).
//   * no LWG service  -> every user group is its own HWG          (kPerGroup)
//   * static LWG      -> all 2n groups on one HWG of all 8        (kStaticSingle)
//   * dynamic LWG     -> set A on HWG1 {0..3}, set B on HWG2 {4..7} (kDynamic)
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"
#include "metrics/stats.hpp"

namespace plwg::bench {

inline constexpr std::size_t kProcesses = 8;
inline constexpr std::size_t kGroupSize = 4;

inline const char* mode_name(lwg::MappingMode mode) {
  switch (mode) {
    case lwg::MappingMode::kDynamic: return "dynamic-lwg";
    case lwg::MappingMode::kStaticSingle: return "static-lwg";
    case lwg::MappingMode::kPerGroup: return "no-lwg";
  }
  return "?";
}

/// Measures one-way latency: senders embed the simulated send time; every
/// other member records (now - sent) on delivery.
class LatencyUser : public lwg::LwgUser {
 public:
  LatencyUser(harness::SimWorld& world, metrics::LatencyRecorder& recorder)
      : world_(world), recorder_(recorder) {}

  void on_lwg_view(LwgId, const lwg::LwgView&) override {}
  void on_lwg_data(LwgId, ProcessId, std::span<const std::uint8_t> data) override {
    Decoder dec(data);
    const Time sent = dec.get_i64();
    recorder_.record(world_.simulator().now() - sent);
    ++delivered;
  }

  std::uint64_t delivered = 0;

 private:
  harness::SimWorld& world_;
  metrics::LatencyRecorder& recorder_;
};

struct Fig2World {
  std::unique_ptr<harness::SimWorld> world;
  std::vector<std::unique_ptr<LatencyUser>> users;  // one per process
  metrics::LatencyRecorder latency;
  std::vector<LwgId> set_a;  // groups over {0,1,2,3}
  std::vector<LwgId> set_b;  // groups over {4,5,6,7}
};

/// The Fig. 2 world's configuration for `mode`, oracle off.
inline harness::WorldConfig fig2_config(lwg::MappingMode mode) {
  harness::WorldConfig cfg;
  cfg.oracle = false;  // measuring the protocol, not checking it
  cfg.num_processes = kProcesses;
  cfg.num_name_servers = 1;
  cfg.net.bandwidth_bps = 10e6;        // the paper's 10 Mbps Ethernet
  cfg.net.node_process_cost_us = 300;  // per-packet protocol processing
                                       // (SunOS-era stacks: receiving is
                                       // expensive, which is what filtering
                                       // foreign traffic costs)
  // Membership operations were expensive on the paper's hardware (protocol
  // stack reconfiguration per view change); this is the per-message charge
  // that makes running one flush per group costly.
  cfg.vsync.membership_msg_cost_us = 5'000;
  cfg.lwg.mode = mode;
  cfg.lwg.policy_period_us = 60'000'000;  // paper default: heuristics hourly-scale
  if (mode == lwg::MappingMode::kStaticSingle) {
    cfg.lwg.static_hwg = HwgId{0xFFFF'0001};
    MemberSet contacts;
    for (std::size_t i = 0; i < kProcesses; ++i) {
      contacts.insert(ProcessId{static_cast<std::uint32_t>(i)});
    }
    cfg.lwg.static_contacts = contacts;
  }
  return cfg;
}

/// Builds the Fig. 2 world from `cfg` with n groups per set, joins all
/// groups (sequentially per group for a deterministic mapping), and waits
/// until every group converged.
inline Fig2World build_fig2_world(const harness::WorldConfig& cfg,
                                  std::size_t n) {
  Fig2World f;
  f.world = std::make_unique<harness::SimWorld>(cfg);
  f.users.reserve(kProcesses);
  for (std::size_t i = 0; i < kProcesses; ++i) {
    f.users.push_back(std::make_unique<LatencyUser>(*f.world, f.latency));
  }

  // The first member founds (and maps) each group, then the rest join.
  const auto user_of = [&](std::size_t i) -> lwg::LwgUser& {
    return *f.users[i];
  };
  for (std::size_t g = 0; g < n; ++g) {
    const LwgId a{0x0A00 + g};
    const LwgId b{0x0B00 + g};
    f.world->form_lwg(a, harness::process_range(0, kGroupSize), user_of);
    f.world->form_lwg(b, harness::process_range(4, kGroupSize), user_of);
    f.set_a.push_back(a);
    f.set_b.push_back(b);
  }
  // Settle naming-service traffic and heartbeats.
  f.world->run_for(3'000'000);
  return f;
}

inline Fig2World build_fig2_world(lwg::MappingMode mode, std::size_t n) {
  return build_fig2_world(fig2_config(mode), n);
}

/// Encodes a latency-probe payload of at least `bytes` total.
inline std::vector<std::uint8_t> probe_payload(Time now, std::size_t bytes) {
  Encoder enc;
  enc.put_i64(now);
  std::vector<std::uint8_t> out = enc.take();
  if (out.size() < bytes) out.resize(bytes, 0);
  return out;
}

}  // namespace plwg::bench
