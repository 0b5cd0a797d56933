// Trading floor: the Swiss-Exchange-style workload from the paper's
// introduction — one group per data "subject", many subjects with largely
// overlapping membership, all multiplexed onto a handful of heavy-weight
// groups by the dynamic LWG service.
//
// Demonstrates: resource sharing (12 equities subjects on one HWG), the
// optimistic initial mapping putting a small bonds subject on the equities
// HWG, the interference it suffers there (filtered foreign packets), and
// the interference rule evicting it to its own HWG.
#include <cstdio>
#include <vector>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"

using namespace plwg;

namespace {

class TickerUser : public lwg::LwgUser {
 public:
  void on_lwg_view(LwgId, const lwg::LwgView&) override {}
  void on_lwg_data(LwgId, ProcessId, std::span<const std::uint8_t>) override {
    ++quotes_received;
  }
  std::uint64_t quotes_received = 0;
};

std::vector<std::uint8_t> quote(std::uint32_t instrument, double price) {
  Encoder enc;
  enc.put_u32(instrument);
  enc.put_u64(static_cast<std::uint64_t>(price * 100));
  return enc.take();
}

}  // namespace

int main() {
  std::printf("== PLWG trading floor: subject groups over shared HWGs ==\n");

  harness::WorldConfig cfg;
  cfg.num_processes = 8;  // 8 trading engines
  cfg.lwg.policy_period_us = 4'000'000;
  cfg.lwg.shrink_delay_us = 5'000'000;
  harness::SimWorld world(cfg);
  std::vector<TickerUser> users(8);

  // Twelve "equities" subjects, disseminated to engines 0-6.
  std::vector<LwgId> equities;
  for (std::uint64_t s = 0; s < 12; ++s) {
    const LwgId subject{100 + s};
    equities.push_back(subject);
    world.lwg(0).join(subject, users[0]);
    world.run_until(
        [&] { return world.lwg(0).view_of(subject) != nullptr; }, 10'000'000);
    for (std::size_t e = 1; e < 7; ++e) world.lwg(e).join(subject, users[e]);
  }
  // One low-volume "bonds" subject traded by engine 0 (which also trades
  // equities) and the dedicated bonds engine 7. The optimistic mapping
  // first co-locates it with the equities — engine 7 then pays to filter
  // the entire equities feed until the interference rule reacts.
  const LwgId bonds{200};
  world.lwg(0).join(bonds, users[0]);
  world.run_until([&] { return world.lwg(0).view_of(bonds) != nullptr; },
                  10'000'000);
  world.lwg(7).join(bonds, users[7]);

  const std::vector<std::size_t> equity_desk = harness::process_range(0, 7);
  const bool formed = world.run_until(
      [&] {
        for (LwgId s : equities) {
          if (!world.lwg_formed(s, equity_desk)) return false;
        }
        return world.lwg_formed(bonds, {0, 7});
      },
      60'000'000);
  if (!formed) {
    std::fprintf(stderr, "a subject group never formed\n");
    return 1;
  }

  std::printf("subjects: %zu equities (engines 0-6) + 1 bonds (engines 0,7)\n",
              equities.size());
  const bool comapped =
      *world.lwg(0).hwg_of(bonds) == *world.lwg(0).hwg_of(equities[0]);
  std::printf("optimistic initial mapping co-located bonds with equities: "
              "%s\n",
              comapped ? "yes" : "no");

  // Market data flows while the policies settle the mapping.
  for (int round = 0; round < 20; ++round) {
    for (std::size_t s = 0; s < equities.size(); ++s) {
      world.lwg(0).send(equities[s],
                        quote(static_cast<std::uint32_t>(s), 100.0 + round));
    }
    world.lwg(0).send(bonds, quote(999, 99.5));
    world.run_for(400'000);
  }
  world.run_for(10'000'000);

  std::printf("\nafter the mapping policies ran:\n");
  std::printf("  hwgs at engine 0 (trades both desks):   %zu\n",
              world.lwg(0).member_hwgs().size());
  std::printf("  hwgs at engine 7 (bonds only):          %zu\n",
              world.lwg(7).member_hwgs().size());
  const bool separated =
      *world.lwg(0).hwg_of(bonds) != *world.lwg(0).hwg_of(equities[0]);
  std::printf("  interference rule isolated the bonds subject: %s\n",
              separated ? "yes" : "no");
  std::printf("  equities packets engine 7 had to filter while co-mapped: "
              "%llu\n",
              static_cast<unsigned long long>(
                  world.lwg(7).stats().data_filtered));
  std::printf("  quotes delivered at engine 5: %llu\n",
              static_cast<unsigned long long>(users[5].quotes_received));
  std::uint64_t switches = 0;
  for (std::size_t e = 0; e < 8; ++e) {
    switches += world.lwg(e).stats().switches_completed;
  }
  std::printf("  switches executed (all engines): %llu\n",
              static_cast<unsigned long long>(switches));
  return 0;
}
