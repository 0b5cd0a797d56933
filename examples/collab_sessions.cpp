// Collaboration sessions (CCTL-style, paper's second motivating system):
// one LWG per shared workspace, membership evolves at run time, and the
// dynamic service keeps re-deriving good mappings — the interference rule
// gives a small side-session its own HWG, and the shrink rule retires
// memberships that no longer carry any session.
#include <cstdio>
#include <map>
#include <vector>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"

using namespace plwg;

namespace {

class SessionUser : public lwg::LwgUser {
 public:
  void on_lwg_view(LwgId lwg, const lwg::LwgView& view) override {
    views[lwg] = view;
  }
  void on_lwg_data(LwgId lwg, ProcessId,
                   std::span<const std::uint8_t>) override {
    edits[lwg]++;
  }
  std::map<LwgId, lwg::LwgView> views;
  std::map<LwgId, std::uint64_t> edits;
};

std::vector<std::uint8_t> edit(std::uint32_t pos, std::uint8_t ch) {
  Encoder enc;
  enc.put_u32(pos);
  enc.put_u8(ch);
  return enc.take();
}

void print_mapping(harness::SimWorld& world, std::size_t at,
                   const std::vector<LwgId>& docs) {
  std::printf("  mapping at p%zu:", at);
  for (LwgId d : docs) {
    const auto h = world.lwg(at).hwg_of(d);
    if (!h) continue;
    std::printf("  doc%llu->hwg%llu",
                static_cast<unsigned long long>(d.value()),
                static_cast<unsigned long long>(h->value()));
  }
  std::printf("   (hwg memberships: %zu)\n",
              world.lwg(at).member_hwgs().size());
}

}  // namespace

int main() {
  std::printf("== PLWG collaboration sessions ==\n");

  harness::WorldConfig cfg;
  cfg.num_processes = 8;
  cfg.lwg.policy_period_us = 3'000'000;
  cfg.lwg.shrink_delay_us = 4'000'000;
  harness::SimWorld world(cfg);
  std::vector<SessionUser> users(8);

  const LwgId doc1{1}, doc2{2}, side{3};
  const std::vector<LwgId> all_docs{doc1, doc2, side};

  std::printf("\nphase 1: the whole team (8 users) works on doc1 and doc2;\n"
              "         users 6-7 also open a small side session\n");
  for (LwgId d : {doc1, doc2}) {
    world.lwg(0).join(d, users[0]);
    world.run_until([&] { return world.lwg(0).view_of(d) != nullptr; },
                    10'000'000);
    for (std::size_t u = 1; u < 8; ++u) world.lwg(u).join(d, users[u]);
  }
  const std::vector<std::size_t> team = harness::process_range(0, 8);
  const bool docs_formed = world.run_until(
      [&] {
        return world.lwg_formed(doc1, team) && world.lwg_formed(doc2, team);
      },
      60'000'000);
  // The side session opens once the big sessions exist, so the optimistic
  // initial mapping puts it on the big HWG.
  const auto user_of = [&](std::size_t u) -> lwg::LwgUser& {
    return users[u];
  };
  if (!docs_formed || !world.form_lwg(side, {6, 7}, user_of)) {
    std::fprintf(stderr, "a session never formed\n");
    return 1;
  }
  print_mapping(world, 6, all_docs);

  std::printf("\nphase 2: everyone edits; the side session (2 of 8 members "
              "= a minority)\n         is evicted by the interference rule\n");
  for (int round = 0; round < 12; ++round) {
    for (std::size_t u = 0; u < 8; ++u) {
      world.lwg(u).send(u % 2 == 0 ? doc1 : doc2,
                        edit(round, static_cast<std::uint8_t>('a' + u)));
    }
    world.lwg(6).send(side, edit(round, 'z'));
    world.run_for(400'000);
  }
  world.run_for(8'000'000);
  print_mapping(world, 6, all_docs);
  const bool evicted = *world.lwg(6).hwg_of(side) != *world.lwg(6).hwg_of(doc1);
  std::printf("  side session on its own hwg: %s\n", evicted ? "yes" : "no");

  std::printf("\nphase 3: users 6-7 close doc1/doc2; the shrink rule retires "
              "their membership\n         of the big hwg\n");
  for (std::size_t u = 6; u < 8; ++u) {
    world.lwg(u).leave(doc1);
    world.lwg(u).leave(doc2);
  }
  world.run_until(
      [&] {
        return world.lwg(6).member_hwgs().size() == 1 &&
               world.lwg(7).member_hwgs().size() == 1;
      },
      60'000'000);
  print_mapping(world, 6, all_docs);
  print_mapping(world, 0, all_docs);

  std::printf("\nphase 4: editing continues against the settled mapping\n");
  for (int round = 0; round < 5; ++round) {
    world.lwg(0).send(doc1, edit(100 + round, 'x'));
    world.lwg(6).send(side, edit(100 + round, 'y'));
    world.run_for(300'000);
  }
  world.run_for(2'000'000);
  std::printf("  edits delivered: doc1@user1=%llu side@user7=%llu\n",
              static_cast<unsigned long long>(users[1].edits[doc1]),
              static_cast<unsigned long long>(users[7].edits[side]));

  std::uint64_t switches = 0, created = 0, left = 0;
  for (std::size_t u = 0; u < 8; ++u) {
    switches += world.lwg(u).stats().switches_completed;
    created += world.lwg(u).stats().hwgs_created;
    left += world.lwg(u).stats().hwgs_left;
  }
  std::printf("\nservice activity: %llu switches, %llu hwgs created, %llu "
              "hwg departures (shrink rule)\n",
              static_cast<unsigned long long>(switches),
              static_cast<unsigned long long>(created),
              static_cast<unsigned long long>(left));
  return 0;
}
