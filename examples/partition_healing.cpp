// Partition healing, narrated: the paper's core scenario as a runnable
// walk-through.
//
// A collaboration group spans two sites. The WAN link between them fails;
// both halves keep working in concurrent views (split brain, by design —
// this is a partitionable service). When the link heals, the four-step
// reconciliation of paper Sect. 6 runs: naming-service reconciliation +
// MULTIPLE-MAPPINGS callbacks, deterministic re-mapping, local peer
// discovery, and the merge-views protocol. The program prints the state at
// every act, including the naming-service database (paper Tables 3/4).
#include <cstdio>
#include <cstring>
#include <string>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"

using namespace plwg;

namespace {

class SiteUser : public lwg::LwgUser {
 public:
  explicit SiteUser(std::string name) : name_(std::move(name)) {}
  void on_lwg_view(LwgId, const lwg::LwgView& view) override {
    last_view = view;
  }
  void on_lwg_data(LwgId, ProcessId src,
                   std::span<const std::uint8_t> data) override {
    std::printf("    %s received from p%u: \"%.*s\"\n", name_.c_str(),
                src.value(), static_cast<int>(data.size()),
                reinterpret_cast<const char*>(data.data()));
  }
  lwg::LwgView last_view;

 private:
  std::string name_;
};

std::vector<std::uint8_t> text(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s),
          reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s)};
}

}  // namespace

int main() {
  std::printf("== PLWG partition healing walk-through ==\n\n");

  harness::WorldConfig cfg;
  cfg.num_processes = 4;       // p0,p1 at site East; p2,p3 at site West
  cfg.num_name_servers = 2;    // one name server per site
  harness::SimWorld world(cfg);

  SiteUser east0("east/p0"), east1("east/p1"), west2("west/p2"),
      west3("west/p3");
  SiteUser* users[] = {&east0, &east1, &west2, &west3};

  const LwgId doc{7};
  std::printf("Act 1 - the group forms across both sites\n");
  for (std::size_t i = 0; i < 4; ++i) world.lwg(i).join(doc, *users[i]);
  const std::vector<std::size_t> all = harness::process_range(0, 4);
  if (!world.run_until([&] { return world.lwg_formed(doc, all); },
                       30'000'000)) {
    std::fprintf(stderr, "the group never formed\n");
    return 1;
  }
  std::printf("  common view: %s on hwg %llu\n",
              world.lwg(0).view_of(doc)->members.to_string().c_str(),
              static_cast<unsigned long long>(
                  world.lwg(0).view_of(doc)->hwg.value()));
  world.lwg(0).send(doc, text("everyone sees this"));
  world.run_for(2'000'000);

  std::printf("\nAct 2 - the WAN link fails; each site continues alone\n");
  world.partition({{0, 1}, {2, 3}}, {0, 1});
  if (!world.run_until(
          [&] {
            return world.lwg_formed(doc, {0, 1}) &&
                   world.lwg_formed(doc, {2, 3});
          },
          30'000'000)) {
    std::fprintf(stderr, "the sites never formed their own views\n");
    return 1;
  }
  std::printf("  east view:  %s (id %s)\n",
              world.lwg(0).view_of(doc)->members.to_string().c_str(),
              world.lwg(0).view_of(doc)->id.to_string().c_str());
  std::printf("  west view:  %s (id %s)\n",
              world.lwg(2).view_of(doc)->members.to_string().c_str(),
              world.lwg(2).view_of(doc)->id.to_string().c_str());
  world.lwg(0).send(doc, text("east-only edit"));
  world.lwg(2).send(doc, text("west-only edit"));
  world.run_for(3'000'000);
  std::printf("  naming service at east's server now:\n%s",
              world.server(0).dump_database().c_str());

  std::printf("\nAct 3 - the link heals; the four reconciliation steps run\n");
  world.heal();
  if (!world.run_until([&] { return world.lwg_formed(doc, all); },
                       120'000'000)) {
    std::fprintf(stderr, "the group never merged after the heal\n");
    return 1;
  }
  const lwg::LwgView* merged = world.lwg(0).view_of(doc);
  std::printf("  merged view: %s (id %s) on hwg %llu\n",
              merged->members.to_string().c_str(),
              merged->id.to_string().c_str(),
              static_cast<unsigned long long>(merged->hwg.value()));
  bool identical = true;
  for (std::size_t i = 1; i < 4; ++i) {
    identical &= *world.lwg(i).view_of(doc) == *merged;
  }
  std::printf("  identical view at all four processes: %s\n",
              identical ? "yes" : "NO");
  world.lwg(3).send(doc, text("west greets the reunited group"));
  world.run_for(3'000'000);

  world.run_until(
      [&] {
        const auto& db = world.server(0).database();
        auto it = db.records.find(doc);
        return it != db.records.end() && it->second.entries.size() == 1;
      },
      60'000'000);
  std::printf("\n  naming service after genealogy GC (one row again):\n%s",
              world.server(0).dump_database().c_str());
  std::printf("\ndone.\n");
  return 0;
}
