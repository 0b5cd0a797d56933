// Quickstart: the smallest complete PLWG program.
//
// Builds a simulated world of three processes, joins them to one
// light-weight group, multicasts a message, and prints the views and
// deliveries as they happen. Start here to learn the API surface:
//   harness::SimWorld   - wires processes, naming service, network
//   lwg::GroupService   - join / leave / send (paper Table 1, per LwgId)
//   lwg::LwgUser        - on_lwg_view / on_lwg_data upcalls
#include <cstdio>
#include <string>

#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"

using namespace plwg;

namespace {

class ChattyUser : public lwg::LwgUser {
 public:
  ChattyUser(std::string name, harness::SimWorld& world)
      : name_(std::move(name)), world_(world) {}

  void on_lwg_view(LwgId lwg, const lwg::LwgView& view) override {
    std::printf("[%6.1fms] %s: installed view of lwg %llu: %s (mapped on "
                "hwg %llu)\n",
                ms(), name_.c_str(),
                static_cast<unsigned long long>(lwg.value()),
                view.members.to_string().c_str(),
                static_cast<unsigned long long>(view.hwg.value()));
  }

  void on_lwg_data(LwgId lwg, ProcessId src,
                   std::span<const std::uint8_t> data) override {
    std::printf("[%6.1fms] %s: lwg %llu data from p%u: \"%.*s\"\n", ms(),
                name_.c_str(), static_cast<unsigned long long>(lwg.value()),
                src.value(), static_cast<int>(data.size()),
                reinterpret_cast<const char*>(data.data()));
  }

 private:
  [[nodiscard]] double ms() const {
    return static_cast<double>(world_.simulator().now()) / 1000.0;
  }
  std::string name_;
  harness::SimWorld& world_;
};

std::vector<std::uint8_t> text(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s),
          reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s)};
}

}  // namespace

int main() {
  std::printf("== PLWG quickstart: three processes, one group ==\n");

  harness::WorldConfig cfg;
  cfg.num_processes = 3;
  harness::SimWorld world(cfg);

  ChattyUser alice("alice(p0)", world);
  ChattyUser bob("bob  (p1)", world);
  ChattyUser carol("carol(p2)", world);

  const LwgId room{42};
  world.lwg(0).join(room, alice);
  world.lwg(1).join(room, bob);
  world.lwg(2).join(room, carol);

  // Let the naming service resolve the mapping and the views converge.
  if (!world.run_until([&] { return world.lwg_formed(room, {0, 1, 2}); },
                       20'000'000)) {
    std::fprintf(stderr, "the group never formed\n");
    return 1;
  }

  world.lwg(0).send(room, text("hello from alice"));
  world.lwg(2).send(room, text("carol here"));
  world.run_for(2'000'000);

  std::printf("\nalice leaves; the view shrinks:\n");
  world.lwg(0).leave(room);
  world.run_for(2'000'000);

  std::printf("\ndone. hwgs in use at bob: %zu (one group -> one hwg)\n",
              world.lwg(1).member_hwgs().size());
  return 0;
}
