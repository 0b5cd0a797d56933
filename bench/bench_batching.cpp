// Frame coalescing on the Fig. 2 workload: how many wire frames does one
// delivered message cost, and how much does batching + ack piggybacking
// save over the one-frame-per-message transport it replaced?
//
// The unbatched baseline needs no second implementation: it would put every
// protocol message on the wire in its own frame, so its frame count IS
// messages_sent. The reduction factor is therefore messages-per-frame over
// the measurement window, and the acceptance bar is a >= 2x reduction.
//
// The transport flushes at the end of each event-loop round, so a frame
// merges exactly what one round produced (the linger-us column is 0).
#include <cstdio>
#include <iostream>
#include <map>

#include "fig2_common.hpp"

namespace plwg::bench {
namespace {

struct Result {
  double rate = 0;                // delivered multicasts/s
  double msgs_per_frame = 0;      // amortization over the window
  double frames_per_msg = 0;      // coalesced wire cost per delivery
  double baseline_frames_per_msg = 0;  // one-frame-per-message transport
  double piggyback_share = 0;     // acks that rode a data frame / messages
};

Result run_one(lwg::MappingMode mode, std::size_t n) {
  Fig2World f = build_fig2_world(mode, n);
  constexpr int kWindow = 8;
  constexpr std::size_t kBytes = 64;
  constexpr Duration kMeasure = 5'000'000;
  constexpr Duration kTick = 2'000;

  std::map<LwgId, std::uint64_t> sent;
  // The refill runs as a simulation event — the way a real application's
  // sends happen — so the messages one round produces coalesce.
  auto pump = [&] {
    f.world->simulator().schedule_after(0, [&] {
      const std::uint64_t prog_a = f.users[1]->delivered / n;
      const std::uint64_t prog_b = f.users[5]->delivered / n;
      for (LwgId g : f.set_a) {
        while (sent[g] < prog_a + kWindow) {
          f.world->lwg(0).send(g, probe_payload(f.world->simulator().now(),
                                                kBytes));
          sent[g]++;
        }
      }
      for (LwgId g : f.set_b) {
        while (sent[g] < prog_b + kWindow) {
          f.world->lwg(4).send(g, probe_payload(f.world->simulator().now(),
                                                kBytes));
          sent[g]++;
        }
      }
    });
  };

  const Time warm_end = f.world->simulator().now() + 2'000'000;
  while (f.world->simulator().now() < warm_end) {
    pump();
    f.world->run_for(kTick);
  }
  std::uint64_t base = 0;
  for (const auto& u : f.users) base += u->delivered;
  const sim::NetworkStats before = f.world->network().stats();
  const Time start = f.world->simulator().now();
  while (f.world->simulator().now() < start + kMeasure) {
    pump();
    f.world->run_for(kTick);
  }
  std::uint64_t end_count = 0;
  for (const auto& u : f.users) end_count += u->delivered;
  const sim::NetworkStats after = f.world->network().stats();

  const double delivered = static_cast<double>(end_count - base);
  const double frames = static_cast<double>(after.frames_sent -
                                            before.frames_sent);
  const double msgs = static_cast<double>(after.messages_sent -
                                          before.messages_sent);
  const double piggy = static_cast<double>(after.piggybacked_acks -
                                           before.piggybacked_acks);
  Result r;
  if (delivered == 0 || frames == 0) return r;
  r.rate = metrics::rate_per_sec(end_count - base,
                                 f.world->simulator().now() - start) / 4.0;
  r.msgs_per_frame = msgs / frames;
  r.frames_per_msg = frames / delivered;
  r.baseline_frames_per_msg = msgs / delivered;
  r.piggyback_share = msgs == 0 ? 0 : piggy / msgs;
  return r;
}

}  // namespace
}  // namespace plwg::bench

int main() {
  using namespace plwg;
  using namespace plwg::bench;
  std::printf("# Frame coalescing on the Fig. 2 workload (8 groups per set, "
              "closed-loop senders):\n"
              "# baseline = one-frame-per-message transport; reduction-x = "
              "msgs-per-frame\n");
  metrics::Table table({"service", "linger-us", "delivered-msgs-per-sec",
                        "frames-per-delivered-msg", "baseline-frames-per-msg",
                        "reduction-x", "piggybacked-ack-share"});
  for (lwg::MappingMode mode :
       {lwg::MappingMode::kStaticSingle, lwg::MappingMode::kDynamic}) {
    const Result r = run_one(mode, 8);
    table.add_row({mode_name(mode), "0", metrics::Table::fmt(r.rate, 1),
                   metrics::Table::fmt(r.frames_per_msg, 3),
                   metrics::Table::fmt(r.baseline_frames_per_msg, 3),
                   metrics::Table::fmt(r.msgs_per_frame, 2),
                   metrics::Table::fmt(r.piggyback_share, 3)});
  }
  table.print(std::cout);
  std::printf("\nshape check: reduction-x >= 2 (each frame amortizes its "
              "header and per-packet CPU cost over >= 2 protocol messages).\n");
  return 0;
}
