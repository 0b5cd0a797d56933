// Hot-path microbenchmarks: simulator event loop, codec encode/decode, the
// member-set / policy / RNG / byte-hash building blocks, and an end-to-end
// Fig. 2-style throughput run.
//
// These are the two layers every experiment funnels through (millions of
// events, one codec pass per message), so this file is the regression gate
// for hot-path work. `scripts/bench_smoke.sh` builds and runs it; compare
// interleaved runs of both trees before merging changes that touch src/sim
// or src/util/codec.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "fig2_common.hpp"
#include "lwg/messages.hpp"
#include "lwg/policy.hpp"
#include "sim/simulator.hpp"
#include "util/codec.hpp"
#include "util/hash.hpp"
#include "util/member_set.hpp"
#include "util/rng.hpp"
#include "vsync/messages.hpp"

namespace plwg {
namespace {

// --- simulator ---------------------------------------------------------------

// Callbacks sized like the network's delivery closures (this + shared
// buffer + ids): large enough that std::function would heap-allocate.
void BM_SimulatorScheduleFire(benchmark::State& state) {
  const auto data = std::make_shared<const std::vector<std::uint8_t>>(64, 0xCD);
  std::uint64_t sink = 0;
  // Queue depth sized to what the end-to-end Fig. 2 run actually holds
  // pending at steady state (measured: ~60-80 events), scheduled and
  // drained in batches the way the protocol pump does.
  constexpr int kDepth = 64;
  constexpr int kBatches = 64;
  constexpr int kEvents = kDepth * kBatches;
  // One long-lived event loop, as every experiment runs it: millions of
  // events through a single Simulator, so the queue's steady-state
  // footprint is reached once and the schedule/fire cycle is what's
  // measured.
  sim::Simulator sim;
  for (auto _ : state) {
    for (int b = 0; b < kBatches; ++b) {
      for (int i = 0; i < kDepth; ++i) {
        sim.schedule_after(i, [&sink, data, i, extra = static_cast<std::uint64_t>(i)] {
          sink += data->size() + extra + static_cast<std::uint64_t>(i);
        });
      }
      sim.run();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_SimulatorScheduleFire);

// Protocol timer pattern: most timers are cancelled and rescheduled before
// they fire (heartbeat / retransmission / watchdog timers).
void BM_SimulatorTimerChurn(benchmark::State& state) {
  constexpr int kRounds = 2048;
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    sim::TimerId pending[8] = {};
    for (int i = 0; i < kRounds; ++i) {
      const int slot = i & 7;
      sim.cancel(pending[slot]);
      pending[slot] =
          sim.schedule_at(i + 100, [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}
BENCHMARK(BM_SimulatorTimerChurn);

// --- codec -------------------------------------------------------------------

vsync::OrderedMsgWire make_wire(std::size_t payload_bytes) {
  vsync::OrderedMsgWire wire;
  wire.view = vsync::ViewId{ProcessId{3}, 7};
  wire.msg.seq = 42;
  wire.msg.origin = ProcessId{5};
  wire.msg.sender_msg_id = 9;
  wire.msg.payload.assign(payload_bytes, 0xAB);
  return wire;
}

vsync::FlushAckMsg make_flush_ack(std::size_t seqs) {
  vsync::FlushAckMsg msg;
  msg.old_view = vsync::ViewId{ProcessId{1}, 4};
  msg.epoch = 2;
  msg.sender = ProcessId{6};
  msg.have.reserve(seqs);
  for (std::size_t i = 1; i <= seqs; ++i) msg.have.push_back(i);
  return msg;
}

// One fresh message serialization, as the send path performs it.
void BM_CodecEncodeOrderedWire(benchmark::State& state) {
  const auto wire = make_wire(static_cast<std::size_t>(state.range(0)));
  std::size_t encoded = 0;
  for (auto _ : state) {
    Encoder enc;
    enc.reserve(wire.encoded_size_hint());
    wire.encode(enc);
    encoded = enc.size();
    benchmark::DoNotOptimize(enc.bytes().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(encoded));
}
BENCHMARK(BM_CodecEncodeOrderedWire)->Arg(64)->Arg(1024);

void BM_CodecDecodeOrderedWire(benchmark::State& state) {
  const auto wire = make_wire(static_cast<std::size_t>(state.range(0)));
  Encoder enc;
  wire.encode(enc);
  for (auto _ : state) {
    Decoder dec(enc.bytes());
    auto decoded = vsync::OrderedMsgWire::decode(dec);
    benchmark::DoNotOptimize(decoded.msg.payload.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(enc.size()));
}
BENCHMARK(BM_CodecDecodeOrderedWire)->Arg(64)->Arg(1024);

// LWG data-path decode as the receive path performs it before the user
// upcall: DataMsgView leaves the payload a view of the packet buffer.
void BM_CodecDecodeDataMsg(benchmark::State& state) {
  lwg::DataMsg msg;
  msg.lwg = LwgId{7};
  msg.lwg_view = vsync::ViewId{ProcessId{3}, 9};
  msg.payload.assign(static_cast<std::size_t>(state.range(0)), 0xEF);
  Encoder enc;
  msg.encode(enc);
  for (auto _ : state) {
    Decoder dec(enc.bytes());
    const auto decoded = lwg::DataMsgView::decode(dec);
    benchmark::DoNotOptimize(decoded.payload.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(enc.size()));
}
BENCHMARK(BM_CodecDecodeDataMsg)->Arg(64)->Arg(1024);

// Integer-dense message (a flush ACK's have-list): exercises the
// fixed-width-integer paths with no payload memcpy to hide behind.
void BM_CodecEncodeFlushAck(benchmark::State& state) {
  const auto msg = make_flush_ack(512);
  std::size_t encoded = 0;
  for (auto _ : state) {
    Encoder enc;
    enc.reserve(msg.encoded_size_hint());
    msg.encode(enc);
    encoded = enc.size();
    benchmark::DoNotOptimize(enc.bytes().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(encoded));
}
BENCHMARK(BM_CodecEncodeFlushAck);

void BM_CodecDecodeFlushAck(benchmark::State& state) {
  const auto msg = make_flush_ack(512);
  Encoder enc;
  msg.encode(enc);
  for (auto _ : state) {
    Decoder dec(enc.bytes());
    auto decoded = vsync::FlushAckMsg::decode(dec);
    benchmark::DoNotOptimize(decoded.have.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(enc.size()));
}
BENCHMARK(BM_CodecDecodeFlushAck);

// --- building blocks ---------------------------------------------------------

MemberSet make_members(std::size_t n, std::uint32_t offset) {
  MemberSet set;
  for (std::uint32_t i = 0; i < n; ++i) set.insert(ProcessId{offset + i});
  return set;
}

void BM_MemberSetIntersection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const MemberSet a = make_members(n, 0);
  const MemberSet b = make_members(n, static_cast<std::uint32_t>(n / 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.intersection_size(b));
  }
}
BENCHMARK(BM_MemberSetIntersection)->Arg(8)->Arg(64)->Arg(512);

void BM_MemberSetUnion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const MemberSet a = make_members(n, 0);
  const MemberSet b = make_members(n, static_cast<std::uint32_t>(n / 2));
  for (auto _ : state) {
    MemberSet u = a.set_union(b);
    benchmark::DoNotOptimize(u.members().data());
  }
}
BENCHMARK(BM_MemberSetUnion)->Arg(8)->Arg(64)->Arg(512);

// The Fig. 1 share rule, evaluated per HWG pair by the policy pass.
void BM_PolicyShareRule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const MemberSet a = make_members(n, 0);
  const MemberSet b = make_members(n, static_cast<std::uint32_t>(n / 4));
  const lwg::policy::PolicyParams params{4.0, 4.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(lwg::policy::should_collapse(a, b, params));
  }
}
BENCHMARK(BM_PolicyShareRule)->Arg(8)->Arg(64)->Arg(512);

// The one byte-pass hash (frame checksum, oracle payload keys) against the
// byte-at-a-time 64-bit FNV-1a loop it replaced, at a small frame, a typical
// batch and the batch size cap.
std::vector<std::uint8_t> hash_input(std::size_t n) {
  Rng rng(7);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

void BM_HashBytes(benchmark::State& state) {
  const auto data = hash_input(static_cast<std::size_t>(state.range(0)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash_bytes(data, seed++));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashBytes)->Arg(64)->Arg(1024)->Arg(16 * 1024);

void BM_HashBytesFnv1aBaseline(benchmark::State& state) {
  const auto data = hash_input(static_cast<std::size_t>(state.range(0)));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    std::uint64_t h = 1469598103934665603ULL ^ seed++;
    for (std::uint8_t b : data) {
      h ^= b;
      h *= 1099511628211ULL;
    }
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashBytesFnv1aBaseline)->Arg(64)->Arg(1024)->Arg(16 * 1024);

void BM_RngNextBelow(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_below(1000));
  }
}
BENCHMARK(BM_RngNextBelow);

// --- end-to-end --------------------------------------------------------------

// Fig. 2-style closed-loop throughput on the dynamic service, measured in
// wall-clock terms: how many simulated events (and delivered multicasts)
// the stack pushes through per real second.
void BM_EndToEndFig2(benchmark::State& state) {
  using namespace plwg::bench;
  constexpr int kWindow = 8;
  constexpr std::size_t kBytes = 64;
  constexpr Duration kMeasure = 2'000'000;
  constexpr Duration kTick = 2'000;
  std::uint64_t delivered_total = 0;
  std::uint64_t events_total = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Fig2World f = build_fig2_world(lwg::MappingMode::kDynamic, 2);
    std::map<LwgId, std::uint64_t> sent;
    const auto pump = [&] {
      const std::uint64_t prog = f.users[1]->delivered / f.set_a.size();
      for (LwgId g : f.set_a) {
        while (sent[g] < prog + kWindow) {
          f.world->lwg(0).send(
              g, probe_payload(f.world->simulator().now(), kBytes));
          sent[g]++;
        }
      }
    };
    // Warmup: fill the windows before the timed section.
    const Time warm_end = f.world->simulator().now() + 1'000'000;
    while (f.world->simulator().now() < warm_end) {
      pump();
      f.world->run_for(kTick);
    }
    std::uint64_t base = 0;
    for (const auto& u : f.users) base += u->delivered;
    const std::uint64_t ev_base = f.world->simulator().total_events_run();
    state.ResumeTiming();
    const Time start = f.world->simulator().now();
    while (f.world->simulator().now() < start + kMeasure) {
      pump();
      f.world->run_for(kTick);
    }
    state.PauseTiming();
    std::uint64_t end_count = 0;
    for (const auto& u : f.users) end_count += u->delivered;
    delivered_total += end_count - base;
    events_total += f.world->simulator().total_events_run() - ev_base;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered_total));
  state.counters["sim_events_per_sec"] = benchmark::Counter(
      static_cast<double>(events_total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EndToEndFig2)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace
}  // namespace plwg

BENCHMARK_MAIN();
