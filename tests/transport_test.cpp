// Node runtime: port demultiplexing, framing, malformed-input resilience,
// crash-aware timers, and the process/node identity mapping.
#include "transport/node_runtime.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "frame_mangler.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace plwg::transport {
namespace {

struct Recorder : PortHandler {
  void on_message(NodeId from, Decoder& dec) override {
    froms.push_back(from);
    values.push_back(dec.get_u32());
  }
  std::vector<NodeId> froms;
  std::vector<std::uint32_t> values;
};

struct Thrower : PortHandler {
  void on_message(NodeId, Decoder& dec) override {
    (void)dec.get_u64();  // demands more bytes than any sender provides
  }
};

class TransportTest : public ::testing::Test {
 protected:
  TransportTest() : net_(engine_, sim::NetworkConfig{}) {}
  sim::Engine engine_;
  sim::Simulator& sim_ = engine_.site(0);
  sim::Network net_;
};

TEST_F(TransportTest, RoutesByPort) {
  NodeRuntime a(net_), b(net_);
  Recorder vsync_handler, naming_handler;
  b.register_port(Port::kVsync, vsync_handler);
  b.register_port(Port::kNaming, naming_handler);

  Encoder payload;
  payload.put_u32(7);
  a.send(Port::kVsync, b.id(), payload);
  Encoder payload2;
  payload2.put_u32(9);
  a.send(Port::kNaming, b.id(), payload2);
  sim_.run();

  ASSERT_EQ(vsync_handler.values.size(), 1u);
  EXPECT_EQ(vsync_handler.values[0], 7u);
  EXPECT_EQ(vsync_handler.froms[0], a.id());
  ASSERT_EQ(naming_handler.values.size(), 1u);
  EXPECT_EQ(naming_handler.values[0], 9u);
}

TEST_F(TransportTest, UnboundPortIsDropped) {
  NodeRuntime a(net_), b(net_);
  Encoder payload;
  payload.put_u32(1);
  a.send(Port::kApp, b.id(), payload);  // no handler registered at b
  sim_.run();  // must not crash
  SUCCEED();
}

TEST_F(TransportTest, MalformedPayloadIsContained) {
  NodeRuntime a(net_), b(net_);
  Thrower handler;
  b.register_port(Port::kApp, handler);
  Encoder tiny;
  tiny.put_u8(1);  // Thrower wants a u64
  a.send(Port::kApp, b.id(), tiny);
  sim_.run();  // the CodecError is logged, not propagated
  SUCCEED();
}

TEST_F(TransportTest, MulticastToProcessIds) {
  NodeRuntime a(net_), b(net_), c(net_);
  Recorder hb, hc;
  b.register_port(Port::kApp, hb);
  c.register_port(Port::kApp, hc);
  const std::vector<ProcessId> dests{b.process_id(), c.process_id()};
  Encoder payload;
  payload.put_u32(5);
  a.multicast(Port::kApp, dests, payload);
  sim_.run();
  EXPECT_EQ(hb.values, std::vector<std::uint32_t>{5});
  EXPECT_EQ(hc.values, std::vector<std::uint32_t>{5});
}

TEST_F(TransportTest, TimerSkippedAfterCrash) {
  NodeRuntime a(net_);
  bool fired = false;
  a.after(1'000, [&] { fired = true; });
  net_.crash(a.id());
  sim_.run();
  EXPECT_FALSE(fired);
}

TEST_F(TransportTest, TimerFiresOnLiveNode) {
  NodeRuntime a(net_);
  Time fired_at = -1;
  a.after(2'500, [&] { fired_at = a.now(); });
  sim_.run();
  EXPECT_EQ(fired_at, 2'500);
}

TEST_F(TransportTest, ProcessNodeIdentityMapping) {
  NodeRuntime a(net_), b(net_);
  EXPECT_EQ(node_of(a.process_id()), a.id());
  EXPECT_EQ(process_of(b.id()), b.process_id());
  EXPECT_NE(a.process_id(), b.process_id());
}

TEST_F(TransportTest, DoubleRegisterSamePortAsserts) {
  NodeRuntime a(net_);
  Recorder h1, h2;
  a.register_port(Port::kApp, h1);
  EXPECT_DEATH(a.register_port(Port::kApp, h2), "port already registered");
}

// --- frame hardening & incarnations ----------------------------------------

/// One frame entry: destination port byte and payload.
using RawEntry = std::pair<std::uint8_t, std::vector<std::uint8_t>>;

/// Hand-rolled frame in the runtime's batched wire format (independent
/// reimplementation so a codec bug can't hide in both the sender and the
/// test): [inc u32][checksum u32][count u16][entries], each entry
/// [port u8][len u32][payload].
std::vector<std::uint8_t> raw_batch(std::uint32_t inc,
                                    const std::vector<RawEntry>& entries,
                                    bool valid_checksum = true) {
  std::vector<std::uint8_t> tail;  // count + the entries
  const auto count = static_cast<std::uint16_t>(entries.size());
  tail.push_back(static_cast<std::uint8_t>(count));
  tail.push_back(static_cast<std::uint8_t>(count >> 8));  // little endian
  for (const auto& [port, payload] : entries) {
    tail.push_back(port);
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) {
      tail.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    }
    tail.insert(tail.end(), payload.begin(), payload.end());
  }
  std::uint32_t h = 2166136261u;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 16777619u;
  };
  for (int i = 0; i < 4; ++i) mix(static_cast<std::uint8_t>(inc >> (8 * i)));
  for (std::uint8_t byte : tail) mix(byte);
  if (!valid_checksum) h ^= 1;
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(inc >> (8 * i)));
  }
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(h >> (8 * i)));
  }
  out.insert(out.end(), tail.begin(), tail.end());
  return out;
}

/// A single-message frame.
std::vector<std::uint8_t> raw_frame(std::uint8_t port, std::uint32_t inc,
                                    std::vector<std::uint8_t> payload,
                                    bool valid_checksum = true) {
  return raw_batch(inc, {{port, std::move(payload)}}, valid_checksum);
}

std::vector<std::uint8_t> u32_payload(std::uint32_t v) {
  Encoder enc;
  enc.put_u32(v);
  return {enc.bytes().begin(), enc.bytes().end()};
}

TEST_F(TransportTest, HandRolledFrameMatchesSenderFormat) {
  NodeRuntime a(net_), b(net_);
  Recorder h;
  b.register_port(Port::kApp, h);
  b.on_packet(a.id(), raw_frame(3, 0, u32_payload(42)));
  ASSERT_EQ(h.values, std::vector<std::uint32_t>{42});
  EXPECT_EQ(b.stats().malformed_frames, 0u);
}

TEST_F(TransportTest, ShortAndCorruptFramesAreCountedAndDropped) {
  NodeRuntime a(net_), b(net_);
  Recorder h;
  b.register_port(Port::kApp, h);
  b.on_packet(a.id(), std::vector<std::uint8_t>{});            // empty
  b.on_packet(a.id(), std::vector<std::uint8_t>(kFrameHeaderBytes - 1, 3));
  b.on_packet(a.id(), raw_frame(3, 0, u32_payload(42), /*valid=*/false));
  EXPECT_TRUE(h.values.empty());
  EXPECT_EQ(b.stats().malformed_frames, 3u);
}

TEST_F(TransportTest, StaleIncarnationFramesAreDropped) {
  NodeRuntime a(net_), b(net_);
  Recorder h;
  b.register_port(Port::kApp, h);
  b.on_packet(a.id(), raw_frame(3, 5, u32_payload(1)));  // learns inc 5
  b.on_packet(a.id(), raw_frame(3, 4, u32_payload(2)));  // ghost of inc 4
  b.on_packet(a.id(), raw_frame(3, 5, u32_payload(3)));
  b.on_packet(a.id(), raw_frame(3, 6, u32_payload(4)));  // newer is fine
  EXPECT_EQ(h.values, (std::vector<std::uint32_t>{1, 3, 4}));
  EXPECT_EQ(b.stats().stale_incarnation_drops, 1u);
}

TEST_F(TransportTest, CorruptedIncarnationCannotPoisonPeerTracking) {
  // A bit flip in the incarnation field fails the checksum, so it must not
  // raise the tracked peer incarnation (which would make every genuine
  // frame from then on look stale — corruption would become total deafness).
  NodeRuntime a(net_), b(net_);
  Recorder h;
  b.register_port(Port::kApp, h);
  auto forged = raw_frame(3, 0, u32_payload(1));
  forged[1] ^= 0xFF;  // corrupt the incarnation byte in transit
  b.on_packet(a.id(), forged);
  EXPECT_EQ(b.stats().malformed_frames, 1u);
  b.on_packet(a.id(), raw_frame(3, 0, u32_payload(2)));
  EXPECT_EQ(h.values, std::vector<std::uint32_t>{2});
  EXPECT_EQ(b.stats().stale_incarnation_drops, 0u);
}

TEST_F(TransportTest, DemuxCountsUnboundPortAndDecodeErrors) {
  NodeRuntime a(net_), b(net_);
  Thrower thrower;
  b.register_port(Port::kApp, thrower);
  b.on_packet(a.id(), raw_frame(2, 0, u32_payload(1)));  // kNaming: unbound
  b.on_packet(a.id(), raw_frame(7, 0, u32_payload(1)));  // out of range
  b.on_packet(a.id(), raw_frame(3, 0, {0x01}));          // Thrower wants a u64
  EXPECT_EQ(b.stats().unbound_port_drops, 2u);
  EXPECT_EQ(b.stats().decode_errors, 1u);
}

TEST_F(TransportTest, PortZeroEntryIsAnUnboundDropMidBatch) {
  // Port 0 has no service: an entry on it, inside a frame whose checksum is
  // valid, is dropped like any unbound port and its frame-mates still land.
  NodeRuntime a(net_), b(net_);
  Recorder h;
  b.register_port(Port::kApp, h);
  b.on_packet(a.id(), raw_batch(0, {{3, u32_payload(1)},
                                    {0, u32_payload(2)},
                                    {3, u32_payload(3)}}));
  EXPECT_EQ(h.values, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(b.stats().unbound_port_drops, 1u);
  EXPECT_EQ(b.stats().malformed_frames, 0u);
  EXPECT_EQ(b.stats().decode_errors, 0u);
}

TEST_F(TransportTest, InFlightPacketsDieWithTheTargetIncarnation) {
  NodeRuntime a(net_);
  auto b = std::make_unique<NodeRuntime>(net_);
  const NodeId bid = b->id();
  Recorder h_old;
  b->register_port(Port::kApp, h_old);

  Encoder payload;
  payload.put_u32(7);
  a.send(Port::kApp, bid, payload);  // in flight toward incarnation 0
  net_.crash(bid);
  b = std::make_unique<NodeRuntime>(net_, bid, 1);  // reborn before arrival
  Recorder h_new;
  b->register_port(Port::kApp, h_new);
  sim_.run();

  EXPECT_TRUE(h_old.values.empty());
  EXPECT_TRUE(h_new.values.empty());
  EXPECT_EQ(net_.stats().stale_epoch_drops, 1u);
  EXPECT_EQ(net_.crash_epoch(bid), 1u);

  // The revived node sends and receives normally.
  Encoder fresh;
  fresh.put_u32(9);
  a.send(Port::kApp, bid, fresh);
  sim_.run();
  EXPECT_EQ(h_new.values, std::vector<std::uint32_t>{9});
}

TEST_F(TransportTest, RestartedNodeTagsFramesWithItsIncarnation) {
  auto a = std::make_unique<NodeRuntime>(net_);
  NodeRuntime b(net_);
  const NodeId aid = a->id();
  Recorder h;
  b.register_port(Port::kApp, h);

  net_.crash(aid);
  a = std::make_unique<NodeRuntime>(net_, aid, 3);
  EXPECT_EQ(a->incarnation(), 3u);
  Encoder payload;
  payload.put_u32(1);
  a->send(Port::kApp, b.id(), payload);
  sim_.run();
  ASSERT_EQ(h.values, std::vector<std::uint32_t>{1});

  // b now knows incarnation 3; a hand-delivered ghost from inc 2 is refused.
  b.on_packet(aid, raw_frame(3, 2, u32_payload(99)));
  EXPECT_EQ(h.values, std::vector<std::uint32_t>{1});
  EXPECT_EQ(b.stats().stale_incarnation_drops, 1u);
}

TEST_F(TransportTest, StaleTimersDieWithTheIncarnation) {
  auto a = std::make_unique<NodeRuntime>(net_);
  const NodeId aid = a->id();
  bool old_fired = false;
  bool new_fired = false;
  a->after(1'000, [&] { old_fired = true; });
  net_.crash(aid);
  // The old runtime (and everything its timers point into) is destroyed;
  // the epoch guard is what keeps the stale timer from touching it.
  a = std::make_unique<NodeRuntime>(net_, aid, 1);
  a->after(2'000, [&] { new_fired = true; });
  sim_.run();
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
}

TEST_F(TransportTest, CorruptionInTransitIsContained) {
  NodeRuntime a(net_), b(net_);
  testing::FrameTap tap;
  const NodeId tap_id = net_.add_node(tap);
  Recorder h;
  b.register_port(Port::kApp, h);
  for (int i = 0; i < 64; ++i) {
    Encoder payload;
    payload.put_u32(static_cast<std::uint32_t>(i));
    a.send(Port::kApp, tap_id, payload);
  }
  sim_.run();
  ASSERT_EQ(tap.frames.size(), 64u);
  Rng rng(42);  // every delivery mangled
  for (const auto& frame : tap.frames) {
    b.on_packet(a.id(), testing::corrupt_copy(rng, frame));
  }
  // Corruption degrades to loss, never to a wrong value: a mangled frame
  // fails the length check or the checksum and is dropped. (A frame can
  // still arrive intact — two flips of the same bit cancel — so deliveries
  // are allowed, but only with byte-exact payloads.)
  EXPECT_EQ(b.stats().malformed_frames + h.values.size(), 64u);
  EXPECT_GT(b.stats().malformed_frames, 0u);
  for (std::uint32_t v : h.values) EXPECT_LT(v, 64u);
}

}  // namespace
}  // namespace plwg::transport
