// Decoder-safety fuzzing: every wire message type must either decode or
// throw CodecError on arbitrary input — never crash or read out of bounds —
// and every message round-trips exactly.
#include <gtest/gtest.h>

#include <algorithm>

#include "frame_mangler.hpp"
#include "lwg/messages.hpp"
#include "names/messages.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "transport/node_runtime.hpp"
#include "util/rng.hpp"
#include "vsync/messages.hpp"

namespace plwg {
namespace {

template <class Msg>
void fuzz_decode(std::uint64_t seed, int rounds = 300) {
  Rng rng(seed);
  for (int i = 0; i < rounds; ++i) {
    const std::size_t len = rng.next_below(200);
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    Decoder dec(bytes);
    try {
      (void)Msg::decode(dec);
    } catch (const CodecError&) {
      // expected for malformed input
    }
  }
}

TEST(CodecFuzz, VsyncMessagesSurviveGarbage) {
  fuzz_decode<vsync::OrderedMsgWire>(1);
  fuzz_decode<vsync::SendReqMsg>(2);
  fuzz_decode<vsync::FlushReqMsg>(3);
  fuzz_decode<vsync::FlushAckMsg>(4);
  fuzz_decode<vsync::FlushCutMsg>(5);
  fuzz_decode<vsync::NewViewMsg>(6);
  fuzz_decode<vsync::MergeProbeMsg>(7);
  fuzz_decode<vsync::MergeStartMsg>(8);
  fuzz_decode<vsync::MergeFlushedMsg>(9);
  fuzz_decode<vsync::FetchReplyMsg>(10);
  fuzz_decode<vsync::NackMsg>(11);
  fuzz_decode<vsync::HeartbeatMsg>(12);
}

TEST(CodecFuzz, LwgMessagesSurviveGarbage) {
  fuzz_decode<lwg::DataMsg>(21);
  fuzz_decode<lwg::DataMsgView>(29);  // zero-copy variant of DataMsg
  fuzz_decode<lwg::JoinMsg>(22);
  fuzz_decode<lwg::ViewMsg>(23);
  fuzz_decode<lwg::SwitchMsg>(24);
  fuzz_decode<lwg::SwitchReadyMsg>(25);
  fuzz_decode<lwg::SwitchedMsg>(26);
  fuzz_decode<lwg::RedirectMsg>(27);
  fuzz_decode<lwg::AllViewsMsg>(28);
}

// The memcpy fast paths and the zero-copy view must agree byte-for-byte
// with a reference per-byte decode on arbitrary well-formed-prefix input.
TEST(CodecFuzz, FixedWidthFastPathMatchesByteAssembly) {
  Rng rng(41);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> bytes(16);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    Decoder fast(bytes);
    const std::uint16_t v16 = fast.get_u16();
    const std::uint32_t v32 = fast.get_u32();
    const std::uint64_t v64 = fast.get_u64();
    // Reference little-endian assembly, independent of the codec.
    auto ref = [&bytes](std::size_t off, std::size_t n) {
      std::uint64_t v = 0;
      for (std::size_t k = 0; k < n; ++k) {
        v |= static_cast<std::uint64_t>(bytes[off + k]) << (8 * k);
      }
      return v;
    };
    EXPECT_EQ(v16, ref(0, 2));
    EXPECT_EQ(v32, ref(2, 4));
    EXPECT_EQ(v64, ref(6, 8));
  }
}

// DataMsgView must see exactly the bytes DataMsg would copy, for random
// payloads, and the view must alias the wire buffer rather than copy.
TEST(CodecFuzz, DataMsgViewMatchesOwningDecode) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    lwg::DataMsg msg;
    msg.lwg = LwgId{rng.next_below(1000)};
    msg.lwg_view =
        vsync::ViewId{ProcessId{static_cast<std::uint32_t>(rng.next_below(64))},
                      static_cast<std::uint32_t>(rng.next_below(1 << 20))};
    msg.payload.resize(rng.next_below(300));
    for (auto& b : msg.payload) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    Encoder enc;
    msg.encode(enc);

    Decoder owning_dec(enc.bytes());
    const lwg::DataMsg owned = lwg::DataMsg::decode(owning_dec);
    Decoder view_dec(enc.bytes());
    const lwg::DataMsgView view = lwg::DataMsgView::decode(view_dec);

    EXPECT_EQ(view.lwg, owned.lwg);
    EXPECT_EQ(view.lwg_view, owned.lwg_view);
    ASSERT_EQ(view.payload.size(), owned.payload.size());
    EXPECT_TRUE(std::equal(view.payload.begin(), view.payload.end(),
                           owned.payload.begin()));
    if (!view.payload.empty()) {
      // Aliasing check: the span points into the encoder's buffer.
      EXPECT_GE(view.payload.data(), enc.bytes().data());
      EXPECT_LT(view.payload.data(), enc.bytes().data() + enc.size());
    }
  }
}

TEST(CodecFuzz, NamesMessagesSurviveGarbage) {
  fuzz_decode<names::SetReqMsg>(31);
  fuzz_decode<names::ReadReqMsg>(32);
  fuzz_decode<names::TestSetReqMsg>(33);
  fuzz_decode<names::MappingsMsg>(34);
  fuzz_decode<names::MultipleMappingsMsg>(35);
  fuzz_decode<names::SyncMsg>(36);
}

// The frame demux sits below every parser: arbitrary bytes handed to
// on_packet must be counted and dropped, never asserted on or thrown past.
TEST(CodecFuzz, TransportFrameDemuxSurvivesGarbage) {
  sim::Engine engine;
  sim::Network net(engine, sim::NetworkConfig{});
  transport::NodeRuntime a(net), b(net);
  struct Greedy : transport::PortHandler {
    void on_message(NodeId, Decoder& dec) override {
      (void)dec.get_u64();  // demands bytes garbage frames rarely have
    }
  } greedy;
  b.register_port(transport::Port::kVsync, greedy);
  b.register_port(transport::Port::kApp, greedy);

  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t len = rng.next_below(64);
    std::vector<std::uint8_t> bytes(len);
    for (auto& byte : bytes) {
      byte = static_cast<std::uint8_t>(rng.next_below(256));
    }
    b.on_packet(a.id(), bytes);
  }
  const auto& stats = b.stats();
  // Every garbage frame is accounted for by exactly one drop reason (or was
  // a miraculous valid frame the Greedy handler rejected as a decode error).
  EXPECT_EQ(stats.malformed_frames + stats.stale_incarnation_drops +
                stats.unbound_port_drops + stats.decode_errors,
            2000u);
  // Random 32-bit checksums essentially never validate.
  EXPECT_EQ(stats.malformed_frames, 2000u);
}

// Mutations of *valid* frames: flip a few bits or truncate, as a faulty link
// would. Nothing may crash, and any frame that still decodes must decode to
// an untampered payload (checksum collisions aside, which random bit flips
// cannot find).
TEST(CodecFuzz, MutatedValidFramesSurviveTheDemux) {
  sim::Engine engine;
  sim::Simulator& sim = engine.site(0);
  sim::Network net(engine, sim::NetworkConfig{});
  transport::NodeRuntime a(net), b(net);
  transport::testing::FrameTap tap;
  const NodeId tap_id = net.add_node(tap);
  struct Collect : transport::PortHandler {
    void on_message(NodeId, Decoder& dec) override {
      seen.push_back(dec.get_u32());
    }
    std::vector<std::uint32_t> seen;
  } collect;
  b.register_port(transport::Port::kApp, collect);
  for (std::uint32_t i = 0; i < 500; ++i) {
    Encoder payload;
    payload.put_u32(i);
    payload.put_u64(~static_cast<std::uint64_t>(i));
    a.send(transport::Port::kApp, tap_id, payload);
  }
  sim.run();
  ASSERT_EQ(tap.frames.size(), 500u);
  Rng rng(42);
  for (const auto& frame : tap.frames) {
    b.on_packet(a.id(), transport::testing::corrupt_copy(rng, frame));
  }
  for (std::uint32_t v : collect.seen) EXPECT_LT(v, 500u);
  EXPECT_EQ(collect.seen.size() + b.stats().malformed_frames, 500u);
}

// --- exact round-trips of representative populated messages ---------------

vsync::ViewId vid(std::uint32_t c, std::uint32_t s, std::uint32_t d = 0) {
  return vsync::ViewId{ProcessId{c}, s, d};
}

TEST(CodecRoundTrip, VsyncFlushCut) {
  vsync::FlushCutMsg msg;
  msg.old_view = vid(3, 9);
  msg.epoch = 4;
  msg.cut = {1, 2, 3, 7};
  vsync::OrderedMsg m;
  m.seq = 7;
  m.origin = ProcessId{5};
  m.sender_msg_id = 11;
  m.payload = {9, 8, 7};
  msg.retrans.push_back(m);
  Encoder enc;
  msg.encode(enc);
  Decoder dec(enc.bytes());
  const auto copy = vsync::FlushCutMsg::decode(dec);
  dec.expect_done();
  EXPECT_EQ(copy.old_view, msg.old_view);
  EXPECT_EQ(copy.epoch, msg.epoch);
  EXPECT_EQ(copy.cut, msg.cut);
  ASSERT_EQ(copy.retrans.size(), 1u);
  EXPECT_EQ(copy.retrans[0].payload, m.payload);
}

TEST(CodecRoundTrip, VsyncNewViewWithGenealogy) {
  vsync::NewViewMsg msg;
  msg.view.id = vid(1, 5, 77);
  msg.view.members = MemberSet{ProcessId{1}, ProcessId{2}};
  msg.view.predecessors = {vid(1, 4), vid(9, 2)};
  msg.departed = MemberSet{ProcessId{3}};
  Encoder enc;
  msg.encode(enc);
  Decoder dec(enc.bytes());
  const auto copy = vsync::NewViewMsg::decode(dec);
  dec.expect_done();
  EXPECT_EQ(copy.view, msg.view);
  EXPECT_EQ(copy.departed, msg.departed);
}

TEST(CodecRoundTrip, LwgSwitch) {
  lwg::SwitchMsg msg;
  msg.lwg = LwgId{12};
  msg.lwg_view = vid(2, 3);
  msg.to_hwg = HwgId{0xABCDEF};
  msg.contacts = MemberSet{ProcessId{0}, ProcessId{4}};
  Encoder enc;
  msg.encode(enc);
  Decoder dec(enc.bytes());
  const auto copy = lwg::SwitchMsg::decode(dec);
  dec.expect_done();
  EXPECT_EQ(copy.lwg, msg.lwg);
  EXPECT_EQ(copy.lwg_view, msg.lwg_view);
  EXPECT_EQ(copy.to_hwg, msg.to_hwg);
  EXPECT_EQ(copy.contacts, msg.contacts);
}

TEST(CodecRoundTrip, LwgAllViews) {
  lwg::AllViewsMsg msg;
  lwg::LwgView v;
  v.id = vid(4, 4, 4);
  v.members = MemberSet{ProcessId{4}, ProcessId{5}};
  v.hwg = HwgId{99};
  msg.views.push_back(lwg::LwgViewInfo{LwgId{7}, v, {}});
  Encoder enc;
  msg.encode(enc);
  Decoder dec(enc.bytes());
  const auto copy = lwg::AllViewsMsg::decode(dec);
  dec.expect_done();
  ASSERT_EQ(copy.views.size(), 1u);
  EXPECT_EQ(copy.views[0].lwg, LwgId{7});
  EXPECT_EQ(copy.views[0].view, v);
}

TEST(CodecRoundTrip, LwgViewInfoCarriesAncestry) {
  // The merge-views supersession decision rides on this field; losing it in
  // transit would silently re-enable the divergence it prevents.
  lwg::LwgViewInfo info;
  info.lwg = LwgId{9};
  info.view.id = vid(2, 7, 11);
  info.view.members = MemberSet{ProcessId{2}, ProcessId{3}};
  info.view.hwg = HwgId{5};
  info.ancestors = {vid(2, 6), vid(0, 3, 99), vid(1, 1)};
  Encoder enc;
  info.encode(enc);
  Decoder dec(enc.bytes());
  const auto copy = lwg::LwgViewInfo::decode(dec);
  dec.expect_done();
  EXPECT_EQ(copy.view, info.view);
  EXPECT_EQ(copy.ancestors, info.ancestors);
}

TEST(CodecRoundTrip, NamesSetReq) {
  names::SetReqMsg msg;
  msg.req_id = 1234;
  msg.lwg = LwgId{5};
  msg.entry.lwg_view = vid(0, 2);
  msg.entry.lwg_members = MemberSet{ProcessId{0}};
  msg.entry.hwg = HwgId{17};
  msg.entry.hwg_view = vid(0, 3);
  msg.entry.hwg_members = MemberSet{ProcessId{0}, ProcessId{1}};
  msg.entry.stamp = 6;
  msg.predecessors = {vid(0, 1)};
  Encoder enc;
  msg.encode(enc);
  Decoder dec(enc.bytes());
  const auto copy = names::SetReqMsg::decode(dec);
  dec.expect_done();
  EXPECT_EQ(copy.req_id, msg.req_id);
  EXPECT_EQ(copy.entry, msg.entry);
  EXPECT_EQ(copy.predecessors, msg.predecessors);
}

}  // namespace
}  // namespace plwg
