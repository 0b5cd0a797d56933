// Per-peer flow control and bounded-memory backpressure: a stalled or slow
// receiver must degrade its senders' THROUGHPUT, never their MEMORY. Covers
// the cumulative-ack window, the bounded held queue under both overflow
// policies, FIFO preservation through the held path, the pure-ack exemption
// that terminates ack recursion, and the aging sweep that unwedges the
// window when a peer dies — plus the stalled-receiver soak from the issue's
// acceptance criteria.
#include <gtest/gtest.h>

#include <functional>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "transport/node_runtime.hpp"

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

class BackpressureTest : public ::testing::Test {
 protected:
  BackpressureTest() : net_(engine_, sim::NetworkConfig{}) {}

  static Encoder make_payload(std::uint32_t v, std::size_t pad_words = 0) {
    Encoder e;
    e.put_u32(v);
    for (std::size_t k = 0; k < pad_words; ++k) e.put_u32(0xFEEDFACE);
    return e;
  }

  sim::Engine engine_;
  sim::Simulator& sim_ = engine_.site(0);
  sim::Network net_;
};

TEST_F(BackpressureTest, FlowControlOffByDefaultIsExactLegacyBehavior) {
  NodeRuntime a(net_), b(net_);
  Recorder rec;
  b.register_port(Port::kApp, rec);
  sim_.schedule_after(0, [&] {
    for (std::uint32_t v = 0; v < 5; ++v) {
      a.send(Port::kApp, b.id(), make_payload(v));
    }
  });
  sim_.run();
  EXPECT_EQ(rec.values.size(), 5u);
  EXPECT_EQ(a.stats().flow_acks_received, 0u);
  EXPECT_EQ(b.stats().flow_acks_sent, 0u);
  EXPECT_EQ(a.inflight_bytes(), 0u);
  EXPECT_EQ(a.queued_bytes(), 0u);
}

TEST_F(BackpressureTest, AcksReleaseTheWindowAndPureAckFramesAreExempt) {
  TransportConfig tc;
  tc.inflight_cap_bytes = 4096;
  NodeRuntime a(net_, tc), b(net_, tc);
  Recorder rec;
  b.register_port(Port::kApp, rec);
  sim_.schedule_after(0, [&] { a.send(Port::kApp, b.id(), make_payload(7)); });
  sim_.run();
  ASSERT_EQ(rec.values.size(), 1u);
  // b acked a's data frame; a's window drained back to zero.
  EXPECT_EQ(b.stats().flow_acks_sent, 1u);
  EXPECT_EQ(a.stats().flow_acks_received, 1u);
  EXPECT_EQ(a.inflight_bytes(), 0u);
  // The ack frame itself was pure kFlow: b never tracked it inflight and a
  // never acked it back — the recursion terminates at depth one.
  EXPECT_EQ(b.inflight_bytes(), 0u);
  EXPECT_EQ(a.stats().flow_acks_sent, 0u);
  EXPECT_EQ(b.stats().flow_acks_received, 0u);
}

TEST_F(BackpressureTest, StalledReceiverSoakHoldsMemoryUnderCap) {
  TransportConfig tc;
  tc.inflight_cap_bytes = 2048;
  tc.send_queue_cap_bytes = 4096;
  tc.overflow_policy = OverflowPolicy::kReject;
  tc.inflight_timeout_us = 60'000'000;  // the sweep must not mask the bound
  NodeRuntime a(net_, tc), b(net_, tc);
  Recorder rec;
  b.register_port(Port::kApp, rec);

  net_.stall_node(b.id(), 3'000'000);

  // ~200 B payload every 10 ms for 3 s — far more than the window plus the
  // held queue can absorb.
  std::uint32_t next = 0;
  std::function<void()> pump = [&] {
    a.send(Port::kApp, b.id(), make_payload(next++, 48));
    if (next < 300) sim_.schedule_after(10'000, pump);
  };
  sim_.schedule_after(0, pump);

  // Soak: at every 50 ms slice of the stall the bound must hold — parked
  // bytes never exceed the queue cap, unacked bytes never exceed the window
  // by more than one in-progress frame.
  for (Time t = 50'000; t <= 3'000'000; t += 50'000) {
    sim_.run_until(t);
    ASSERT_LE(a.queued_bytes(), tc.send_queue_cap_bytes) << "at t=" << t;
    ASSERT_LE(a.inflight_bytes(), tc.inflight_cap_bytes + 512)
        << "at t=" << t;
  }
  EXPECT_GT(a.stats().backpressure_held, 0u);
  EXPECT_GT(a.stats().backpressure_rejects, 0u);

  // Stall lifts: the deferred arrivals burst through, acks flow, and the
  // window + held queue drain completely.
  sim_.run();
  EXPECT_EQ(a.queued_bytes(), 0u);
  EXPECT_EQ(a.inflight_bytes(), 0u);
  // kReject loses only what it refused: delivered + rejected == sent, no
  // duplicates, and FIFO order survived the held-queue detour.
  EXPECT_EQ(rec.values.size() + a.stats().backpressure_rejects, 300u);
  for (std::size_t i = 1; i < rec.values.size(); ++i) {
    ASSERT_LT(rec.values[i - 1], rec.values[i]) << "order broke at " << i;
  }
  EXPECT_LE(a.stats().peak_held_bytes, tc.send_queue_cap_bytes);
}

TEST_F(BackpressureTest, DropOldestEvictsFromTheQueueHead) {
  TransportConfig tc;
  tc.inflight_cap_bytes = 1;  // one frame fills the window
  tc.send_queue_cap_bytes = 100;  // 11 parked entries of 9 B
  tc.overflow_policy = OverflowPolicy::kDropOldest;
  tc.inflight_timeout_us = 60'000'000;
  NodeRuntime a(net_, tc), b(net_, tc);
  Recorder rec;
  b.register_port(Port::kApp, rec);

  net_.stall_node(b.id(), 1'000'000);
  sim_.schedule_after(0, [&] {
    for (std::uint32_t v = 0; v < 50; ++v) {
      a.send(Port::kApp, b.id(), make_payload(v));
    }
  });
  sim_.run();

  EXPECT_GT(a.stats().backpressure_drops, 0u);
  EXPECT_EQ(a.stats().backpressure_rejects, 0u);
  EXPECT_EQ(a.queued_bytes(), 0u);
  // Value 0 went out before the window closed; of the parked rest the queue
  // kept the NEWEST tail and evicted the oldest — so delivery is the first
  // message plus a contiguous run ending in 49.
  ASSERT_GE(rec.values.size(), 2u);
  EXPECT_EQ(rec.values.front(), 0u);
  EXPECT_EQ(rec.values.back(), 49u);
  for (std::size_t i = 2; i < rec.values.size(); ++i) {
    ASSERT_EQ(rec.values[i - 1] + 1, rec.values[i]);
  }
}

TEST_F(BackpressureTest, AgingSweepUnwedgesTheWindowWhenThePeerDies) {
  TransportConfig tc;
  tc.inflight_cap_bytes = 64;
  tc.send_queue_cap_bytes = 1024;
  tc.inflight_timeout_us = 500'000;
  NodeRuntime a(net_, tc), b(net_, tc);
  Recorder rec;
  b.register_port(Port::kApp, rec);

  sim_.schedule_after(0, [&] { a.send(Port::kApp, b.id(), make_payload(1)); });
  sim_.run();
  ASSERT_EQ(rec.values.size(), 1u);

  net_.crash(b.id());
  sim_.schedule_after(0, [&] {
    for (std::uint32_t v = 2; v <= 20; ++v) {
      a.send(Port::kApp, b.id(), make_payload(v));
    }
  });
  // Frames toward the corpse never ack; without the sweep the window would
  // wedge shut and the held queue would sit forever. The sweep presumes the
  // unacked frames lost, drains the queue onto the (dead) wire, and the
  // whole ledger empties in bounded time.
  sim_.run();
  EXPECT_GT(a.stats().inflight_expired, 0u);
  EXPECT_EQ(a.queued_bytes(), 0u);
  EXPECT_EQ(a.inflight_bytes(), 0u);
}

TEST_F(BackpressureTest, OversizeMessageForTheQueueIsAlwaysRejected) {
  TransportConfig tc;
  tc.inflight_cap_bytes = 1;
  tc.send_queue_cap_bytes = 16;  // smaller than one padded message
  tc.overflow_policy = OverflowPolicy::kDropOldest;
  NodeRuntime a(net_, tc), b(net_, tc);
  Recorder rec;
  b.register_port(Port::kApp, rec);
  net_.stall_node(b.id(), 200'000);
  sim_.schedule_after(0, [&] {
    a.send(Port::kApp, b.id(), make_payload(1));       // takes the window
    a.send(Port::kApp, b.id(), make_payload(2, 16));   // can never fit parked
  });
  sim_.run();
  EXPECT_EQ(a.stats().backpressure_rejects, 1u);
  EXPECT_EQ(rec.values, (std::vector<std::uint32_t>{1}));
}

TEST_F(BackpressureTest, FlowPortIsNotRegistrable) {
  NodeRuntime a(net_);
  Recorder rec;
  EXPECT_DEATH(a.register_port(Port::kFlow, rec), "reserved");
}

}  // namespace
}  // namespace plwg::transport
