// Frame coalescing: same-round staging, multicast frame sharing, piggybacked
// ack accounting, the size cap and linger knobs — and the fault semantics of
// batched frames (atomic drop against dead incarnations, whole-batch
// checksum rejection, partition cuts landing mid-linger).
#include <gtest/gtest.h>

#include <memory>

#include "frame_mangler.hpp"
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

class TransportBatchingTest : public ::testing::Test {
 protected:
  TransportBatchingTest() : net_(engine_, sim::NetworkConfig{}) {}

  static Encoder make_payload(std::uint32_t v) {
    Encoder e;
    e.put_u32(v);
    return e;
  }

  sim::Engine engine_;
  sim::Simulator& sim_ = engine_.site(0);
  sim::Network net_;
};

TEST_F(TransportBatchingTest, SameRoundSendsShareOneFrame) {
  NodeRuntime a(net_), b(net_);
  Recorder rec;
  b.register_port(Port::kApp, rec);

  sim_.schedule_after(0, [&] {
    for (std::uint32_t v = 1; v <= 3; ++v) {
      a.send(Port::kApp, b.id(), make_payload(v));
    }
    // Still staged: the flush fires at the end of this round.
    EXPECT_EQ(a.staged_messages(), 3u);
  });
  sim_.run();

  ASSERT_EQ(rec.values, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(net_.stats().frames_sent, 1u);
  EXPECT_EQ(net_.stats().messages_sent, 3u);
  EXPECT_EQ(a.stats().frames_sent, 1u);
  EXPECT_EQ(a.stats().messages_sent, 3u);
  EXPECT_EQ(a.staged_messages(), 0u);
  EXPECT_DOUBLE_EQ(net_.stats().amortization_ratio(), 3.0);
}

TEST_F(TransportBatchingTest, IdenticalMulticastBatchesShareOneTransmission) {
  NodeRuntime a(net_), b(net_), c(net_);
  Recorder rb, rc;
  b.register_port(Port::kApp, rb);
  c.register_port(Port::kApp, rc);

  sim_.schedule_after(0, [&] {
    const std::vector<NodeId> dests{b.id(), c.id()};
    a.multicast(Port::kApp, dests, make_payload(7));
    a.multicast(Port::kApp, dests, make_payload(8));
  });
  sim_.run();

  EXPECT_EQ(rb.values, (std::vector<std::uint32_t>{7, 8}));
  EXPECT_EQ(rc.values, (std::vector<std::uint32_t>{7, 8}));
  // Both destinations staged byte-identical batches, so the flush emitted
  // ONE frame as ONE bus transmission delivered twice.
  EXPECT_EQ(net_.stats().frames_sent, 1u);
  EXPECT_EQ(net_.stats().deliveries, 2u);
}

TEST_F(TransportBatchingTest, DivergentBatchGetsItsOwnFrame) {
  NodeRuntime a(net_), b(net_), c(net_);
  Recorder rb, rc;
  b.register_port(Port::kApp, rb);
  c.register_port(Port::kApp, rc);

  sim_.schedule_after(0, [&] {
    const std::vector<NodeId> dests{b.id(), c.id()};
    a.multicast(Port::kApp, dests, make_payload(7));
    a.send(Port::kApp, b.id(), make_payload(9));  // b's batch now differs
  });
  sim_.run();

  EXPECT_EQ(rb.values, (std::vector<std::uint32_t>{7, 9}));
  EXPECT_EQ(rc.values, (std::vector<std::uint32_t>{7}));
  EXPECT_EQ(net_.stats().frames_sent, 2u);
  EXPECT_EQ(net_.stats().messages_sent, 3u);
}

TEST_F(TransportBatchingTest, PiggybackedAcksAreCounted) {
  NodeRuntime a(net_), b(net_);
  Recorder rec;
  b.register_port(Port::kApp, rec);

  // An ack sharing a frame with data counts as piggybacked...
  sim_.schedule_after(0, [&] {
    a.send(Port::kApp, b.id(), make_payload(1), MsgClass::kData);
    a.send(Port::kApp, b.id(), make_payload(2), MsgClass::kAck);
  });
  // ...an ack alone in its frame does not (it saved nothing).
  sim_.schedule_after(1'000, [&] {
    a.send(Port::kApp, b.id(), make_payload(3), MsgClass::kAck);
  });
  sim_.run();

  EXPECT_EQ(rec.values.size(), 3u);
  EXPECT_EQ(net_.stats().frames_sent, 2u);
  EXPECT_EQ(net_.stats().piggybacked_acks, 1u);
  EXPECT_EQ(a.stats().piggybacked_acks, 1u);
}

TEST_F(TransportBatchingTest, SizeCapFlushesEarly) {
  NodeRuntime a(net_), b(net_);
  Recorder rec;
  b.register_port(Port::kApp, rec);

  sim_.schedule_after(0, [&] {
    Encoder big;
    big.put_u32(1);
    // Each entry is over half the cap, so two cannot share a frame.
    big.put_raw(std::vector<std::uint8_t>(kMaxBatchBytes / 2));
    a.send(Port::kApp, b.id(), big);
    a.send(Port::kApp, b.id(), big);  // would exceed the cap: early flush
  });
  sim_.run();

  EXPECT_EQ(rec.values.size(), 2u);
  EXPECT_EQ(net_.stats().frames_sent, 2u);
}

TEST_F(TransportBatchingTest, LingerMergesAcrossRounds) {
  TransportConfig cfg;
  cfg.max_linger_us = 2'000;
  NodeRuntime a(net_, cfg), b(net_);
  Recorder rec;
  b.register_port(Port::kApp, rec);

  // Sent 1ms apart: the second rides the first's still-lingering batch.
  a.send(Port::kApp, b.id(), make_payload(1));
  EXPECT_EQ(a.staged_messages(), 1u);
  sim_.schedule_after(1'000, [&] {
    a.send(Port::kApp, b.id(), make_payload(2));
  });
  sim_.run();

  EXPECT_EQ(rec.values, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(net_.stats().frames_sent, 1u);
  EXPECT_EQ(net_.stats().messages_sent, 2u);
}

TEST_F(TransportBatchingTest, BatchToDeadIncarnationDropsAtomically) {
  NodeRuntime a(net_);
  auto b = std::make_unique<NodeRuntime>(net_);
  const NodeId b_id = b->id();
  Recorder old_rec;
  b->register_port(Port::kApp, old_rec);

  sim_.schedule_after(0, [&] {
    a.send(Port::kApp, b_id, make_payload(1));
    a.send(Port::kApp, b_id, make_payload(2));
  });
  // Crash + restart b while the 2-message frame is still in flight.
  std::unique_ptr<NodeRuntime> b2;
  Recorder new_rec;
  sim_.schedule_after(10, [&] {
    net_.crash(b_id);
    b2 = std::make_unique<NodeRuntime>(net_, b_id, 1);
    b2->register_port(Port::kApp, new_rec);
  });
  sim_.run();

  // The whole batch died with the old incarnation: no half-delivered frame.
  EXPECT_TRUE(old_rec.values.empty());
  EXPECT_TRUE(new_rec.values.empty());
  EXPECT_EQ(net_.stats().stale_epoch_drops, 1u);
}

/// Frames a sender puts on the wire land on a FrameTap instead of the
/// receiver, so a test can corrupt them before handing them on.
class TransportBatchingCorruptTest : public TransportBatchingTest {
 protected:
  testing::FrameTap tap_;
  NodeId tap_id_ = net_.add_node(tap_);
};

TEST_F(TransportBatchingCorruptTest, CorruptedBatchIsRejectedWhole) {
  NodeRuntime a(net_), b(net_);
  Recorder rec;
  b.register_port(Port::kApp, rec);

  sim_.schedule_after(0, [&] {
    a.send(Port::kApp, tap_id_, make_payload(1));
    a.send(Port::kApp, tap_id_, make_payload(2));
  });
  sim_.run();
  ASSERT_EQ(tap_.frames.size(), 1u);
  Rng rng(42);
  b.on_packet(a.id(), testing::corrupt_copy(rng, tap_.frames[0]));

  // One frame, corrupted in transit: the checksum refuses the batch whole —
  // neither entry leaks through, corruption degrades to loss.
  EXPECT_EQ(net_.stats().frames_sent, 1u);
  EXPECT_TRUE(rec.values.empty());
  EXPECT_EQ(b.stats().malformed_frames, 1u);
}

TEST_F(TransportBatchingTest, PartitionCutMidLingerLosesTheBatch) {
  TransportConfig cfg;
  cfg.max_linger_us = 5'000;
  NodeRuntime a(net_, cfg), b(net_);
  Recorder rec;
  b.register_port(Port::kApp, rec);

  // Staged at t=0, lingering until t=5ms; the partition lands at t=1ms.
  a.send(Port::kApp, b.id(), make_payload(1));
  sim_.schedule_after(1'000, [&] {
    net_.set_partitions({{a.id()}, {b.id()}});
  });
  sim_.run_until(sim_.now() + 50'000);
  EXPECT_TRUE(rec.values.empty());  // flushed into the cut: lost like any loss

  net_.heal();
  a.send(Port::kApp, b.id(), make_payload(2));
  sim_.run();
  EXPECT_EQ(rec.values, (std::vector<std::uint32_t>{2}));
}

}  // namespace
}  // namespace plwg::transport
