// Ordering robustness of the totally ordered multicast: reordering jitter,
// NACK repair of single drops, tail-loss repair via the sequencer's
// heartbeat high-water mark, retransmission dedup, and the sequencer's
// per-sender FIFO hold-back.
#include <gtest/gtest.h>

#include "util/codec.hpp"
#include "vsync_fixture.hpp"

namespace plwg::vsync::testing {
namespace {

class VsyncOrderTest : public VsyncFixture {
 protected:
  HwgId form_group(std::size_t n, sim::NetworkConfig net_cfg) {
    build(n, net_cfg);
    const HwgId gid = host(0).allocate_group_id();
    host(0).create_group(gid, user(0));
    std::vector<std::size_t> all{0};
    MemberSet members{pid(0)};
    for (std::size_t i = 1; i < n; ++i) {
      host(i).join_group(gid, MemberSet{pid(0)}, user(i));
      all.push_back(i);
      members.insert(pid(i));
    }
    EXPECT_TRUE(
        run_until([&] { return converged(gid, all, members); }, 20'000'000));
    return gid;
  }

  std::vector<std::uint8_t> flatten(std::size_t i, HwgId gid) {
    std::vector<std::uint8_t> out;
    for (const auto& e : user(i).log(gid).epochs) {
      for (const auto& [src, data] : e.delivered) out.push_back(data[0]);
    }
    return out;
  }
};

TEST_F(VsyncOrderTest, HeavyJitterStillDeliversInTotalOrder) {
  sim::NetworkConfig cfg;
  cfg.jitter_us = 5'000;  // deliveries reorder massively
  cfg.seed = 31;
  const HwgId gid = form_group(3, cfg);
  for (int m = 0; m < 30; ++m) {
    host(m % 3).send(gid, payload(static_cast<std::uint8_t>(m)));
  }
  ASSERT_TRUE(run_until(
      [&] {
        for (std::size_t i = 0; i < 3; ++i) {
          if (user(i).total_delivered(gid) != 30) return false;
        }
        return true;
      },
      20'000'000));
  EXPECT_EQ(flatten(0, gid), flatten(1, gid));
  EXPECT_EQ(flatten(1, gid), flatten(2, gid));
}

TEST_F(VsyncOrderTest, TailLossIsRepairedByHeartbeatHighWater) {
  // Send a burst into a lossy network, then go quiescent: only the
  // sequencer's heartbeat (carrying its high-water mark) can reveal a
  // dropped final message.
  sim::NetworkConfig cfg;
  cfg.drop_probability = 0.2;
  cfg.seed = 77;
  const HwgId gid = form_group(3, cfg);
  for (int m = 0; m < 5; ++m) {
    host(0).send(gid, payload(static_cast<std::uint8_t>(m)));
  }
  // No further traffic: repair must come from heartbeats + NACKs (or a
  // flush if the loss triggered a false suspicion).
  ASSERT_TRUE(run_until(
      [&] {
        for (std::size_t i = 0; i < 3; ++i) {
          if (user(i).total_delivered(gid) < 5) return false;
        }
        return true;
      },
      60'000'000));
  EXPECT_EQ(flatten(1, gid), flatten(2, gid));
}

TEST_F(VsyncOrderTest, RetransmittedSendsAreNotDuplicated) {
  // With drops, senders retransmit SEND_REQs; the sequencer must dedupe so
  // each message is delivered exactly once.
  sim::NetworkConfig cfg;
  cfg.drop_probability = 0.1;
  cfg.seed = 41;
  const HwgId gid = form_group(3, cfg);
  constexpr int kMsgs = 20;
  for (int m = 0; m < kMsgs; ++m) {
    host(1).send(gid, payload(static_cast<std::uint8_t>(m)));
  }
  ASSERT_TRUE(run_until(
      [&] {
        for (std::size_t i = 0; i < 3; ++i) {
          if (user(i).total_delivered(gid) < kMsgs) return false;
        }
        return true;
      },
      60'000'000));
  run_for(5'000'000);  // any duplicate would arrive by now
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(user(i).total_delivered(gid), static_cast<std::size_t>(kMsgs))
        << "process " << i;
    // Strictly increasing tags = exactly-once, FIFO.
    const auto seen = flatten(i, gid);
    for (std::size_t k = 0; k + 1 < seen.size(); ++k) {
      EXPECT_LT(seen[k], seen[k + 1]);
    }
  }
}

TEST_F(VsyncOrderTest, RetransmittedSendsAreNotDuplicatedInALongView) {
  // The same guarantee over thousands of sends per origin at 20% loss: the
  // sequencer's de-duplication state (a watermark per origin plus the few
  // smids ordered out of FIFO order) must keep every send exactly once and
  // in sender order however long the view lives.
  sim::NetworkConfig cfg;
  cfg.drop_probability = 0.2;
  cfg.seed = 43;
  const HwgId gid = form_group(3, cfg);
  constexpr std::uint32_t kSends = 2'000;
  for (std::uint32_t k = 0; k < kSends; ++k) {
    for (std::size_t i = 0; i < 3; ++i) {
      Encoder enc;
      enc.put_u8(static_cast<std::uint8_t>(i));
      enc.put_u32(k);
      host(i).send(gid, enc.take());
    }
    run_for(2'000);
  }
  ASSERT_TRUE(run_until(
      [&] {
        for (std::size_t i = 0; i < 3; ++i) {
          if (user(i).total_delivered(gid) < 3 * kSends) return false;
        }
        return true;
      },
      120'000'000));
  run_for(5'000'000);  // any duplicate would arrive by now
  for (std::size_t observer = 0; observer < 3; ++observer) {
    EXPECT_EQ(user(observer).total_delivered(gid), 3u * kSends)
        << "process " << observer;
    std::vector<std::uint32_t> next(3, 0);
    for (const auto& e : user(observer).log(gid).epochs) {
      for (const auto& [src, data] : e.delivered) {
        Decoder dec(data);
        const std::uint8_t sender = dec.get_u8();
        const std::uint32_t k = dec.get_u32();
        ASSERT_LT(sender, 3u);
        // Exactly once and FIFO: each sender's sends arrive as 0, 1, 2, ...
        ASSERT_EQ(k, next[sender])
            << "process " << observer << ", sender " << int{sender};
        next[sender]++;
      }
    }
  }
}

TEST_F(VsyncOrderTest, InterleavedBurstsKeepPerSenderFifo) {
  sim::NetworkConfig cfg;
  cfg.jitter_us = 1'000;
  cfg.drop_probability = 0.02;
  cfg.seed = 13;
  const HwgId gid = form_group(4, cfg);
  for (int m = 0; m < 12; ++m) {
    for (std::size_t i = 0; i < 4; ++i) {
      host(i).send(gid, payload(static_cast<std::uint8_t>(i * 50 + m)));
    }
    if (m % 4 == 0) run_for(50'000);
  }
  ASSERT_TRUE(run_until(
      [&] {
        for (std::size_t i = 0; i < 4; ++i) {
          if (user(i).total_delivered(gid) < 48) return false;
        }
        return true;
      },
      60'000'000));
  for (std::size_t observer = 0; observer < 4; ++observer) {
    std::map<int, int> last_per_sender;
    for (const auto& e : user(observer).log(gid).epochs) {
      for (const auto& [src, data] : e.delivered) {
        const int sender = data[0] / 50;
        const int m = data[0] % 50;
        auto it = last_per_sender.find(sender);
        if (it != last_per_sender.end()) {
          EXPECT_GT(m, it->second);
        }
        last_per_sender[sender] = m;
      }
    }
  }
}

// The sequencer orders a SEND_REQ on arrival only when its predecessor is
// ordered and nothing of its origin is held back. Smid 2 arriving first
// waits; smid 1 then releases both, in sender order, and leaves nothing held.
TEST_F(VsyncOrderTest, SendReqAheadOfItsPredecessorWaitsForIt) {
  const HwgId gid = form_group(2, {});
  GroupEndpoint* sequencer = host(0).endpoint(gid);
  ASSERT_EQ(sequencer->view().coordinator(), pid(0));
  const auto send_req = [&](std::uint64_t smid) {
    Encoder enc;
    enc.put(SendReqMsg{sequencer->view().id, pid(1), smid,
                       /*first_unacked=*/1,
                       payload(static_cast<std::uint8_t>(smid))});
    Decoder dec(enc.bytes());
    sequencer->on_message(pid(1), SendReqMsg::kType, dec);
  };

  send_req(2);
  EXPECT_EQ(sequencer->held_send_reqs(), 1u);
  run_for(50'000);
  EXPECT_EQ(user(0).total_delivered(gid), 0u);

  send_req(1);
  EXPECT_EQ(sequencer->held_send_reqs(), 0u);
  ASSERT_TRUE(run_until(
      [&] {
        return user(0).total_delivered(gid) == 2 &&
               user(1).total_delivered(gid) == 2;
      },
      1'000'000));
  EXPECT_EQ(flatten(0, gid), (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(flatten(1, gid), (std::vector<std::uint8_t>{1, 2}));
}

}  // namespace
}  // namespace plwg::vsync::testing
