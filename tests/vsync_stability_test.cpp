// Stability-floor log GC: members piggyback their delivery bound on
// heartbeats, the sequencer folds them into a view-wide floor advertised on
// ORDERED traffic and heartbeats, and everyone trims the seqs below it from
// the retransmission log — without breaking NACK repair or flush cuts. The
// log keeps seq order and the first copy of each seq, whatever the arrival
// order; its lookups index by seq, and a logged payload shares (and keeps
// alive) the frame it arrived in.
#include <gtest/gtest.h>

#include <memory>

#include "vsync/ordered_log.hpp"
#include "vsync_fixture.hpp"

namespace plwg::vsync::testing {
namespace {

class VsyncStabilityTest : public VsyncFixture {};

TEST_F(VsyncStabilityTest, StableLogEntriesAreTrimmedEverywhere) {
  build(3);
  const HwgId gid = host(0).allocate_group_id();
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, user(1));
  host(2).join_group(gid, MemberSet{pid(0)}, user(2));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2}, members_of({0, 1, 2})); },
      5'000'000));

  const std::size_t kMsgs = 20;
  for (std::size_t m = 0; m < kMsgs; ++m) {
    host(m % 3).send(gid, payload(static_cast<std::uint8_t>(m)));
    run_for(20'000);
  }
  ASSERT_TRUE(run_until(
      [&] {
        return user(0).total_delivered(gid) >= kMsgs &&
               user(1).total_delivered(gid) >= kMsgs &&
               user(2).total_delivered(gid) >= kMsgs;
      },
      5'000'000));

  // A couple of heartbeat rounds: bounds flow member -> sequencer -> floor
  // -> members, and the periodic tick trims.
  run_for(1'500'000);
  for (std::size_t i = 0; i < 3; ++i) {
    const GroupEndpoint* ep = host(i).endpoint(gid);
    ASSERT_NE(ep, nullptr);
    EXPECT_GT(ep->stats().log_trimmed, 0u) << "member " << i;
  }
}

TEST_F(VsyncStabilityTest, ViewChangeAfterTrimStaysVirtuallySynchronous) {
  build(4);
  const HwgId gid = host(0).allocate_group_id();
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, user(1));
  host(2).join_group(gid, MemberSet{pid(0)}, user(2));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2}, members_of({0, 1, 2})); },
      5'000'000));

  for (std::size_t m = 0; m < 12; ++m) {
    host(m % 3).send(gid, payload(static_cast<std::uint8_t>(m)));
    run_for(20'000);
  }
  run_for(1'500'000);  // let the floor propagate and the logs trim
  ASSERT_GT(host(0).endpoint(gid)->stats().log_trimmed, 0u);

  // A flush over trimmed logs: the cut must come out of what is left, and
  // the joiner must land in a consistent view (the fixture's oracle checks
  // delivery consistency on teardown).
  host(3).join_group(gid, MemberSet{pid(0)}, user(3));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2, 3}, members_of({0, 1, 2, 3})); },
      5'000'000));

  host(3).send(gid, payload(99));
  ASSERT_TRUE(run_until(
      [&] {
        for (std::size_t i = 0; i < 4; ++i) {
          const auto& epochs = user(i).log(gid).epochs;
          if (epochs.empty() || epochs.back().delivered.empty()) return false;
        }
        return true;
      },
      5'000'000));
}

TEST_F(VsyncStabilityTest, OrderedTrafficSuppressesSequencerHeartbeats) {
  build(2);
  const HwgId gid = host(0).allocate_group_id();
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, user(1));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1}, members_of({0, 1})); },
      5'000'000));

  // Steady traffic from the sequencer (process 0 is the smallest member):
  // every ORDERED it multicasts feeds the failure detector and carries the
  // stability floor, so no member may get suspected...
  for (int m = 0; m < 40; ++m) {
    host(0).send(gid, payload(static_cast<std::uint8_t>(m)));
    run_for(50'000);  // 2s total — far beyond suspect_timeout_us
  }
  EXPECT_TRUE(host(0).endpoint(gid)->suspected().empty());
  EXPECT_TRUE(host(1).endpoint(gid)->suspected().empty());
  EXPECT_TRUE(converged(gid, {0, 1}, members_of({0, 1})));
}

// --- the receive log ----------------------------------------------------------

/// Hands a one-member group's endpoint ORDERED messages through its wire
/// entry, in any order, the way reordering and NACK repair deliver them.
class VsyncLogTest : public VsyncFixture {
 protected:
  void SetUp() override {
    build(1);
    gid_ = host(0).allocate_group_id();
    host(0).create_group(gid_, user(0));
    ASSERT_TRUE(run_until([&] { return host(0).view_of(gid_) != nullptr; },
                          5'000'000));
    ep_ = host(0).endpoint(gid_);
    ASSERT_NE(ep_, nullptr);
  }

  /// ORDERED `seq` carrying payload tag `tag` and the stability floor
  /// `stable_upto`.
  void receive(std::uint64_t seq, std::uint8_t tag,
               std::uint64_t stable_upto = 0) {
    OrderedMsgWire wire;
    wire.view = ep_->view().id;
    wire.stable_upto = stable_upto;
    wire.msg.seq = seq;
    wire.msg.origin = pid(0);
    wire.msg.sender_msg_id = 1'000 + seq;
    wire.msg.payload = payload(tag);
    Encoder enc;
    enc.put(wire);
    Decoder dec(enc.bytes());
    ep_->on_message(pid(0), OrderedMsgWire::kType, dec);
  }

  std::vector<std::uint8_t> delivered_tags() {
    std::vector<std::uint8_t> tags;
    for (const auto& epoch : user(0).log(gid_).epochs) {
      for (const auto& [origin, data] : epoch.delivered) tags.push_back(data[0]);
    }
    return tags;
  }

  HwgId gid_;
  GroupEndpoint* ep_ = nullptr;
};

TEST_F(VsyncLogTest, OutOfOrderSeqsAreDeliveredInOrderExactlyOnce) {
  receive(3, 30);
  EXPECT_TRUE(delivered_tags().empty());
  receive(1, 10);
  receive(2, 20);
  receive(2, 20);  // duplicates of delivered seqs change nothing
  receive(3, 30);
  EXPECT_EQ(delivered_tags(), (std::vector<std::uint8_t>{10, 20, 30}));
}

TEST_F(VsyncLogTest, DuplicateSeqNeverReplacesTheFirstCopy) {
  receive(2, 20);
  receive(2, 99);  // same seq, different payload
  receive(1, 10);
  EXPECT_EQ(delivered_tags(), (std::vector<std::uint8_t>{10, 20}));
}

TEST_F(VsyncLogTest, RepairedSeqBelowTheBackIsInsertedInOrder) {
  for (std::uint64_t seq : {1, 2, 4, 5, 6}) {
    receive(seq, static_cast<std::uint8_t>(10 * seq));
  }
  EXPECT_EQ(delivered_tags(), (std::vector<std::uint8_t>{10, 20}));
  // The NACK repair of the gap: 4..6 are found behind it only if 3 went in
  // at its place in seq order.
  receive(3, 30);
  EXPECT_EQ(delivered_tags(),
            (std::vector<std::uint8_t>{10, 20, 30, 40, 50, 60}));
}

TEST_F(VsyncLogTest, LogTrimmedCountsExactlyThePoppedEntries) {
  const std::uint64_t trimmed_before = ep_->stats().log_trimmed;
  for (std::uint64_t seq : {1, 2, 4, 5}) {
    receive(seq, static_cast<std::uint8_t>(seq), /*stable_upto=*/2);
  }
  ep_->on_tick();  // trims 1 and 2; 4 and 5 wait behind the gap
  EXPECT_EQ(ep_->stats().log_trimmed - trimmed_before, 2u);
  receive(3, 3, /*stable_upto=*/5);
  ep_->on_tick();  // trims 3, 4 and 5
  EXPECT_EQ(ep_->stats().log_trimmed - trimmed_before, 5u);
  ep_->on_tick();  // nothing left to trim
  EXPECT_EQ(ep_->stats().log_trimmed - trimmed_before, 5u);
}

// --- OrderedLog lookups --------------------------------------------------------

OrderedMsg logged(std::uint64_t seq) {
  return OrderedMsg{seq, ProcessId{0}, seq, {static_cast<std::uint8_t>(seq)}};
}

OrderedLog log_of(std::initializer_list<std::uint64_t> seqs) {
  OrderedLog log;
  for (std::uint64_t seq : seqs) log.insert(logged(seq));
  return log;
}

/// The seq `log.find(seq)` returns, or 0 for nullptr.
std::uint64_t found(const OrderedLog& log, std::uint64_t seq) {
  const OrderedMsg* m = log.find(seq);
  return m == nullptr ? 0 : m->seq;
}

TEST(OrderedLogTest, DenseLogFindsEverySeqAndNothingPastTheEnds) {
  const OrderedLog log = log_of({3, 4, 5, 6, 7});
  for (std::uint64_t seq = 3; seq <= 7; ++seq) {
    EXPECT_EQ(found(log, seq), seq);
    EXPECT_EQ(log.find(seq)->payload.span()[0], seq);
  }
  EXPECT_EQ(log.find(2), nullptr);   // below the front
  EXPECT_EQ(log.find(8), nullptr);   // past the back
  EXPECT_EQ(log.find(0), nullptr);
  EXPECT_EQ(OrderedLog{}.find(1), nullptr);
}

TEST(OrderedLogTest, HoleBelowTheSeqFallsBackToTheSearch) {
  // 7 and 9 sit one index below seq - front().seq, 10 two below.
  const OrderedLog log = log_of({4, 5, 7, 9, 10});
  for (std::uint64_t seq : {4, 5, 7, 9, 10}) EXPECT_EQ(found(log, seq), seq);
  EXPECT_EQ(log.find(6), nullptr);  // the holes themselves
  EXPECT_EQ(log.find(8), nullptr);
  EXPECT_EQ(log.find(11), nullptr);
}

TEST(OrderedLogTest, SeqsBelowTheFrontAfterTrimAreGone) {
  OrderedLog log = log_of({1, 2, 3, 4, 5});
  EXPECT_EQ(log.trim_upto(3), 3u);
  for (std::uint64_t seq : {1, 2, 3}) EXPECT_EQ(log.find(seq), nullptr);
  EXPECT_EQ(found(log, 4), 4u);
  EXPECT_EQ(found(log, 5), 5u);
  EXPECT_EQ(log.find(6), nullptr);
}

TEST(OrderedLogTest, RepairFillingTheHoleMakesTheLogDenseAgain) {
  OrderedLog log = log_of({1, 2, 4, 5});
  EXPECT_EQ(log.find(3), nullptr);
  log.insert(logged(3));
  ASSERT_EQ(log.size(), 5u);
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    EXPECT_EQ(found(log, seq), seq);
  }
  log.insert(logged(6));  // appends behind the repaired hole
  EXPECT_EQ(found(log, 6), 6u);
}

// --- payload lifetime -----------------------------------------------------------

/// A two-member group whose sequencer (process 0) logs an ORDERED that
/// process 1 never received. The ORDERED arrives in a frame that SetUp
/// drops once it is handled, so the log is the payload's last holder.
class VsyncPayloadLifetimeTest : public VsyncFixture {
 protected:
  static constexpr std::uint8_t kTag = 42;

  void SetUp() override {
    build(2);
    gid_ = host(0).allocate_group_id();
    host(0).create_group(gid_, user(0));
    host(1).join_group(gid_, MemberSet{pid(0)}, user(1));
    ASSERT_TRUE(run_until(
        [&] { return converged(gid_, {0, 1}, members_of({0, 1})); },
        5'000'000));

    OrderedMsgWire wire;
    wire.view = host(0).view_of(gid_)->id;
    wire.msg = OrderedMsg{1, pid(0), 1'000, payload(kTag, 64)};
    Encoder enc;
    enc.put(wire);
    auto frame = std::make_shared<const std::vector<std::uint8_t>>(enc.take());
    const BytesOwner owner(frame, frame->data());
    frame_ = owner;
    Decoder dec(*frame, owner);
    host(0).endpoint(gid_)->on_message(pid(0), OrderedMsgWire::kType, dec);
    // The logged payload shares the frame rather than copying it.
    EXPECT_GT(owner.use_count(), 2);
  }  // drops `frame` and `owner`

  /// Process 1's deliveries, as payload tags.
  std::vector<std::uint8_t> delivered_at_1() {
    std::vector<std::uint8_t> tags;
    for (const auto& epoch : user(1).log(gid_).epochs) {
      for (const auto& [origin, data] : epoch.delivered) {
        EXPECT_EQ(data, payload(kTag, 64));
        tags.push_back(data[0]);
      }
    }
    return tags;
  }

  HwgId gid_;
  std::weak_ptr<const std::uint8_t> frame_;
};

TEST_F(VsyncPayloadLifetimeTest, NackReplyReadsTheLoggedPayload) {
  ASSERT_FALSE(frame_.expired()) << "the log must keep the frame alive";
  Encoder enc;
  enc.put(NackMsg{host(0).view_of(gid_)->id, {1}});
  Decoder dec(enc.bytes());
  host(0).endpoint(gid_)->on_message(pid(1), NackMsg::kType, dec);
  ASSERT_TRUE(run_until([&] { return !delivered_at_1().empty(); }, 1'000'000));
  EXPECT_EQ(delivered_at_1(), std::vector<std::uint8_t>{kTag});
}

TEST_F(VsyncPayloadLifetimeTest, FlushCutRetransmitsTheLoggedPayload) {
  ASSERT_FALSE(frame_.expired()) << "the log must keep the frame alive";
  // A flush with unchanged membership: process 1's have-list lacks seq 1,
  // so the cut retransmits it from the sequencer's log.
  host(0).force_flush(gid_);
  ASSERT_TRUE(run_until([&] { return !delivered_at_1().empty(); }, 5'000'000));
  EXPECT_EQ(delivered_at_1(), std::vector<std::uint8_t>{kTag});
  ASSERT_TRUE(run_until(
      [&] { return converged(gid_, {0, 1}, members_of({0, 1})); },
      5'000'000));
  // The new view cleared the log, its last holder: the frame is freed.
  EXPECT_TRUE(frame_.expired());
}

}  // namespace
}  // namespace plwg::vsync::testing
