// Heap allocations per LWG multicast on the steady-state data path.
//
// This executable replaces the global operator new with one that counts
// while `g_counting` is set; it is its own test binary so the replacement
// reaches no other suite. The world is four processes on one LAN with the
// oracle off and one LWG over all four. After a warm-up, each sender
// multicasts 2,000 payloads of 64 B, one every 2 ms, and the count covers
// everything the world does in that window: the send, the frames, the four
// deliveries, and the heartbeats and ticks that run meanwhile.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "harness/world.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace plwg {
namespace {

/// Counts deliveries without allocating.
class CountingUser final : public lwg::LwgUser {
 public:
  void on_lwg_view(LwgId, const lwg::LwgView&) override {}
  void on_lwg_data(LwgId, ProcessId, std::span<const std::uint8_t>) override {
    ++delivered;
  }
  std::uint64_t delivered = 0;
};

class AllocTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kProcesses = 4;
  static constexpr int kWarmupSends = 500;
  static constexpr int kCountedSends = 2'000;
  static constexpr std::size_t kPayloadBytes = 64;
  static constexpr Duration kSendIntervalUs = 2'000;

  void SetUp() override {
    harness::WorldConfig cfg;
    cfg.num_processes = kProcesses;
    cfg.oracle = false;
    world_ = std::make_unique<harness::SimWorld>(cfg);
    ASSERT_TRUE(world_->form_lwg(
        kLwg, {0, 1, 2, 3},
        [this](std::size_t i) -> lwg::LwgUser& { return users_[i]; }));
  }

  /// Heap allocations per multicast from process `sender`, all four
  /// deliveries included.
  double allocs_per_multicast(std::size_t sender) {
    for (int k = 0; k < kWarmupSends; ++k) {
      world_->lwg(sender).send(kLwg, payload(k));
      world_->run_for(kSendIntervalUs);
    }
    std::vector<std::vector<std::uint8_t>> payloads;
    payloads.reserve(kCountedSends);
    for (int k = 0; k < kCountedSends; ++k) payloads.push_back(payload(k));
    std::uint64_t before[kProcesses];
    for (std::size_t i = 0; i < kProcesses; ++i) {
      before[i] = users_[i].delivered;
    }

    g_allocs = 0;
    g_counting = true;
    for (auto& p : payloads) {
      world_->lwg(sender).send(kLwg, std::move(p));
      world_->run_for(kSendIntervalUs);
    }
    g_counting = false;

    for (std::size_t i = 0; i < kProcesses; ++i) {
      EXPECT_EQ(users_[i].delivered - before[i],
                static_cast<std::uint64_t>(kCountedSends))
          << "process " << i;
    }
    return static_cast<double>(g_allocs.load()) / kCountedSends;
  }

  static std::vector<std::uint8_t> payload(int k) {
    return std::vector<std::uint8_t>(kPayloadBytes,
                                     static_cast<std::uint8_t>(k));
  }

  static constexpr LwgId kLwg{1};
  std::unique_ptr<harness::SimWorld> world_;
  CountingUser users_[kProcesses];
};

// The sequencer (p0, the HWG view's coordinator) orders its own sends: one
// ORDERED frame per multicast. A member's send adds a SEND_REQ frame to it.
TEST_F(AllocTest, SteadyStateMulticastAllocatesLittle) {
  const double from_sequencer = allocs_per_multicast(0);
  const double from_member = allocs_per_multicast(3);
  std::printf("allocations per multicast: sequencer sends %.2f, "
              "member sends %.2f\n",
              from_sequencer, from_member);
  RecordProperty("allocs_per_multicast_sequencer",
                 std::to_string(from_sequencer));
  RecordProperty("allocs_per_multicast_member", std::to_string(from_member));
  EXPECT_LE(from_sequencer, 4.8);
  EXPECT_LE(from_member, 7.8);
}

}  // namespace
}  // namespace plwg
