// Self-tests for the protocol oracle: prove each checker actually fires on
// a violating event stream (the oracle is not vacuously green), by driving
// the observer interfaces directly with synthetic histories — and once end
// to end, by swallowing a real delivery report inside a live SimWorld.
#include <gtest/gtest.h>

#include <vector>

#include "harness/world.hpp"
#include "names/mapping.hpp"
#include "oracle/oracle.hpp"
#include "oracle/shard_mux.hpp"
#include "sim/engine.hpp"

namespace plwg::oracle {
namespace {

using vsync::View;
using vsync::ViewId;

MemberSet members_of(std::initializer_list<std::uint32_t> pids) {
  MemberSet set;
  for (std::uint32_t p : pids) set.insert(ProcessId{p});
  return set;
}

View hwg_view(ViewId id, std::initializer_list<std::uint32_t> pids) {
  View v;
  v.id = id;
  v.members = members_of(pids);
  return v;
}

lwg::LwgView lwg_view(ViewId id, std::initializer_list<std::uint32_t> pids,
                      HwgId hwg) {
  lwg::LwgView v;
  v.id = id;
  v.members = members_of(pids);
  v.hwg = hwg;
  return v;
}

std::vector<std::uint8_t> payload(std::uint8_t tag) { return {tag, 0, 0, 0}; }

/// Every recorded violation carries `invariant`, and at least one was
/// recorded.
void expect_only_invariant(const ProtocolOracle& oracle, int invariant) {
  EXPECT_FALSE(oracle.clean());
  for (const Violation& v : oracle.violations()) {
    EXPECT_EQ(v.invariant, invariant) << v.description;
  }
}

class OracleSelfTest : public ::testing::Test {
 protected:
  ProtocolOracle oracle_;
  const HwgId gid_{7};
  const LwgId lwg_{9};
  const ProcessId p1_{1}, p2_{2};
  const ViewId va_{ProcessId{1}, 1};
  const ViewId vb_{ProcessId{1}, 2};
};

TEST_F(OracleSelfTest, CleanHistoryStaysClean) {
  // Two processes, one message, one view change — a correct history.
  for (ProcessId p : {p1_, p2_}) {
    oracle_.on_hwg_view_installed(p, gid_, hwg_view(va_, {1, 2}));
    oracle_.on_hwg_delivered(p, gid_, va_, 1, p1_, 1, payload(1));
    oracle_.on_hwg_view_installed(p, gid_, hwg_view(vb_, {1, 2}));
  }
  EXPECT_TRUE(oracle_.clean()) << oracle_.report_json();
  EXPECT_EQ(oracle_.total_violations(), 0u);
}

TEST_F(OracleSelfTest, Invariant1SameViewPairDifferentMessages) {
  oracle_.on_hwg_view_installed(p1_, gid_, hwg_view(va_, {1, 2}));
  oracle_.on_hwg_view_installed(p2_, gid_, hwg_view(va_, {1, 2}));
  oracle_.on_hwg_delivered(p1_, gid_, va_, 1, p1_, 1, payload(1));
  // p2 never delivers, yet installs the same successor view.
  oracle_.on_hwg_view_installed(p1_, gid_, hwg_view(vb_, {1, 2}));
  oracle_.on_hwg_view_installed(p2_, gid_, hwg_view(vb_, {1, 2}));
  expect_only_invariant(oracle_, 1);
}

TEST_F(OracleSelfTest, Invariant1SlotDisagreement) {
  oracle_.on_hwg_view_installed(p1_, gid_, hwg_view(va_, {1, 2}));
  oracle_.on_hwg_view_installed(p2_, gid_, hwg_view(va_, {1, 2}));
  // Same (view, seq) slot, different message: total order broken.
  oracle_.on_hwg_delivered(p1_, gid_, va_, 1, p1_, 1, payload(1));
  oracle_.on_hwg_delivered(p2_, gid_, va_, 1, p2_, 5, payload(2));
  expect_only_invariant(oracle_, 1);
}

TEST_F(OracleSelfTest, Invariant1EndpointResetSuppressesPairing) {
  // p2's endpoint resets between the two installs (rejoin): its gap is not
  // a virtual-synchrony violation, and must not form a pair.
  oracle_.on_hwg_view_installed(p1_, gid_, hwg_view(va_, {1, 2}));
  oracle_.on_hwg_view_installed(p2_, gid_, hwg_view(va_, {1, 2}));
  oracle_.on_hwg_delivered(p1_, gid_, va_, 1, p1_, 1, payload(1));
  oracle_.on_hwg_endpoint_reset(p2_, gid_);
  oracle_.on_hwg_view_installed(p1_, gid_, hwg_view(vb_, {1, 2}));
  oracle_.on_hwg_view_installed(p2_, gid_, hwg_view(vb_, {1, 2}));
  EXPECT_TRUE(oracle_.clean()) << oracle_.report_json();
}

TEST_F(OracleSelfTest, Invariant2InstallerNotMember) {
  oracle_.on_hwg_view_installed(ProcessId{5}, gid_, hwg_view(va_, {1, 2}));
  expect_only_invariant(oracle_, 2);
}

TEST_F(OracleSelfTest, Invariant3OriginNotMember) {
  oracle_.on_hwg_view_installed(p1_, gid_, hwg_view(va_, {1, 2}));
  oracle_.on_hwg_delivered(p1_, gid_, va_, 1, ProcessId{7}, 1, payload(1));
  expect_only_invariant(oracle_, 3);
}

TEST_F(OracleSelfTest, Invariant3DeliveryInUninstalledView) {
  oracle_.on_hwg_delivered(p1_, gid_, va_, 1, p1_, 1, payload(1));
  expect_only_invariant(oracle_, 3);
}

TEST_F(OracleSelfTest, Invariant6SameViewIdDifferentMembership) {
  oracle_.on_hwg_view_installed(p1_, gid_, hwg_view(va_, {1, 2}));
  oracle_.on_hwg_view_installed(p2_, gid_, hwg_view(va_, {2, 3}));
  // p2 is a member of its own (bogus) view, so only #6 fires.
  expect_only_invariant(oracle_, 6);
}

TEST_F(OracleSelfTest, Invariant6MergedLwgViewWrongCoordinator) {
  // disambig != 0 marks a deterministically merged id: the coordinator
  // must be the minimum member (paper Fig. 5), here it is 2.
  const ViewId merged{ProcessId{2}, 3, 0xabcd};
  oracle_.on_lwg_view_installed(p2_, lwg_, lwg_view(merged, {1, 2}, gid_),
                                {});
  expect_only_invariant(oracle_, 6);
}

TEST_F(OracleSelfTest, Invariant4SameLwgViewDifferentHwg) {
  oracle_.on_lwg_view_installed(p1_, lwg_, lwg_view(va_, {1, 2}, HwgId{10}),
                                {});
  oracle_.on_lwg_view_installed(p2_, lwg_, lwg_view(va_, {1, 2}, HwgId{11}),
                                {});
  expect_only_invariant(oracle_, 4);
}

TEST_F(OracleSelfTest, Invariant1LwgPairDivergence) {
  const auto view_a = lwg_view(va_, {1, 2}, gid_);
  const auto view_b = lwg_view(vb_, {1, 2}, gid_);
  oracle_.on_lwg_view_installed(p1_, lwg_, view_a, {});
  oracle_.on_lwg_view_installed(p2_, lwg_, view_a, {});
  oracle_.on_lwg_delivered(p1_, lwg_, va_, p1_, payload(1));
  oracle_.on_lwg_delivered(p2_, lwg_, va_, p1_, payload(2));  // different data
  oracle_.on_lwg_view_installed(p1_, lwg_, view_b, {});
  oracle_.on_lwg_view_installed(p2_, lwg_, view_b, {});
  expect_only_invariant(oracle_, 1);
}

TEST_F(OracleSelfTest, Invariant5UnresolvedJoinFailsConvergence) {
  ConvergenceSnapshot snap;
  snap.alive = members_of({1, 2});
  snap.unresolved.emplace_back(p1_, lwg_);
  EXPECT_FALSE(check_converged(snap).empty());
  EXPECT_FALSE(oracle_.check_convergence(snap));
  expect_only_invariant(oracle_, 5);
}

TEST_F(OracleSelfTest, Invariant5DivergedHoldersFailConvergence) {
  ConvergenceSnapshot snap;
  snap.alive = members_of({1, 2});
  snap.holders[lwg_].push_back({p1_, lwg_view(va_, {1, 2}, gid_)});
  snap.holders[lwg_].push_back({p2_, lwg_view(vb_, {1, 2}, gid_)});
  EXPECT_FALSE(oracle_.check_convergence(snap));
  expect_only_invariant(oracle_, 5);
}

TEST_F(OracleSelfTest, Invariant4StaleNsRowFailsConvergence) {
  // Holders converged, but the server kept two alive rows: genealogy GC
  // did not fire.
  ConvergenceSnapshot snap;
  snap.alive = members_of({1, 2});
  snap.holders[lwg_].push_back({p1_, lwg_view(vb_, {1, 2}, gid_)});
  snap.holders[lwg_].push_back({p2_, lwg_view(vb_, {1, 2}, gid_)});

  names::Database db;
  names::MappingEntry stale;
  stale.lwg_view = va_;
  stale.lwg_members = members_of({1});
  stale.hwg = gid_;
  names::MappingEntry fresh;
  fresh.lwg_view = vb_;
  fresh.lwg_members = members_of({1, 2});
  fresh.hwg = gid_;
  db.records[lwg_].entries[va_] = stale;
  db.records[lwg_].entries[vb_] = fresh;
  snap.databases.emplace_back(NodeId{100}, &db);

  EXPECT_FALSE(oracle_.check_convergence(snap));
  expect_only_invariant(oracle_, 4);
}

TEST_F(OracleSelfTest, ConvergedSnapshotPasses) {
  ConvergenceSnapshot snap;
  snap.alive = members_of({1, 2});
  snap.holders[lwg_].push_back({p1_, lwg_view(vb_, {1, 2}, gid_)});
  snap.holders[lwg_].push_back({p2_, lwg_view(vb_, {1, 2}, gid_)});

  names::Database db;
  names::MappingEntry fresh;
  fresh.lwg_view = vb_;
  fresh.lwg_members = members_of({1, 2});
  fresh.hwg = gid_;
  db.records[lwg_].entries[vb_] = fresh;
  db.records[lwg_].superseded.insert(va_);
  snap.databases.emplace_back(NodeId{100}, &db);

  EXPECT_TRUE(check_converged(snap).empty());
  EXPECT_TRUE(oracle_.check_convergence(snap));
  EXPECT_TRUE(oracle_.clean());
}

TEST_F(OracleSelfTest, ReportJsonCarriesViolationAndTrace) {
  oracle_.on_hwg_view_installed(p1_, gid_, hwg_view(va_, {1, 2}));
  oracle_.on_hwg_view_installed(p2_, gid_, hwg_view(va_, {2, 3}));
  const std::string report = oracle_.report_json();
  EXPECT_NE(report.find("\"invariant\":6"), std::string::npos) << report;
  EXPECT_NE(report.find("\"traces\""), std::string::npos) << report;
  EXPECT_NE(report.find("hwg-view"), std::string::npos) << report;
  oracle_.clear();
  EXPECT_TRUE(oracle_.clean());
  EXPECT_EQ(oracle_.total_violations(), 0u);
}

/// The oracle fed through ShardedObserverMux from inside a site's events,
/// so every hook takes the ringed path: a delivery reaches the oracle as its
/// payload key, hashed in the hook. Payloads that differ only past their
/// first 8-byte word must still yield different keys.
class OracleMuxTest : public ::testing::Test {
 protected:
  static constexpr Time kAt = 1'000;

  OracleMuxTest() { engine_.add_barrier_hook([this] { mux_.drain(); }); }

  /// Fires `hooks` as one site-0 event and runs the engine past it: the
  /// oracle sees nothing until the end-of-run drain.
  template <class F>
  void fire_in_site(F hooks) {
    engine_.post(0, kAt, [this, hooks] {
      ASSERT_EQ(sim::Engine::current_site(), 0);
      hooks(mux_);
      EXPECT_EQ(oracle_.total_violations(), 0u);  // still in the ring
    });
    engine_.run_until(kAt + 1);
  }

  sim::Engine engine_;
  ProtocolOracle oracle_{[this] { return mux_.now(); }};
  ShardedObserverMux mux_{engine_, oracle_};
  /// The same history fed straight through the span hooks, for comparison.
  ProtocolOracle direct_{[] { return kAt; }};
  const HwgId gid_{7};
  const LwgId lwg_{9};
  const ProcessId p1_{1}, p2_{2};
  const ViewId va_{ProcessId{1}, 1};
  const ViewId vb_{ProcessId{1}, 2};
  // Equal first word (and first byte, the LWG trace tag); byte 9 differs.
  const std::vector<std::uint8_t> data_a_{0xab, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::vector<std::uint8_t> data_b_{0xab, 1, 2, 3, 4, 5, 6, 7, 8, 0x49,
                                          10};
};

TEST_F(OracleMuxTest, HwgSlotDisagreementPastTheFirstWord) {
  auto history = [this](auto& obs) {
    for (ProcessId p : {p1_, p2_}) {
      obs.on_hwg_view_installed(p, gid_, hwg_view(va_, {1, 2}));
    }
    // Same (view, seq), same origin and smid: only the payload differs.
    obs.on_hwg_delivered(p1_, gid_, va_, 1, p1_, 1, data_a_);
    obs.on_hwg_delivered(p2_, gid_, va_, 1, p1_, 1, data_b_);
  };
  fire_in_site([&](ShardedObserverMux& mux) { history(mux); });
  expect_only_invariant(oracle_, 1);
  history(direct_);
  EXPECT_EQ(oracle_.report_json(), direct_.report_json());
  oracle_.clear();
  direct_.clear();
}

TEST_F(OracleMuxTest, LwgPairDivergencePastTheFirstWord) {
  auto history = [this](auto& obs) {
    const auto view_a = lwg_view(va_, {1, 2}, gid_);
    const auto view_b = lwg_view(vb_, {1, 2}, gid_);
    obs.on_lwg_view_installed(p1_, lwg_, view_a, {});
    obs.on_lwg_view_installed(p2_, lwg_, view_a, {});
    obs.on_lwg_delivered(p1_, lwg_, va_, p1_, data_a_);
    obs.on_lwg_delivered(p2_, lwg_, va_, p1_, data_b_);
    obs.on_lwg_view_installed(p1_, lwg_, view_b, {});
    obs.on_lwg_view_installed(p2_, lwg_, view_b, {});
  };
  fire_in_site([&](ShardedObserverMux& mux) { history(mux); });
  expect_only_invariant(oracle_, 1);
  // The trace event still records the payload's first byte (0xab = 171).
  const std::string report = oracle_.report_json();
  EXPECT_NE(report.find("\"kind\":\"lwg-deliver\",\"group\":9,\"view\":"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("\"peer\":1,\"arg\":171}"), std::string::npos)
      << report;
  history(direct_);
  EXPECT_EQ(report, direct_.report_json());
  oracle_.clear();
  direct_.clear();
}

/// End-to-end deliberate violation: a live 3-process world where the oracle
/// is made to *miss* one delivery report from process 1. When the next view
/// change closes the epoch, the same-view-pair comparison must flag
/// invariant #1 — and nothing else.
TEST(OracleEndToEndTest, DroppedDeliveryReportFlagsInvariant1) {
  class NullUser : public lwg::LwgUser {
   public:
    void on_lwg_view(LwgId, const lwg::LwgView&) override {}
    void on_lwg_data(LwgId, ProcessId, std::span<const std::uint8_t>) override {}
  };

  harness::WorldConfig cfg;
  cfg.num_processes = 3;
  cfg.num_name_servers = 1;
  cfg.net.seed = 42;
  harness::SimWorld world(std::move(cfg));
  ASSERT_TRUE(world.oracle_enabled());

  const LwgId id{1};
  NullUser users[3];
  MemberSet all;
  for (std::size_t i = 0; i < 3; ++i) {
    world.lwg(i).join(id, users[i]);
    all.insert(world.pid(i));
  }
  ASSERT_TRUE(world.run_until(
      [&] {
        for (std::size_t i = 0; i < 3; ++i) {
          const lwg::LwgView* v = world.lwg(i).view_of(id);
          if (v == nullptr || v->members != all) return false;
        }
        return true;
      },
      20'000'000));

  // Swallow process 1's report of the next HWG delivery.
  world.oracle().test_drop_next_hwg_delivery(world.pid(1));
  world.lwg(0).send(id, {1, 2, 3, 4});
  world.run_for(2'000'000);
  ASSERT_TRUE(world.oracle().clean()) << world.oracle().report_json();

  // Crash process 2: the surviving pair installs a new view, closing the
  // epoch on both — process 1's record is one message short.
  world.crash(2);
  MemberSet survivors;
  survivors.insert(world.pid(0));
  survivors.insert(world.pid(1));
  ASSERT_TRUE(world.run_until(
      [&] {
        for (std::size_t i = 0; i < 2; ++i) {
          const lwg::LwgView* v = world.lwg(i).view_of(id);
          if (v == nullptr || v->members != survivors) return false;
        }
        return true;
      },
      60'000'000));

  expect_only_invariant(world.oracle(), 1);
  // Acknowledge, or the SimWorld destructor aborts on the planted violation.
  world.oracle().clear();
}

}  // namespace
}  // namespace plwg::oracle
