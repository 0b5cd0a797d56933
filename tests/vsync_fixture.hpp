// Shared test fixture for the heavy-weight group layer: N processes with
// NodeRuntime + VsyncHost on one simulated network, and a recording
// GroupUser that logs view installations and deliveries so tests can check
// the virtual-synchrony guarantees.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "durable/store.hpp"
#include "oracle/oracle.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "transport/node_runtime.hpp"
#include "vsync/vsync_host.hpp"

namespace plwg::vsync::testing {

/// Records everything the vsync layer tells a user, per group.
class RecordingUser : public GroupUser {
 public:
  struct Epoch {
    View view;
    std::vector<std::pair<ProcessId, std::vector<std::uint8_t>>> delivered;
  };
  struct GroupLog {
    // delivered[0] holds messages delivered before the first view (none,
    // normally); epoch i+1 corresponds to views[i].
    std::vector<Epoch> epochs;
    int stops = 0;
  };

  explicit RecordingUser(VsyncHost* host = nullptr) : host_(host) {}
  void attach(VsyncHost& host) { host_ = &host; }

  void on_view(HwgId gid, const View& view) override {
    logs_[gid].epochs.push_back(Epoch{view, {}});
  }
  void on_data(HwgId gid, ProcessId src,
               std::span<const std::uint8_t> data) override {
    auto& log = logs_[gid];
    if (log.epochs.empty()) log.epochs.push_back(Epoch{});
    log.epochs.back().delivered.emplace_back(
        src, std::vector<std::uint8_t>(data.begin(), data.end()));
  }
  void on_stop(HwgId gid) override {
    logs_[gid].stops++;
    if (host_ != nullptr) host_->stop_ok(gid);  // immediate StopOk
  }

  [[nodiscard]] const GroupLog& log(HwgId gid) { return logs_[gid]; }
  [[nodiscard]] const View* last_view(HwgId gid) {
    auto& epochs = logs_[gid].epochs;
    for (auto it = epochs.rbegin(); it != epochs.rend(); ++it) {
      if (it->view.id.valid()) return &it->view;
    }
    return nullptr;
  }
  [[nodiscard]] std::size_t total_delivered(HwgId gid) {
    std::size_t n = 0;
    for (const auto& e : logs_[gid].epochs) n += e.delivered.size();
    return n;
  }

 private:
  VsyncHost* host_;
  std::map<HwgId, GroupLog> logs_;
};

class VsyncFixture : public ::testing::Test {
 protected:
  void build(std::size_t n, sim::NetworkConfig net_cfg = {},
             VsyncConfig vs_cfg = {}) {
    net_ = std::make_unique<sim::Network>(engine_, net_cfg);
    oracle_ = std::make_unique<oracle::ProtocolOracle>(
        [this] { return sim_.now(); });
    for (std::size_t i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<transport::NodeRuntime>(*net_));
      stores_.push_back(std::make_unique<durable::ProcessStore>());
      hosts_.push_back(
          std::make_unique<VsyncHost>(*nodes_[i], vs_cfg, *stores_[i]));
      hosts_[i]->set_observer(oracle_.get());
      users_.push_back(std::make_unique<RecordingUser>(hosts_[i].get()));
    }
  }

  void TearDown() override {
    if (oracle_) {
      EXPECT_TRUE(oracle_->clean()) << oracle_->report_json();
    }
  }

  VsyncHost& host(std::size_t i) { return *hosts_[i]; }
  RecordingUser& user(std::size_t i) { return *users_[i]; }
  ProcessId pid(std::size_t i) { return nodes_[i]->process_id(); }
  NodeId node(std::size_t i) { return nodes_[i]->id(); }

  void run_for(Duration us) { sim_.run_until(sim_.now() + us); }

  bool run_until(const std::function<bool()>& pred, Duration timeout_us) {
    const Time deadline = sim_.now() + timeout_us;
    while (sim_.now() < deadline) {
      if (pred()) return true;
      sim_.run_until(std::min(deadline, sim_.now() + 10'000));
    }
    return pred();
  }

  /// All listed processes have installed the same view with `members`.
  bool converged(HwgId gid, const std::vector<std::size_t>& indexes,
                 const MemberSet& members) {
    const View* reference = nullptr;
    for (std::size_t i : indexes) {
      const View* v = host(i).view_of(gid);
      if (v == nullptr || v->members != members) return false;
      if (reference == nullptr) {
        reference = v;
      } else if (!(v->id == reference->id)) {
        return false;
      }
    }
    return true;
  }

  MemberSet members_of(std::initializer_list<std::size_t> indexes) {
    MemberSet set;
    for (std::size_t i : indexes) set.insert(pid(i));
    return set;
  }

  static std::vector<std::uint8_t> payload(std::uint8_t tag,
                                           std::size_t size = 8) {
    std::vector<std::uint8_t> data(size, 0);
    data[0] = tag;
    return data;
  }

  sim::Engine engine_;
  sim::Simulator& sim_ = engine_.site(0);
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<oracle::ProtocolOracle> oracle_;
  std::vector<std::unique_ptr<durable::ProcessStore>> stores_;
  std::vector<std::unique_ptr<transport::NodeRuntime>> nodes_;
  std::vector<std::unique_ptr<VsyncHost>> hosts_;
  std::vector<std::unique_ptr<RecordingUser>> users_;
};

}  // namespace plwg::vsync::testing
