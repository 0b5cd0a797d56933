#include "harness/world.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <string_view>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace plwg::harness {

namespace {

/// PLWG_LOG_LEVEL=trace|debug|info|warn|error|off raises or lowers the
/// global log threshold for any harness-built world — the knob every
/// seed-sweep debugging session wants (rerun one seed with info logs
/// instead of rebuilding with a hacked-in level).
void apply_env_log_level() {
  const char* env = std::getenv("PLWG_LOG_LEVEL");
  if (env == nullptr || *env == '\0') return;
  const std::string_view v(env);
  if (v == "trace") Logger::instance().set_level(LogLevel::kTrace);
  else if (v == "debug") Logger::instance().set_level(LogLevel::kDebug);
  else if (v == "info") Logger::instance().set_level(LogLevel::kInfo);
  else if (v == "warn") Logger::instance().set_level(LogLevel::kWarn);
  else if (v == "error") Logger::instance().set_level(LogLevel::kError);
  else if (v == "off") Logger::instance().set_level(LogLevel::kOff);
}

}  // namespace

SimWorld::SimWorld(WorldConfig config)
    : config_(std::move(config)),
      engine_(std::max<std::size_t>(1, config_.segments.size())) {
  apply_env_log_level();
  Logger::instance().set_time_source([this] { return engine_.log_now(); });
  net_ = std::make_unique<sim::Network>(engine_, config_.net);
  const bool replicated =
      config_.naming_mode == NamingMode::kReplicatedEverywhere;

  // Create process nodes first so ProcessId i == node i == index i, then the
  // name-server nodes (none in the replicated-everywhere deployment).
  processes_.resize(config_.num_processes);
  stores_.resize(config_.num_processes);
  for (auto& p : processes_) {
    p.runtime = std::make_unique<transport::NodeRuntime>(*net_);
  }
  servers_.resize(replicated ? 0 : config_.num_name_servers);
  server_stores_.resize(servers_.size());
  for (auto& s : servers_) {
    s.runtime = std::make_unique<transport::NodeRuntime>(*net_);
  }

  if (replicated) {
    for (const auto& p : processes_) server_nodes_.push_back(p.runtime->id());
  } else {
    for (const auto& s : servers_) server_nodes_.push_back(s.runtime->id());
  }

  // Topology before any protocol stack exists: building a stack schedules
  // its timers on the owning node's site, so segment->site assignment
  // must already be in place.
  if (config_.segments.size() > 1) {
    // Multi-LAN topology: processes per their configured segment; dedicated
    // name server j joins LAN min(j, last).
    std::vector<std::vector<NodeId>> node_segments(config_.segments.size());
    std::vector<bool> placed(processes_.size(), false);
    for (std::size_t k = 0; k < config_.segments.size(); ++k) {
      for (std::size_t i : config_.segments[k]) {
        PLWG_ASSERT(i < processes_.size());
        node_segments[k].push_back(node(i));
        placed[i] = true;
      }
    }
    for (std::size_t i = 0; i < processes_.size(); ++i) {
      PLWG_ASSERT_MSG(placed[i], "process missing from segments");
    }
    for (std::size_t j = 0; j < servers_.size(); ++j) {
      node_segments[std::min(j, config_.segments.size() - 1)].push_back(
          servers_[j].runtime->id());
    }
    net_->set_segments(node_segments, config_.wan);
  }

  if (config_.oracle) {
    // Hooks call the oracle inline. The sites of one sub-window run in
    // turn, not in time order, but no two of their events are causally
    // related (a cross-site packet costs at least one lookahead), so the
    // oracle still sees a causal order; its checks do no time arithmetic.
    oracle_ = std::make_unique<oracle::ProtocolOracle>(
        [this] { return engine_.log_now(); });
  }

  for (std::size_t j = 0; j < servers_.size(); ++j) build_server(j);
  for (std::size_t i = 0; i < processes_.size(); ++i) build_process(i);
}

void SimWorld::build_process(std::size_t i, names::Database server_disk) {
  const bool replicated =
      config_.naming_mode == NamingMode::kReplicatedEverywhere;
  auto& p = processes_[i];
  // Rotate the fail-over order per process: spreads client load and gives
  // each "LAN" a preferred local server. In the replicated deployment the
  // rotation puts the process's own replica first: reads become local.
  std::vector<NodeId> order = server_nodes_;
  if (!order.empty()) {
    std::rotate(order.begin(), order.begin() + (i % order.size()),
                order.end());
  }
  p.vsync = std::make_unique<vsync::VsyncHost>(*p.runtime, config_.vsync,
                                               stores_[i]);
  p.naming = std::make_unique<names::NamingAgent>(*p.runtime, std::move(order));
  if (replicated) {
    std::vector<NodeId> peers;
    for (std::size_t k = 0; k < server_nodes_.size(); ++k) {
      if (k != i) peers.push_back(server_nodes_[k]);
    }
    p.naming->enable_server(std::move(peers), std::move(server_disk));
  }
  p.lwg = std::make_unique<lwg::LwgService>(*p.vsync, *p.naming, config_.lwg,
                                            stores_[i]);
  if (oracle_) {
    p.vsync->set_observer(oracle_.get());
    p.lwg->set_observer(oracle_.get());
    p.naming->set_observer(oracle_.get());
  }
}

void SimWorld::build_server(std::size_t j, names::Database disk) {
  auto& s = servers_[j];
  s.naming = std::make_unique<names::NamingAgent>(*s.runtime, server_nodes_);
  std::vector<NodeId> peers;
  for (std::size_t k = 0; k < server_nodes_.size(); ++k) {
    if (k != j) peers.push_back(server_nodes_[k]);
  }
  s.naming->enable_server(std::move(peers), std::move(disk));
  if (oracle_) s.naming->set_observer(oracle_.get());
}

SimWorld::~SimWorld() {
  // Backstop for worlds not owned by a test fixture: unacknowledged
  // violations are protocol bugs and must not evaporate with the world.
  if (oracle_ && !oracle_->clean()) {
    std::fprintf(stderr, "protocol oracle: %zu violation(s):\n%s\n",
                 oracle_->total_violations(), oracle_->report_json().c_str());
    std::abort();
  }
  Logger::instance().set_time_source(nullptr);
}

oracle::ProtocolOracle& SimWorld::oracle() {
  PLWG_ASSERT_MSG(oracle_ != nullptr, "oracle not enabled in this world");
  return *oracle_;
}

oracle::ConvergenceSnapshot SimWorld::convergence_snapshot() const {
  oracle::ConvergenceSnapshot snap;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    if (crashed(i)) continue;
    snap.alive.insert(processes_[i].runtime->process_id());
    const lwg::LwgService& svc = *processes_[i].lwg;
    for (LwgId lwg : svc.local_groups()) {
      const lwg::LwgView* v = svc.view_of(lwg);
      if (v != nullptr) {
        snap.holders[lwg].push_back({processes_[i].runtime->process_id(), *v});
      } else {
        snap.unresolved.emplace_back(processes_[i].runtime->process_id(), lwg);
      }
    }
  }
  for (std::size_t j = 0; j < servers_.size(); ++j) {
    if (server_crashed(j)) continue;
    snap.databases.emplace_back(servers_[j].runtime->id(),
                                &servers_[j].naming->database());
  }
  if (config_.naming_mode == NamingMode::kReplicatedEverywhere) {
    for (std::size_t i = 0; i < processes_.size(); ++i) {
      if (crashed(i) || !processes_[i].naming->is_server()) continue;
      snap.databases.emplace_back(processes_[i].runtime->id(),
                                  &processes_[i].naming->database());
    }
  }
  return snap;
}

std::string SimWorld::convergence_failure() const {
  return oracle::check_converged(convergence_snapshot());
}

bool SimWorld::verify_convergence() {
  if (oracle_) return oracle_->check_convergence(convergence_snapshot());
  return convergence_failure().empty();
}

std::string SimWorld::liveness_report() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    if (crashed(i)) {
      out << "  process " << i << ": crashed\n";
      continue;
    }
    const ProcessNode& p = processes_[i];
    for (const auto& [gid, ep] : p.vsync->endpoints()) {
      const bool healthy = ep->state() == vsync::GroupEndpoint::State::kActive &&
                           ep->has_view() && ep->suspected().empty();
      out << (healthy ? "  " : "* ") << "process " << i << " hwg "
          << gid.value() << ": " << ep->state();
      if (ep->has_view()) {
        out << ", view of " << ep->view().members.size();
      } else {
        out << ", no view";
      }
      if (!ep->suspected().empty()) {
        out << ", suspects {";
        bool first = true;
        for (ProcessId s : ep->suspected().members()) {
          out << (first ? "" : " ") << s.value();
          first = false;
        }
        out << "}";
      }
      out << "\n";
    }
    for (LwgId lwg : p.lwg->local_groups()) {
      if (p.lwg->view_of(lwg) == nullptr) {
        out << "* process " << i << " lwg " << lwg.value()
            << ": unresolved (no installed view)\n";
      }
    }
  }
  return out.str();
}

lwg::LwgService& SimWorld::lwg(std::size_t i) {
  PLWG_ASSERT(i < processes_.size());
  return *processes_[i].lwg;
}

vsync::VsyncHost& SimWorld::vsync(std::size_t i) {
  PLWG_ASSERT(i < processes_.size());
  return *processes_[i].vsync;
}

names::NamingAgent& SimWorld::naming(std::size_t i) {
  PLWG_ASSERT(i < processes_.size());
  return *processes_[i].naming;
}

ProcessId SimWorld::pid(std::size_t i) const {
  PLWG_ASSERT(i < processes_.size());
  return processes_[i].runtime->process_id();
}

NodeId SimWorld::node(std::size_t i) const {
  PLWG_ASSERT(i < processes_.size());
  return processes_[i].runtime->id();
}

NodeId SimWorld::server_node(std::size_t j) const {
  if (config_.naming_mode == NamingMode::kReplicatedEverywhere) {
    return node(j);  // every process node hosts a replica
  }
  PLWG_ASSERT(j < servers_.size());
  return servers_[j].runtime->id();
}

names::NamingAgent& SimWorld::server(std::size_t j) {
  if (config_.naming_mode == NamingMode::kReplicatedEverywhere) {
    return naming(j);
  }
  PLWG_ASSERT(j < servers_.size());
  return *servers_[j].naming;
}

void SimWorld::run_for(Duration us) { engine_.run_for(us); }

bool SimWorld::run_until(const std::function<bool()>& pred,
                         Duration timeout_us) {
  const Time deadline = engine_.now() + timeout_us;
  constexpr Duration kStep = 10'000;  // 10 ms probes
  while (engine_.now() < deadline) {
    if (pred()) return true;
    engine_.run_until(std::min(deadline, engine_.now() + kStep));
  }
  return pred();
}

std::vector<std::size_t> process_range(std::size_t first, std::size_t count) {
  std::vector<std::size_t> out(count);
  std::iota(out.begin(), out.end(), first);
  return out;
}

bool SimWorld::lwg_formed(LwgId id,
                          const std::vector<std::size_t>& members) const {
  MemberSet want;
  for (std::size_t i : members) want.insert(pid(i));
  for (std::size_t i : members) {
    const lwg::LwgView* v = processes_[i].lwg->view_of(id);
    if (v == nullptr || v->members != want) return false;
  }
  return true;
}

bool SimWorld::form_lwg(LwgId id, const std::vector<std::size_t>& members,
                        const UserOf& user_of) {
  PLWG_ASSERT(!members.empty());
  const std::size_t founder = members.front();
  lwg(founder).join(id, user_of(founder));
  run_until([&] { return lwg(founder).view_of(id) != nullptr; },
            kFormBudgetUs);
  for (std::size_t k = 1; k < members.size(); ++k) {
    lwg(members[k]).join(id, user_of(members[k]));
  }
  return run_until([&] { return lwg_formed(id, members); }, kFormBudgetUs);
}

bool SimWorld::form_lwg(LwgId id, const std::vector<std::size_t>& members,
                        lwg::LwgUser& user) {
  return form_lwg(id, members,
                  [&](std::size_t) -> lwg::LwgUser& { return user; });
}

void SimWorld::partition(const std::vector<std::vector<std::size_t>>& classes,
                         const std::vector<std::size_t>& server_sides) {
  std::vector<std::vector<NodeId>> node_classes(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (std::size_t i : classes[c]) node_classes[c].push_back(node(i));
  }
  for (std::size_t j = 0; j < servers_.size(); ++j) {
    const std::size_t side = j < server_sides.size() ? server_sides[j] : 0;
    PLWG_ASSERT(side < node_classes.size());
    node_classes[side].push_back(server_node(j));
  }
  net_->set_partitions(node_classes);
}

void SimWorld::heal() { net_->heal(); }

void SimWorld::crash(std::size_t i) {
  net_->crash(node(i));
}

bool SimWorld::crashed(std::size_t i) const { return net_->crashed(node(i)); }

void SimWorld::restart(std::size_t i) {
  PLWG_ASSERT(i < processes_.size());
  PLWG_ASSERT_MSG(crashed(i), "restart of a process that is not crashed");
  ProcessNode& p = processes_[i];
  const ProcessId self = p.runtime->process_id();
  // The dead incarnation's delivery epochs end here. A graceful teardown
  // reports them through become_defunct()/note_lwg_reset(); plain
  // destruction does not, so fire the resets by hand — otherwise the
  // successor's first views would be paired with the corpse's.
  if (oracle_) {
    for (const auto& [gid, ep] : p.vsync->endpoints()) {
      oracle_->on_hwg_endpoint_reset(self, gid);
    }
    for (LwgId lwg : p.lwg->local_groups()) {
      oracle_->on_lwg_epoch_reset(self, lwg);
    }
  }
  names::Database disk;
  if (p.naming->is_server()) disk = p.naming->database();
  const NodeId nid = p.runtime->id();
  // Teardown in reverse dependency order. The rebind below advances the
  // node's crash epoch, which also invalidates every timer the dead
  // incarnation still has in the simulator (see NodeRuntime::after).
  p.lwg.reset();
  p.naming.reset();
  p.vsync.reset();
  stores_[i].incarnation++;
  p.runtime = std::make_unique<transport::NodeRuntime>(
      *net_, nid, stores_[i].incarnation);
  build_process(i, std::move(disk));
  // Recovery: replay the restart script. Each join re-resolves the LWG
  // through the naming service and rejoins (or re-creates) it. Iterate a
  // copy: join() re-records each registration in the store.
  const auto script = stores_[i].lwg_registrations;
  for (const auto& [lwg, user] : script) p.lwg->join(lwg, *user);
  PLWG_INFO("world", "process ", i, " restarted as incarnation ",
            stores_[i].incarnation, ", rejoining ", script.size(), " lwg(s)");
}

std::uint32_t SimWorld::incarnation(std::size_t i) const {
  PLWG_ASSERT(i < stores_.size());
  return stores_[i].incarnation;
}

void SimWorld::crash_server(std::size_t j) {
  PLWG_ASSERT(j < servers_.size());
  net_->crash(servers_[j].runtime->id());
}

void SimWorld::restart_server(std::size_t j) {
  PLWG_ASSERT(j < servers_.size());
  PLWG_ASSERT_MSG(server_crashed(j), "restart of a server that is not crashed");
  ServerNode& s = servers_[j];
  // The replica's database is disk-backed: reload what the dead incarnation
  // had acked. Volatile state (pending requests, callback de-dup, peer
  // sync cursors) dies with it and is rebuilt by anti-entropy.
  names::Database disk = s.naming->database();
  const NodeId nid = s.runtime->id();
  s.naming.reset();
  server_stores_[j].incarnation++;
  s.runtime = std::make_unique<transport::NodeRuntime>(
      *net_, nid, server_stores_[j].incarnation);
  build_server(j, std::move(disk));
  PLWG_INFO("world", "name server ", j, " restarted as incarnation ",
            server_stores_[j].incarnation);
}

bool SimWorld::server_crashed(std::size_t j) const {
  PLWG_ASSERT(j < servers_.size());
  return net_->crashed(servers_[j].runtime->id());
}

void SimWorld::cut_wan() {
  PLWG_ASSERT_MSG(config_.segments.size() > 1,
                  "cut_wan needs a multi-LAN WorldConfig");
  std::vector<std::size_t> server_sides;
  for (std::size_t j = 0; j < servers_.size(); ++j) {
    server_sides.push_back(std::min(j, config_.segments.size() - 1));
  }
  partition(config_.segments, server_sides);
}

}  // namespace plwg::harness
