// SimWorld: wires a complete simulated deployment — N application processes
// (each a NodeRuntime + VsyncHost + NamingAgent + LwgService) plus M
// dedicated name-server nodes on one simulated network — and exposes the
// knobs the experiments turn: partitions, crashes, restarts, and time. It
// also forms LWGs (form_lwg) and tells when one has converged (lwg_formed),
// the starting point of every experiment.
//
// Tests, benchmarks, and examples all build on this harness.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "durable/store.hpp"
#include "lwg/lwg_service.hpp"
#include "names/naming_agent.hpp"
#include "oracle/oracle.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "transport/node_runtime.hpp"
#include "vsync/vsync_host.hpp"

namespace plwg::harness {

enum class NamingMode {
  /// Dedicated name-server nodes (`num_name_servers` of them) — the
  /// deployment the paper's Sect. 5.2 describes (one per LAN/AS).
  kDedicatedServers,
  /// The alternative from paper Sect. 3.1: "replicate the naming service at
  /// every process, making updates expensive but read operations purely
  /// local". Every process node doubles as a server and prefers itself.
  kReplicatedEverywhere,
};

struct WorldConfig {
  std::size_t num_processes = 8;
  std::size_t num_name_servers = 1;
  NamingMode naming_mode = NamingMode::kDedicatedServers;
  sim::NetworkConfig net;
  vsync::VsyncConfig vsync;
  lwg::LwgConfig lwg;
  /// Multi-LAN topology: segments[k] lists the *process indexes* on LAN k
  /// (empty = single LAN). Dedicated name server j is placed on LAN
  /// `min(j, segments-1)` — "a server on each local area network"
  /// (paper Sect. 5.2).
  std::vector<std::vector<std::size_t>> segments;
  sim::WanConfig wan;
  /// Ignored: the engine is single-threaded. Kept only because the
  /// benchmark under perfbench/ still writes it.
  std::size_t sim_threads = 0;
  /// Wire the cross-node ProtocolOracle into every node (default). Benches
  /// that measure the protocol itself turn it off.
  bool oracle = true;
};

/// The process indexes first, first+1, ..., first+count-1.
[[nodiscard]] std::vector<std::size_t> process_range(std::size_t first,
                                                     std::size_t count);

class SimWorld {
 public:
  explicit SimWorld(WorldConfig config);
  ~SimWorld();
  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  /// Site-0 event loop. Its clock equals the engine horizon whenever the
  /// world is idle, and single-LAN worlds (one site) run entirely on it —
  /// existing `simulator().now()` / `schedule_after` call sites keep their
  /// exact semantics.
  [[nodiscard]] sim::Simulator& simulator() { return engine_.site(0); }
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] sim::Network& network() { return *net_; }
  /// Combined deterministic trace digest (see sim::TraceDigest).
  [[nodiscard]] std::uint64_t trace_digest() const {
    return net_->trace_digest();
  }
  [[nodiscard]] std::size_t num_processes() const { return processes_.size(); }
  /// Dedicated name-server nodes (0 in the replicated-everywhere mode).
  [[nodiscard]] std::size_t num_servers() const { return servers_.size(); }

  [[nodiscard]] lwg::LwgService& lwg(std::size_t i);
  [[nodiscard]] vsync::VsyncHost& vsync(std::size_t i);
  [[nodiscard]] names::NamingAgent& naming(std::size_t i);
  [[nodiscard]] ProcessId pid(std::size_t i) const;
  [[nodiscard]] NodeId node(std::size_t i) const;
  /// The node of name server `j` (0-based).
  [[nodiscard]] NodeId server_node(std::size_t j) const;
  [[nodiscard]] names::NamingAgent& server(std::size_t j);

  /// Advance simulated time by `us`.
  void run_for(Duration us);
  /// Step until `pred()` holds or `timeout_us` elapses; returns success.
  bool run_until(const std::function<bool()>& pred, Duration timeout_us);

  // --- LWG formation ------------------------------------------------------
  /// Simulated budget of each of form_lwg's two waits. run_until returns at
  /// the first 10 ms probe where its predicate holds, so the budget only
  /// matters when formation fails.
  static constexpr Duration kFormBudgetUs = 120'000'000;
  /// The user process `i` joins with.
  using UserOf = std::function<lwg::LwgUser&(std::size_t)>;

  /// True when every process in `members` (process indexes) holds a view of
  /// `id` whose member set is exactly the pids of `members`.
  [[nodiscard]] bool lwg_formed(LwgId id,
                                const std::vector<std::size_t>& members) const;
  /// Form `id` over `members`: members[0] founds it (and so picks its
  /// mapping), the harness waits for the founder's view, the others join in
  /// list order, and it then waits for lwg_formed. Returns lwg_formed.
  bool form_lwg(LwgId id, const std::vector<std::size_t>& members,
                const UserOf& user_of);
  /// As above, every member joining with the same `user`.
  bool form_lwg(LwgId id, const std::vector<std::size_t>& members,
                lwg::LwgUser& user);

  /// Partition the world: each inner vector lists *process indexes*; every
  /// process must appear exactly once. Name servers are assigned to the
  /// classes listed in `server_sides` (server j joins the class at
  /// server_sides[j]; defaults to class 0).
  void partition(const std::vector<std::vector<std::size_t>>& classes,
                 const std::vector<std::size_t>& server_sides = {});
  void heal();
  void crash(std::size_t i);

  /// Resurrect a crashed process as a fresh incarnation on the same
  /// NodeId/ProcessId: the full host stack is torn down and rebuilt, the
  /// durable store (incarnation, id counters, joined-LWG list) survives,
  /// and recovery replays the joins so the reborn LwgService re-resolves
  /// and rejoins its LWGs through the naming service.
  void restart(std::size_t i);
  /// The process's crash–restart incarnation (0 until its first restart).
  [[nodiscard]] std::uint32_t incarnation(std::size_t i) const;

  /// Crash / resurrect a dedicated name server. The replica's database is
  /// disk-backed: a restarted server reloads the mappings it had acked.
  void crash_server(std::size_t j);
  void restart_server(std::size_t j);
  [[nodiscard]] bool server_crashed(std::size_t j) const;

  /// Cut the WAN: partition the world along its configured LAN segments
  /// (requires a multi-LAN WorldConfig::segments). heal() reconnects.
  void cut_wan();

  // --- protocol oracle ----------------------------------------------------
  /// True when the always-on invariant checker is wired into this world
  /// (config.oracle).
  [[nodiscard]] bool oracle_enabled() const { return oracle_ != nullptr; }
  [[nodiscard]] oracle::ProtocolOracle& oracle();
  /// True while process `i` is down (the network's record).
  [[nodiscard]] bool crashed(std::size_t i) const;
  /// Invariants #4/#5 on the current state of all alive nodes: empty string
  /// when mappings/views have converged, else the first failure found.
  /// Usable as a run_until predicate after heal + quiescence.
  [[nodiscard]] std::string convergence_failure() const;
  /// Like convergence_failure(), but records a violation in the oracle on
  /// failure. Returns true when converged.
  bool verify_convergence();
  /// Human-readable per-process protocol state for liveness triage: every
  /// vsync endpoint's state, its suspected set, and each unresolved LWG.
  /// Lines for processes stuck outside kActive are marked with '*' so a
  /// post-quiesce convergence timeout names the wedged node instead of
  /// just reporting "timed out".
  [[nodiscard]] std::string liveness_report() const;

 private:
  [[nodiscard]] oracle::ConvergenceSnapshot convergence_snapshot() const;
  /// Build (or rebuild, on restart) process `i`'s host stack on its
  /// existing runtime. `server_disk` seeds the naming replica in the
  /// replicated-everywhere deployment.
  void build_process(std::size_t i, names::Database server_disk = {});
  /// Likewise for dedicated name server `j`.
  void build_server(std::size_t j, names::Database disk = {});

  struct ProcessNode {
    std::unique_ptr<transport::NodeRuntime> runtime;
    std::unique_ptr<vsync::VsyncHost> vsync;
    std::unique_ptr<names::NamingAgent> naming;
    std::unique_ptr<lwg::LwgService> lwg;
  };
  struct ServerNode {
    std::unique_ptr<transport::NodeRuntime> runtime;
    std::unique_ptr<names::NamingAgent> naming;
  };

  WorldConfig config_;
  /// One site per LAN segment; a single-LAN world has one site.
  sim::Engine engine_;
  std::unique_ptr<sim::Network> net_;
  /// Per-process / per-server stable storage; declared before the nodes
  /// (so it is destroyed after them) because it is exactly the state that
  /// must outlive a node's teardown.
  std::vector<durable::ProcessStore> stores_;
  std::vector<durable::ProcessStore> server_stores_;
  /// Every node's observer. Declared before the nodes so it is destroyed
  /// after them: hooks may still fire while nodes tear down.
  std::unique_ptr<oracle::ProtocolOracle> oracle_;
  std::vector<ProcessNode> processes_;
  std::vector<ServerNode> servers_;
  /// All name-server nodes in creation order (client fail-over lists are
  /// rotations of this); stable across restarts.
  std::vector<NodeId> server_nodes_;
};

}  // namespace plwg::harness
