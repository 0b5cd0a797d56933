// Simulated network with a shared-medium (Ethernet-like) cost model and
// partition support.
//
// The paper's evaluation ran on a loaded 10 Mbps shared Ethernet with IP
// multicast. The effects it measures — interference between unrelated
// groups, shared failure-detection and flush cost — are *contention*
// effects, so the model charges:
//   * one bus occupancy per transmission (multicast reaches every
//     destination with a single occupancy, like IP multicast),
//   * a FIFO bus queue per partition segment with finite bandwidth,
//   * a per-packet CPU processing cost at each receiver (its own FIFO
//     queue), which is what makes "receive and filter out" traffic costly.
//
// Partitions are reachability classes: a packet reaches only destinations in
// the sender's class at send time. Healing restores one class. A "virtual
// partition" (paper Sect. 4) is simulated the same way, only shorter-lived.
//
// Sites: the network is built over a sim::Engine; each LAN segment maps to
// an engine *site* (segment i -> site i mod N). Per-site state is the
// determinism state only — the site's fault RNG stream, its packet-id
// counter and its trace digest (SiteCtx) — so digests depend on the site
// layout and nothing else. Stats and the bus and uplink queues are
// world-wide: one NetworkStats, and one table per queue kind keyed by
// (partition, segment), whose keys no two sites share. The only cross-site
// interaction is the backbone hop of an inter-segment packet, posted
// through Engine::post and injected at a sub-window boundary; its timestamp
// is at least the backbone propagation delay in the future, which is
// exactly the engine's lookahead. The WAN uplink queue is keyed per
// (partition, source segment) instead of one global backbone queue: each
// segment's uplink serializes independently, like per-port router queues.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_digest.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace plwg::sim {

struct NetworkConfig {
  /// CPU cost to receive + process one packet at a node, microseconds.
  Duration node_process_cost_us = 100;
  /// Shared bus bandwidth, bits per second (paper: 10 Mbps Ethernet).
  double bandwidth_bps = 10e6;
  /// Probability a given delivery is dropped (per destination).
  double drop_probability = 0.0;
  /// Extra uniform delivery jitter in [0, jitter_us].
  Duration jitter_us = 0;
  /// Fold delivered payload bytes into the trace digest (not just sizes).
  /// Strictest determinism check; costs one pass over every payload.
  bool digest_payloads = false;
  /// RNG seed for drops/jitter.
  std::uint64_t seed = 42;
};

/// Inter-LAN backbone parameters for multi-segment topologies.
struct WanConfig {
  /// One-way propagation across the backbone, microseconds.
  Duration propagation_delay_us = 2'000;
  /// Backbone bandwidth, bits per second (per source-segment uplink).
  double bandwidth_bps = 2e6;
};

/// Fault state of one *directed* link, layered on top of the reachability
/// classes: a packet from `from` to `to` must survive both the partition
/// check and the (from, to) link fault. Asymmetric (one-way) links are the
/// point — blocking A->B while B->A still works — plus per-link drop and
/// jitter overrides for lossy/laggy paths. Link flapping is expressed as a
/// timed sequence of set_link_fault / clear_link_fault calls (driven by
/// harness::ChaosMonkey); the network itself holds only the current state.
struct LinkFault {
  /// Packets in this direction are silently discarded at send time.
  bool blocked = false;
  /// Per-delivery drop probability override; negative inherits
  /// NetworkConfig::drop_probability.
  double drop_probability = -1.0;
  /// Delivery jitter override; negative inherits NetworkConfig::jitter_us.
  Duration jitter_us = -1;
};

/// Interface implemented by every simulated host.
class NetHandler {
 public:
  virtual ~NetHandler() = default;
  /// A frame arrived. `data` lies in the buffer `owner` keeps alive; a host
  /// that keeps part of the frame past the call shares `owner` instead of
  /// copying the bytes.
  virtual void on_packet(NodeId from, std::span<const std::uint8_t> data,
                         const BytesOwner& owner) = 0;
};

struct NetworkStats {
  std::uint64_t frames_sent = 0;       // transmissions (multicast counts once)
  std::uint64_t messages_sent = 0;     // protocol messages carried in frames
  std::uint64_t piggybacked_acks = 0;  // stability msgs that rode a shared frame
  std::uint64_t deliveries = 0;        // per-destination deliveries
  std::uint64_t bytes_sent = 0;        // payload bytes transmitted
  std::uint64_t bytes_on_wire = 0;     // payload + headers
  std::uint64_t drops = 0;
  std::uint64_t link_blocked = 0;      // deliveries eaten by a down link
  std::uint64_t stale_epoch_drops = 0; // packets addressed to a dead incarnation
  Duration bus_busy_us = 0;            // accumulated transmission time
  // Gray-failure injection (stall_node & friends).
  std::uint64_t stalls = 0;                // stall intervals injected
  std::uint64_t stall_deferred_sends = 0;  // sends parked until a stall lifted
  Duration stall_us = 0;                   // total injected stall time

  /// Messages carried per frame put on the wire — the coalescing layer's
  /// amortization factor (1.0 means no batching happened).
  [[nodiscard]] double amortization_ratio() const {
    return frames_sent == 0 ? 1.0
                            : static_cast<double>(messages_sent) /
                                  static_cast<double>(frames_sent);
  }
  /// Human-readable one-stop summary for logs and test failure output.
  [[nodiscard]] std::string debug_dump() const;
};

class Network {
 public:
  /// Per-engine-site state; segments are mapped onto sites by
  /// set_segments. A 1-site engine runs everything on site 0, which
  /// callers may drive directly as a plain Simulator.
  Network(Engine& engine, NetworkConfig config);

  /// Register a host. The handler must outlive the network.
  NodeId add_node(NetHandler& handler);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Transmit `data` to every destination in `dests` that is reachable from
  /// `from` and alive. One bus occupancy regardless of destination count;
  /// every destination receives the same shared buffer.
  /// Must be called from the sending node's site (its own event handlers)
  /// or from the driver while the engine is idle.
  void multicast(NodeId from, std::span<const NodeId> dests, SharedBytes data);

  void unicast(NodeId from, NodeId to, SharedBytes data);

  // --- topology -----------------------------------------------------------
  /// Split the nodes into LAN segments connected by a store-and-forward
  /// WAN backbone. Intra-segment traffic uses that segment's shared bus as
  /// before; inter-segment deliveries additionally traverse the backbone
  /// (the source segment's uplink queue + propagation) and the destination
  /// segment's bus. Every node must appear in exactly one segment.
  /// Orthogonal to partitions (cutting the WAN is expressed as a partition
  /// along segment lines). The default is a single segment (no backbone
  /// hops). Also assigns segments to sites and sets the engine lookahead
  /// to the minimum cross-site latency.
  void set_segments(const std::vector<std::vector<NodeId>>& segments,
                    WanConfig wan);
  [[nodiscard]] int segment_of(NodeId n) const;

  // --- partitions -------------------------------------------------------
  /// Split the network into the given reachability classes. Every node must
  /// appear in exactly one class. Bus queues restart per class.
  void set_partitions(const std::vector<std::vector<NodeId>>& classes);

  /// Restore full connectivity (all nodes in one class).
  void heal();

  [[nodiscard]] bool reachable(NodeId a, NodeId b) const;
  [[nodiscard]] int partition_of(NodeId n) const;

  // --- per-directed-link faults -----------------------------------------
  /// Install (or replace) the fault state of the directed link from->to.
  /// Engine idle only, like every topology mutation. Orthogonal to
  /// partitions: a delivery must pass both checks.
  void set_link_fault(NodeId from, NodeId to, LinkFault fault);
  /// Restore the directed link from->to to the default (healthy) state.
  void clear_link_fault(NodeId from, NodeId to);
  /// Restore every link. Cheap no-op when no faults are installed.
  void clear_link_faults();
  /// Current fault on from->to, or nullptr when the link is healthy.
  [[nodiscard]] const LinkFault* link_fault(NodeId from, NodeId to) const;
  [[nodiscard]] std::size_t link_fault_count() const {
    return link_faults_.size();
  }

  // --- crashes & restarts -----------------------------------------------
  /// Crash a node: it no longer sends or receives, until restart().
  void crash(NodeId n);
  [[nodiscard]] bool crashed(NodeId n) const;

  /// Resurrect a crashed node as a fresh incarnation bound to `handler`
  /// (the rebuilt host stack). The node's crash epoch advances, so packets
  /// that were still in flight toward the dead incarnation are silently
  /// dropped instead of being delivered to its successor; its receive-CPU
  /// queue restarts empty.
  void restart(NodeId n, NetHandler& handler);
  /// How many times `n` has been restarted (0 for the first incarnation).
  [[nodiscard]] std::uint32_t crash_epoch(NodeId n) const;

  // --- gray failures ----------------------------------------------------
  /// Freeze `n`'s process for `duration_us` starting now: a GC pause / VM
  /// migration / swap storm. The node is NOT crashed — nothing it does is
  /// lost — but its event loop stops: inbound packets queue behind its CPU
  /// (cpu_free_at is pushed to the stall end) and outbound sends are parked
  /// and burst out when the stall lifts. Timers fire late for the same
  /// reason. Only the node's own state and the stall counters change, so
  /// digests stay byte-identical. Engine idle only, like crash().
  void stall_node(NodeId n, Duration duration_us);
  /// Multiply `n`'s per-packet receive cost and charge_cpu() charges by
  /// `factor` (>1 = degraded CPU, e.g. a thermally throttled or oversold
  /// host). 1.0 restores normal speed. Engine idle only.
  void set_cpu_factor(NodeId n, double factor);
  /// Skew `n`'s local clock rate: every timer the node schedules through
  /// scale_delay() fires at delay/rate. rate > 1 = fast clock (timeouts and
  /// heartbeats early), rate < 1 = slow clock (heartbeats late — the
  /// classic source of spurious suspicion). 1.0 restores nominal time.
  /// Engine idle only.
  void set_clock_rate(NodeId n, double rate);
  /// Lift every stall, CPU factor and clock skew (quiesce support). An
  /// active stall's CPU backlog is forgiven so convergence starts now.
  void clear_node_faults();
  [[nodiscard]] bool node_stalled(NodeId n) const;
  [[nodiscard]] double cpu_factor(NodeId n) const;
  [[nodiscard]] double clock_rate(NodeId n) const;
  /// Nodes with any gray fault still active (stall in progress, factor or
  /// rate != 1). ChaosMonkey::quiesce asserts this reaches zero.
  [[nodiscard]] std::size_t node_fault_count() const;
  /// `delay` as experienced by `n`'s skewed local clock; identity at the
  /// nominal rate. The transport routes every host timer through this.
  [[nodiscard]] Duration scale_delay(NodeId n, Duration delay) const;

  /// Charge protocol-processing time to a node's CPU: subsequent packet
  /// deliveries at that node queue behind it. Models expensive per-message
  /// protocol work (e.g. membership operations) sharing the CPU with packet
  /// reception — the source of the paper's per-group recovery overhead.
  /// Called from the node's own site (the transport runs there).
  void charge_cpu(NodeId n, Duration cost_us);

  /// The world's counters, live: a held reference sees later traffic, so
  /// copy it to keep a baseline.
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Combined trace digest over all sites in site-index order, folding in
  /// each site's executed-event count. Read while idle.
  [[nodiscard]] std::uint64_t trace_digest() const;

  /// Called by the transport when it puts a coalesced frame on the wire:
  /// `messages` sub-messages rode it, `piggybacked` of which were stability
  /// traffic (acks/heartbeats) that would otherwise have been standalone
  /// frames. The network itself counts frames; only the transport knows
  /// what is inside them.
  void note_frame(std::size_t messages, std::size_t piggybacked);

  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  /// The event loop that runs this node's events; node-local timers must be
  /// scheduled here so they execute in the node's site.
  [[nodiscard]] Simulator& simulator_for(NodeId n) {
    return *sites_[nodes_[n.value()].site].sim;
  }
  [[nodiscard]] std::size_t site_of(NodeId n) const {
    return nodes_[n.value()].site;
  }
  [[nodiscard]] std::size_t num_sites() const { return sites_.size(); }

 private:
  struct NodeState {
    NetHandler* handler = nullptr;
    int partition = 0;
    int segment = 0;
    std::size_t site = 0;     // owning engine site (== segment mod N)
    bool crashed = false;
    std::uint32_t epoch = 0;  // bumped by restart(); stale packets die
    Time cpu_free_at = 0;     // receiver CPU queue (owned by `site`)
    // Gray-failure state. Mutated only while the engine is idle;
    // read from the node's own site mid-window.
    Time stalled_until = 0;   // process frozen until this instant
    double cpu_factor = 1.0;  // multiplies per-packet CPU cost
    double clock_rate = 1.0;  // local clock speed (scale_delay)
  };

  /// The state that feeds a site's digest: its event loop, fault RNG
  /// stream, packet-id counter and trace digest. One per engine site,
  /// touched only by that site's events; this is the determinism unit.
  struct SiteCtx {
    Simulator* sim = nullptr;
    Rng rng{0};
    TraceDigest digest;
    std::uint64_t next_packet_id = 0;  // per-site minting, no global counter
  };

  [[nodiscard]] Duration transmission_time(std::size_t payload_bytes,
                                           double bandwidth_bps) const;
  void deliver(NodeId from, NodeId to, SharedBytes data, Time arrival);
  /// Last hop of every delivery that survived the reachability and drop
  /// checks: the frame leaves `to`'s LAN bus at `bus_done`, pays LAN
  /// propagation plus link jitter (drawn from `ctx`'s fault RNG), and is
  /// delivered.
  void deliver_from_bus(SiteCtx& ctx, NodeId from, NodeId to,
                        const LinkFault* lf, const SharedBytes& shared,
                        Time bus_done);
  /// Deliveries coming off the backbone onto `segment`'s bus — runs in the
  /// segment's site.
  void segment_arrival(NodeId from, int partition, int segment,
                       Duration lan_tx, const SharedBytes& shared,
                       const std::vector<NodeId>& nodes);
  /// Queue key: partition class x LAN segment.
  [[nodiscard]] static std::int64_t bus_key(int partition, int segment) {
    return (static_cast<std::int64_t>(partition) << 20) | segment;
  }
  /// Occupies bus `key` from `earliest`; returns transmission end.
  Time occupy_bus(std::int64_t key, Time earliest, Duration tx_time);
  [[nodiscard]] std::size_t site_of_segment(int segment) const {
    return static_cast<std::size_t>(segment) % sites_.size();
  }
  /// Topology mutations are only legal while no window is running; a call
  /// made from a running event aborts with a message naming `what`.
  void assert_idle(const char* what) const;
  void clear_queues();

  /// Directed-link key for link_faults_.
  [[nodiscard]] static std::uint64_t link_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
  }

  Engine& engine_;
  NetworkConfig config_;
  WanConfig wan_;
  int next_partition_token_ = 1;
  /// Directed-link fault overrides. Mutated only while the engine is idle;
  /// read (const) from any site's events mid-window.
  std::unordered_map<std::uint64_t, LinkFault> link_faults_;
  std::vector<NodeState> nodes_;
  std::vector<SiteCtx> sites_;
  NetworkStats stats_;
  /// Bus queue heads per bus_key(partition class, segment); WAN uplink
  /// heads per bus_key(partition class, source segment).
  std::unordered_map<std::int64_t, Time> bus_free_at_;
  std::unordered_map<std::int64_t, Time> uplink_free_at_;
};

}  // namespace plwg::sim
