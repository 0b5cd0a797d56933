// Per-host runtime: owns the host's network identity, demultiplexes inbound
// frames to the services running on the host (vsync stack, naming service,
// application), provides timer conveniences, and coalesces outbound traffic.
//
// Outgoing messages are not sent one frame each. They are staged per
// destination node and flushed as ONE multi-message frame per destination at
// the end of the current event-loop round (or immediately when invoked from
// outside the event loop, or after at most `max_linger_us` when lingering is
// configured, or early once the frame would pass kMaxBatchBytes). Per-frame
// costs — the 46B wire header, the bus occupancy, and above all the
// receiver's per-packet CPU charge — are paid once per frame instead of once
// per protocol message, which is where the LWG service's amortization story
// actually lands on the wire. Stability traffic (acks,
// heartbeats, flush votes) is tagged `MsgClass::kAck` by its senders so the
// stats can report how much of it piggybacked on frames it shared with data.
//
// Wire format of every frame:
//   [u32 incarnation][u32 checksum][u16 count]
//     then `count` entries of [u8 port][u32 len][payload...]
// `incarnation` is the sender's crash-restart incarnation: a receiver that
// has heard a newer incarnation of the same node drops the whole frame, so a
// restarted node's ghosts cannot reanimate old protocol state at its peers.
// `checksum` (FNV-1a over incarnation + everything after the checksum field)
// covers the entire batch: in-transit corruption rejects the frame whole —
// corruption degrades to loss, never to a half-poisoned batch. Because a
// batch is one sim::Network packet, it is also delivered or dropped
// atomically against crash epochs and partitions.
// Each service parses its own payload with the bounds-checked Decoder.
#pragma once

#include <array>
#include <span>
#include <utility>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/codec.hpp"
#include "util/types.hpp"

namespace plwg::transport {

/// Service multiplexing key, one per protocol stack on a host. Port 0 is
/// never bound: an entry on it is an ordinary unbound-port drop.
enum class Port : std::uint8_t {
  kVsync = 1,   // heavy-weight group layer
  kNaming = 2,  // naming service (client<->server and server<->server)
  kApp = 3,     // example applications / test fixtures
};

inline constexpr std::size_t kPortCount = 4;

/// What a staged message is, for the amortization accounting. `kAck` marks
/// stability traffic — acks, heartbeats, flush votes, anti-entropy — whose
/// whole frame cost disappears when it shares a frame with anything else.
enum class MsgClass : std::uint8_t { kData = 0, kAck = 1 };

/// Flush a destination's batch early rather than let the frame exceed this
/// size (a staged message larger than the cap still goes out, alone).
inline constexpr std::size_t kMaxBatchBytes = 16 * 1024;

/// Knobs for the coalescing layer.
struct TransportConfig {
  /// How long a staged message may linger waiting for frame-mates. 0 means
  /// "end of the current event-loop round": the flush fires at the same
  /// simulated time it was staged, adding zero latency while still merging
  /// everything the round produced. Positive values trade latency for
  /// cross-round coalescing.
  Duration max_linger_us = 0;
};

/// Implemented by each service attached to a port.
class PortHandler {
 public:
  virtual ~PortHandler() = default;
  /// `dec` is positioned at the start of this service's payload.
  virtual void on_message(NodeId from, Decoder& dec) = 0;
};

/// Application processes map 1:1 onto nodes; these conversions document the
/// role change (network address vs. group-membership identity).
[[nodiscard]] constexpr ProcessId process_of(NodeId n) {
  return ProcessId{n.value()};
}
[[nodiscard]] constexpr NodeId node_of(ProcessId p) { return NodeId{p.value()}; }

/// Size of the frame header preceding the batched entries.
inline constexpr std::size_t kFrameHeaderBytes = 10;
/// Per-entry overhead inside a frame: [u8 port][u32 len].
inline constexpr std::size_t kEntryHeaderBytes = 5;

class NodeRuntime : public sim::NetHandler {
 public:
  /// Counters for inbound frames the demux refused. Hostile or corrupted
  /// input must never assert or throw past this layer — it is counted and
  /// dropped.
  struct Stats {
    std::uint64_t malformed_frames = 0;          // short frame / bad checksum
    std::uint64_t stale_incarnation_drops = 0;   // ghost of a restarted peer
    std::uint64_t unbound_port_drops = 0;        // per entry
    std::uint64_t decode_errors = 0;             // service rejected payload
    // Outbound accounting (this node only; sim::NetworkStats aggregates).
    std::uint64_t frames_sent = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t piggybacked_acks = 0;
    // Always 0: the transport has no flow control. Kept only because the
    // perfbench metrics read it; drop it with the next benchmark change.
    std::uint64_t backpressure_held = 0;
  };

  explicit NodeRuntime(sim::Network& net, TransportConfig config = {});
  /// Rebind a rebuilt host stack to an existing (crashed) node as a fresh
  /// incarnation: the node revives with the same NodeId, and every frame it
  /// sends from now on is tagged with `incarnation`.
  NodeRuntime(sim::Network& net, NodeId reuse, std::uint32_t incarnation,
              TransportConfig config = {});
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] std::uint32_t incarnation() const { return incarnation_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const TransportConfig& config() const { return config_; }
  [[nodiscard]] ProcessId process_id() const { return process_of(id_); }
  [[nodiscard]] sim::Network& network() { return net_; }
  /// The event loop running this node's site: node-local timers must live
  /// there so they execute (deterministically) with the node's events.
  [[nodiscard]] sim::Simulator& simulator() { return net_.simulator_for(id_); }
  [[nodiscard]] Time now() const { return net_.simulator_for(id_).now(); }

  /// Attach a service; the handler must outlive the runtime.
  void register_port(Port port, PortHandler& handler);

  /// Stage a message for `to`; it rides the destination's next frame flush.
  /// When called from outside the event loop with max_linger_us == 0 the
  /// flush is immediate (one message, one frame) — driver code that calls
  /// send() directly keeps synchronous semantics.
  void send(Port port, NodeId to, const Encoder& payload,
            MsgClass cls = MsgClass::kData);
  void multicast(Port port, std::span<const NodeId> dests,
                 const Encoder& payload, MsgClass cls = MsgClass::kData);
  void multicast(Port port, std::span<const ProcessId> dests,
                 const Encoder& payload, MsgClass cls = MsgClass::kData);

  /// Flush every staged batch now. Destinations whose staged bytes are
  /// identical (the common pure-multicast case) go out as ONE network
  /// multicast, preserving the shared bus's one-occupancy-per-multicast
  /// economics; a destination that also carries piggybacked extras gets its
  /// own frame. Safe to call with nothing staged.
  void flush_now();
  /// Messages staged and not yet flushed (tests).
  [[nodiscard]] std::size_t staged_messages() const { return staged_count_; }

  /// Schedule a callback on this host after `delay`; no-op if the host has
  /// crashed — or crashed and restarted as a new incarnation — by the time
  /// it fires. The guard captures the network and the scheduling
  /// incarnation's crash epoch *by value*, never `this`: once the node
  /// restarts, the whole host stack (including this runtime and whatever
  /// `fn` points into) is destroyed, so the epoch check is the only thing
  /// keeping a stale timer from dereferencing freed objects. Templated
  /// (rather than taking a type-erased callable) so the wrapper and the
  /// user's capture land in the simulator slot as ONE flat closure —
  /// nesting an erased callable inside the wrapper would always spill to
  /// the heap.
  /// Every host timer passes through Network::scale_delay, so a node whose
  /// simulated clock is skewed (sim::Network::set_clock_rate) runs ALL of
  /// its protocol timers — heartbeats, suspicion checks, retries — fast or
  /// slow together, which is exactly how real clock drift reaches a
  /// protocol stack.
  template <class F>
  sim::TimerId after(Duration delay, F&& fn) {
    return simulator().schedule_after(
        net_.scale_delay(id_, delay),
        [net = &net_, id = id_, epoch = net_.crash_epoch(id_),
         fn = std::forward<F>(fn)]() mutable {
          if (net->crashed(id) || net->crash_epoch(id) != epoch) return;
          fn();
        });
  }
  void cancel(sim::TimerId timer) { simulator().cancel(timer); }

  // sim::NetHandler
  void on_packet(NodeId from, std::span<const std::uint8_t> data) override;

 private:
  /// One destination's pending frame: staged entry bytes plus accounting.
  struct Batch {
    Encoder entries;           // [port][len][payload] * count
    std::uint16_t count = 0;
    std::uint16_t acks = 0;    // entries staged as MsgClass::kAck
    bool active = false;       // appears in active_dests_
  };

  [[nodiscard]] Batch& batch_for(NodeId to);
  void stage(Port port, NodeId to, const Encoder& payload, MsgClass cls);
  void schedule_flush();
  /// Emit one frame carrying `batch`'s entries to every node in `group`.
  void emit_frame(std::span<const NodeId> group, const Batch& batch);
  void clear_batch(Batch& batch);

  sim::Network& net_;
  TransportConfig config_;
  NodeId id_;
  std::uint32_t incarnation_ = 0;
  std::array<PortHandler*, kPortCount> handlers_{};
  std::vector<NodeId> dest_scratch_;   // reused by the ProcessId multicast
  std::vector<Batch> batches_;         // indexed by destination NodeId value
  std::vector<NodeId> active_dests_;   // staging order — the flush order
  std::vector<NodeId> group_scratch_;  // reused by flush_now's grouping
  std::size_t staged_count_ = 0;
  bool flush_scheduled_ = false;
  sim::TimerId flush_timer_ = 0;
  /// Highest incarnation heard per peer node (indexed by NodeId value);
  /// frames from lower incarnations are stale ghosts and are dropped.
  std::vector<std::uint32_t> peer_incarnation_;
  Stats stats_;
};

}  // namespace plwg::transport
