#include "sim/network.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace plwg::sim {

namespace {
/// Bus propagation delay within one LAN segment, microseconds (the WAN
/// backbone's is WanConfig::propagation_delay_us).
constexpr Duration kLanPropagationUs = 50;
/// Per-packet framing overhead added to the payload (UDP/IP + Ethernet).
constexpr std::size_t kHeaderBytes = 46;
}  // namespace

void NetworkStats::accumulate(const NetworkStats& other) {
  frames_sent += other.frames_sent;
  messages_sent += other.messages_sent;
  piggybacked_acks += other.piggybacked_acks;
  deliveries += other.deliveries;
  bytes_sent += other.bytes_sent;
  bytes_on_wire += other.bytes_on_wire;
  drops += other.drops;
  link_blocked += other.link_blocked;
  stale_epoch_drops += other.stale_epoch_drops;
  bus_busy_us += other.bus_busy_us;
  stalls += other.stalls;
  stall_deferred_sends += other.stall_deferred_sends;
  stall_us += other.stall_us;
}

std::string NetworkStats::debug_dump() const {
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.2f", amortization_ratio());
  std::string out = "net{frames=" + std::to_string(frames_sent);
  out += " msgs=" + std::to_string(messages_sent);
  out += " amortization=" + std::string(ratio) + "x";
  out += " piggybacked_acks=" + std::to_string(piggybacked_acks);
  out += " deliveries=" + std::to_string(deliveries);
  out += " bytes_on_wire=" + std::to_string(bytes_on_wire);
  out += " drops=" + std::to_string(drops);
  out += " link_blocked=" + std::to_string(link_blocked);
  out += " stale_epoch_drops=" + std::to_string(stale_epoch_drops);
  out += " bus_busy_us=" + std::to_string(bus_busy_us);
  if (stalls > 0) {
    out += " stalls=" + std::to_string(stalls);
    out += " stall_deferred_sends=" + std::to_string(stall_deferred_sends);
    out += " stall_us=" + std::to_string(stall_us);
  }
  out += "}";
  return out;
}

Network::Network(Engine& engine, NetworkConfig config)
    : engine_(engine), config_(config) {
  PLWG_ASSERT(config_.bandwidth_bps > 0);
  sites_.resize(engine.num_sites());
  // Per-site PRNG streams: site 0 draws from the seed itself; site i>0 gets
  // an independent splitmix64-derived stream. Streams depend only on the seed
  // and the site count — never on the thread count or the class grouping.
  std::uint64_t stream = config_.seed;
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    sites_[s].sim = &engine.site(s);
    sites_[s].rng = Rng(s == 0 ? config_.seed : splitmix64(stream));
  }
}

void Network::assert_idle(const char* what) const {
  (void)what;
  PLWG_ASSERT_MSG(!engine_.running(),
                  "topology mutation while the engine is running");
}

NodeId Network::add_node(NetHandler& handler) {
  assert_idle("add_node");
  const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  NodeState state;
  state.handler = &handler;
  nodes_.push_back(state);
  return id;
}

Duration Network::transmission_time(std::size_t payload_bytes,
                                    double bandwidth_bps) const {
  const double bits = static_cast<double>(payload_bytes + kHeaderBytes) * 8.0;
  const double seconds = bits / bandwidth_bps;
  return static_cast<Duration>(seconds * 1e6) + 1;  // at least 1us
}

Time Network::occupy_bus(SiteCtx& ctx, std::int64_t key, Time earliest,
                         Duration tx_time) {
  Time& bus_free = ctx.bus_free_at[key];
  const Time tx_start = std::max(earliest, bus_free);
  const Time tx_end = tx_start + tx_time;
  ctx.stats.bus_busy_us += tx_time;
  bus_free = tx_end;
  return tx_end;
}

void Network::multicast(NodeId from, std::span<const NodeId> dests,
                        std::vector<std::uint8_t> data) {
  PLWG_ASSERT(from.valid() && from.value() < nodes_.size());
  NodeState& sender = nodes_[from.value()];
  if (sender.crashed) return;
  // All sender-side queue/RNG/stat state lives in the sender's site; this
  // call runs either inside that site's events or while the engine is
  // idle, so no other thread can touch it.
  SiteCtx& ctx = sites_[sender.site];
  Simulator& sim = *ctx.sim;

  // A stalled process cannot run its event loop: the send is parked (not
  // lost) and fires the instant the stall lifts — the post-pause burst a
  // real GC stall produces. Re-entering multicast at stalled_until passes
  // this check (strict >), so there is no recursion; an idle-time extension
  // of the stall simply parks the send again. Everything here is the
  // sender's site's state, so determinism is unaffected.
  if (sender.stalled_until > sim.now()) {
    ctx.stats.stall_deferred_sends++;
    std::vector<NodeId> parked_dests(dests.begin(), dests.end());
    sim.schedule_at(sender.stalled_until,
                    [this, from, parked_dests = std::move(parked_dests),
                     data = std::move(data)]() mutable {
                      multicast(from, parked_dests, std::move(data));
                    });
    return;
  }

  ctx.stats.frames_sent++;
  ctx.stats.bytes_sent += data.size();
  ctx.stats.bytes_on_wire += data.size() + kHeaderBytes;
  // Frame identity is minted per site (high bits = site) — a global
  // counter would be the one cross-site write on every send path.
  const std::uint64_t packet_id =
      (static_cast<std::uint64_t>(sender.site) << 48) | ctx.next_packet_id++;
  ctx.digest.fold_u64(static_cast<std::uint64_t>(sim.now()));
  ctx.digest.fold_u64(packet_id);
  ctx.digest.fold_u64(data.size());

  // Shared-bus occupancy on the sender's LAN.
  const Duration lan_tx = transmission_time(data.size(), config_.bandwidth_bps);
  const Time tx_end = occupy_bus(
      ctx, bus_key(sender.partition, sender.segment), sim.now(), lan_tx);

  auto shared = std::make_shared<const std::vector<std::uint8_t>>(
      std::move(data));

  // Local deliveries (and loopback). A packet that must leave the LAN is
  // forwarded once over the backbone and re-transmitted on each destination
  // segment's bus (store-and-forward). Each queue is occupied by an event
  // *at the time the packet reaches it* — booking future slots eagerly
  // would let far-away traffic starve earlier local traffic. std::map keeps
  // destination segments in a deterministic order.
  std::map<int, std::vector<NodeId>> remote_dests;
  for (NodeId to : dests) {
    PLWG_ASSERT(to.valid() && to.value() < nodes_.size());
    if (to == from) {
      // Loopback: no bus, just local processing cost.
      deliver(from, to, shared, sim.now());
      continue;
    }
    const NodeState& receiver = nodes_[to.value()];
    if (receiver.crashed || receiver.partition != sender.partition) continue;
    // Directed-link fault: the one-way check that partitions cannot express.
    const LinkFault* lf = link_fault(from, to);
    if (lf != nullptr && lf->blocked) {
      ctx.stats.link_blocked++;
      continue;
    }
    const double drop_p = (lf != nullptr && lf->drop_probability >= 0)
                              ? lf->drop_probability
                              : config_.drop_probability;
    if (drop_p > 0 && ctx.rng.next_bool(drop_p)) {
      ctx.stats.drops++;
      continue;
    }
    if (receiver.segment == sender.segment) {
      deliver_from_bus(ctx, from, to, lf, shared, tx_end);
    } else {
      remote_dests[receiver.segment].push_back(to);
    }
  }
  if (remote_dests.empty()) return;

  // Backbone hop: occupy the source segment's WAN uplink when the packet
  // leaves the source bus, then each destination LAN's bus when it comes
  // off the backbone. The uplink is sender-site state; the destination-bus
  // hop crosses sites and is the one place Engine::post is needed. Its
  // timestamp is >= now + uplink tx (>=1us) + backbone propagation — never
  // inside the engine's lookahead sub-window. Every cross-site hop goes
  // through the outbox: the destination is a sibling site of the sender's
  // class job, which may already have run it through this sub-window, so a
  // direct schedule could land in its past; the outbox injects it at the
  // sub-window's end, in fixed (source site, post order) order.
  const std::size_t bytes = shared->size();
  const int partition = sender.partition;
  const int src_segment = sender.segment;
  sim.schedule_at(tx_end, [this, from, shared, bytes, partition, src_segment,
                           lan_tx,
                           remote_dests = std::move(remote_dests)]() mutable {
    // Re-check reachability at the backbone edge: topology changes land
    // between engine windows, but bus backlog can hold a frame across them.
    // A frame whose destinations were cut away while it sat on the source
    // bus was on the wire when the partition happened — it is lost. (This
    // is also what keeps class jobs sound: without the re-check, a stale
    // hop would post into another reachability class, whose job may run on
    // another thread and may have run arbitrarily far ahead.)
    const int cur_partition = nodes_[from.value()].partition;
    SiteCtx& sctx = sites_[nodes_[from.value()].site];
    Time& uplink_free =
        sctx.uplink_free_at[bus_key(partition, src_segment)];
    const Time wan_start = std::max(sctx.sim->now(), uplink_free);
    const Time wan_end =
        wan_start + transmission_time(bytes, wan_.bandwidth_bps);
    uplink_free = wan_end;
    const Time backbone_out = wan_end + wan_.propagation_delay_us;
    for (auto& [segment, nodes] : remote_dests) {
      std::erase_if(nodes, [&](NodeId to) {
        return nodes_[to.value()].partition != cur_partition;
      });
      if (nodes.empty()) continue;
      const std::size_t dst_site = site_of_segment(segment);
      auto hop = [this, from, shared, partition, segment, lan_tx,
                  nodes = std::move(nodes)] {
        segment_arrival(from, partition, segment, lan_tx, shared, nodes);
      };
      if (dst_site != nodes_[from.value()].site) {
        engine_.post(dst_site, backbone_out, std::move(hop));
      } else {
        sites_[dst_site].sim->schedule_at(backbone_out, std::move(hop));
      }
    }
  });
}

void Network::segment_arrival(
    NodeId from, int partition, int segment, Duration lan_tx,
    const std::shared_ptr<const std::vector<std::uint8_t>>& shared,
    const std::vector<NodeId>& nodes) {
  // Runs in the destination segment's site: its bus queue and fault RNG
  // are local here.
  SiteCtx& ctx = sites_[site_of_segment(segment)];
  const Time seg_done =
      occupy_bus(ctx, bus_key(partition, segment), ctx.sim->now(), lan_tx);
  for (NodeId to : nodes) {
    // Same wire-loss rule as the backbone edge: a re-cut while the frame
    // crossed the backbone drops it at the destination LAN.
    if (nodes_[to.value()].partition != nodes_[from.value()].partition) {
      continue;
    }
    deliver_from_bus(ctx, from, to, link_fault(from, to), shared, seg_done);
  }
}

void Network::deliver_from_bus(
    SiteCtx& ctx, NodeId from, NodeId to, const LinkFault* lf,
    const std::shared_ptr<const std::vector<std::uint8_t>>& shared,
    Time bus_done) {
  Time arrival = bus_done + kLanPropagationUs;
  const Duration jitter =
      (lf != nullptr && lf->jitter_us >= 0) ? lf->jitter_us : config_.jitter_us;
  if (jitter > 0) {
    arrival += static_cast<Duration>(
        ctx.rng.next_below(static_cast<std::uint64_t>(jitter) + 1));
  }
  deliver(from, to, shared, arrival);
}

void Network::set_segments(const std::vector<std::vector<NodeId>>& segments,
                           WanConfig wan) {
  assert_idle("set_segments");
  std::vector<int> assignment(nodes_.size(), -1);
  int index = 0;
  for (const auto& segment : segments) {
    for (NodeId n : segment) {
      PLWG_ASSERT(n.valid() && n.value() < nodes_.size());
      PLWG_ASSERT_MSG(assignment[n.value()] == -1,
                      "node listed in two segments");
      assignment[n.value()] = index;
    }
    ++index;
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    PLWG_ASSERT_MSG(assignment[i] != -1,
                    "node missing from segment specification");
    nodes_[i].segment = assignment[i];
    nodes_[i].site = site_of_segment(assignment[i]);
  }
  wan_ = wan;
  clear_queues();
  if (sites_.size() > 1) {
    // Minimum cross-site latency: every inter-segment packet pays at least
    // 1us of uplink transmission plus the backbone propagation delay before
    // it can reach another site.
    engine_.set_lookahead(wan_.propagation_delay_us + 1);
  }
  push_site_classes();
  PLWG_INFO("net", "topology: ", segments.size(), " LAN segments on ",
            sites_.size(), " sites");
}

std::vector<int> Network::site_classes() const {
  const std::size_t n = sites_.size();
  // Union-find over sites, joined whenever a partition token spans them.
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::unordered_map<int, std::size_t> token_site;
  for (const NodeState& node : nodes_) {
    const auto [it, fresh] = token_site.try_emplace(node.partition, node.site);
    if (fresh) continue;
    const std::size_t a = find(it->second);
    const std::size_t b = find(node.site);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);  // root = min site
  }
  std::vector<int> classes(n);
  for (std::size_t i = 0; i < n; ++i) classes[i] = static_cast<int>(find(i));
  return classes;
}

void Network::push_site_classes() {
  if (sites_.size() < 2) return;
  engine_.set_site_classes(site_classes());
}

int Network::segment_of(NodeId n) const {
  PLWG_ASSERT(n.value() < nodes_.size());
  return nodes_[n.value()].segment;
}

void Network::unicast(NodeId from, NodeId to, std::vector<std::uint8_t> data) {
  const NodeId dests[] = {to};
  multicast(from, dests, std::move(data));
}

void Network::deliver(NodeId from, NodeId to,
                      std::shared_ptr<const std::vector<std::uint8_t>> data,
                      Time arrival) {
  // Always called from the destination node's site (local traffic stays in
  // the sender's == receiver's site; backbone traffic lands here via
  // segment_arrival), so the receiver's CPU queue and epoch are local.
  //
  // The packet is addressed to the destination's *current incarnation*; if
  // the node crashes and restarts while the packet is in flight, the new
  // incarnation must not receive it.
  const std::uint32_t epoch = nodes_[to.value()].epoch;
  Simulator& sim = *sites_[nodes_[to.value()].site].sim;
  // Receiver CPU is a FIFO queue: processing starts when both the packet
  // has arrived and the CPU is free, and takes node_process_cost_us. The
  // CPU slot is claimed *at arrival* — claiming it at send time would let a
  // slow (e.g. cross-WAN) packet reserve the CPU into the future and starve
  // packets that arrive earlier.
  sim.schedule_at(arrival, [this, from, to, epoch,
                            data = std::move(data)]() mutable {
    NodeState& receiver = nodes_[to.value()];
    SiteCtx& ctx = sites_[receiver.site];
    if (receiver.epoch != epoch) {
      ctx.stats.stale_epoch_drops++;
      return;
    }
    if (receiver.crashed) return;  // dead incarnation: no CPU to occupy
    const Time start = std::max(ctx.sim->now(), receiver.cpu_free_at);
    Duration cost = config_.node_process_cost_us;
    if (receiver.cpu_factor != 1.0) {
      cost = std::max<Duration>(
          1, static_cast<Duration>(static_cast<double>(cost) *
                                   receiver.cpu_factor));
    }
    const Time done = start + cost;
    receiver.cpu_free_at = done;
    // The buffer moves (not ref-bumps) through both hops: one multicast =
    // one encode = one shared buffer, refcounted once per destination.
    ctx.sim->schedule_at(done, [this, from, to, epoch,
                                data = std::move(data)] {
      NodeState& r = nodes_[to.value()];
      SiteCtx& c = sites_[r.site];
      if (r.epoch != epoch) {
        c.stats.stale_epoch_drops++;
        return;
      }
      if (r.crashed) return;
      c.stats.deliveries++;
      c.digest.record_delivery(c.sim->now(), from, to, data->size());
      if (config_.digest_payloads) {
        c.digest.fold_bytes(std::span<const std::uint8_t>(*data));
      }
      r.handler->on_packet(from, std::span<const std::uint8_t>(*data));
    });
  });
}

void Network::clear_queues() {
  for (SiteCtx& ctx : sites_) {
    ctx.bus_free_at.clear();
    ctx.uplink_free_at.clear();
  }
}

void Network::set_partitions(const std::vector<std::vector<NodeId>>& classes) {
  assert_idle("set_partitions");
  std::vector<int> assignment(nodes_.size(), -1);
  for (const auto& cls : classes) {
    const int token = next_partition_token_++;
    for (NodeId n : cls) {
      PLWG_ASSERT(n.valid() && n.value() < nodes_.size());
      PLWG_ASSERT_MSG(assignment[n.value()] == -1,
                      "node listed in two partition classes");
      assignment[n.value()] = token;
    }
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    PLWG_ASSERT_MSG(assignment[i] != -1,
                    "node missing from partition specification");
    nodes_[i].partition = assignment[i];
  }
  // New reachability classes restart the queues.
  clear_queues();
  push_site_classes();
  PLWG_INFO("net", "network partitioned into ", classes.size(), " classes");
}

void Network::heal() {
  assert_idle("heal");
  const int token = next_partition_token_++;
  for (auto& node : nodes_) node.partition = token;
  clear_queues();
  push_site_classes();
  PLWG_INFO("net", "network healed");
}

bool Network::reachable(NodeId a, NodeId b) const {
  PLWG_ASSERT(a.value() < nodes_.size() && b.value() < nodes_.size());
  const NodeState& na = nodes_[a.value()];
  const NodeState& nb = nodes_[b.value()];
  return !na.crashed && !nb.crashed && na.partition == nb.partition;
}

int Network::partition_of(NodeId n) const {
  PLWG_ASSERT(n.value() < nodes_.size());
  return nodes_[n.value()].partition;
}

void Network::set_link_fault(NodeId from, NodeId to, LinkFault fault) {
  assert_idle("set_link_fault");
  PLWG_ASSERT(from.valid() && from.value() < nodes_.size());
  PLWG_ASSERT(to.valid() && to.value() < nodes_.size());
  PLWG_ASSERT_MSG(from != to, "link fault on a node's loopback path");
  PLWG_ASSERT(fault.drop_probability <= 1.0);
  link_faults_[link_key(from, to)] = fault;
  PLWG_DEBUG("net", "link ", from, "->", to, " fault: blocked=", fault.blocked,
             " drop=", fault.drop_probability, " jitter=", fault.jitter_us);
}

void Network::clear_link_fault(NodeId from, NodeId to) {
  assert_idle("clear_link_fault");
  link_faults_.erase(link_key(from, to));
}

void Network::clear_link_faults() {
  if (link_faults_.empty()) return;
  assert_idle("clear_link_faults");
  link_faults_.clear();
  PLWG_INFO("net", "all link faults cleared");
}

const LinkFault* Network::link_fault(NodeId from, NodeId to) const {
  if (link_faults_.empty()) return nullptr;
  const auto it = link_faults_.find(link_key(from, to));
  return it == link_faults_.end() ? nullptr : &it->second;
}

void Network::crash(NodeId n) {
  assert_idle("crash");
  PLWG_ASSERT(n.value() < nodes_.size());
  nodes_[n.value()].crashed = true;
  PLWG_INFO("net", "node ", n, " crashed");
}

bool Network::crashed(NodeId n) const {
  PLWG_ASSERT(n.value() < nodes_.size());
  return nodes_[n.value()].crashed;
}

void Network::restart(NodeId n, NetHandler& handler) {
  assert_idle("restart");
  PLWG_ASSERT(n.value() < nodes_.size());
  NodeState& node = nodes_[n.value()];
  PLWG_ASSERT_MSG(node.crashed, "restart of a node that is not crashed");
  node.crashed = false;
  node.epoch++;
  node.handler = &handler;
  node.cpu_free_at = sites_[node.site].sim->now();
  PLWG_INFO("net", "node ", n, " restarted (epoch ", node.epoch, ")");
}

std::uint32_t Network::crash_epoch(NodeId n) const {
  PLWG_ASSERT(n.value() < nodes_.size());
  return nodes_[n.value()].epoch;
}

void Network::charge_cpu(NodeId n, Duration cost_us) {
  PLWG_ASSERT(n.value() < nodes_.size());
  PLWG_ASSERT(cost_us >= 0);
  NodeState& node = nodes_[n.value()];
  if (node.cpu_factor != 1.0 && cost_us > 0) {
    cost_us = std::max<Duration>(
        1,
        static_cast<Duration>(static_cast<double>(cost_us) * node.cpu_factor));
  }
  node.cpu_free_at =
      std::max(sites_[node.site].sim->now(), node.cpu_free_at) + cost_us;
}

void Network::stall_node(NodeId n, Duration duration_us) {
  assert_idle("stall_node");
  PLWG_ASSERT(n.value() < nodes_.size());
  PLWG_ASSERT(duration_us > 0);
  NodeState& node = nodes_[n.value()];
  SiteCtx& ctx = sites_[node.site];
  const Time now = ctx.sim->now();
  node.stalled_until = std::max(node.stalled_until, now + duration_us);
  // The frozen process drains no inbound packets either: its receive CPU is
  // occupied until the stall ends, and any backlog queues behind that.
  node.cpu_free_at = std::max(node.cpu_free_at, node.stalled_until);
  ctx.stats.stalls++;
  ctx.stats.stall_us += duration_us;
  PLWG_INFO("net", "node ", n, " stalled for ", duration_us, "us (until ",
            node.stalled_until, ")");
}

void Network::set_cpu_factor(NodeId n, double factor) {
  assert_idle("set_cpu_factor");
  PLWG_ASSERT(n.value() < nodes_.size());
  PLWG_ASSERT_MSG(factor > 0, "cpu factor must be positive");
  nodes_[n.value()].cpu_factor = factor;
  PLWG_INFO("net", "node ", n, " cpu factor -> ", factor);
}

void Network::set_clock_rate(NodeId n, double rate) {
  assert_idle("set_clock_rate");
  PLWG_ASSERT(n.value() < nodes_.size());
  PLWG_ASSERT_MSG(rate > 0, "clock rate must be positive");
  nodes_[n.value()].clock_rate = rate;
  PLWG_INFO("net", "node ", n, " clock rate -> ", rate);
}

void Network::clear_node_faults() {
  assert_idle("clear_node_faults");
  bool any = false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeState& node = nodes_[i];
    const Time now = sites_[node.site].sim->now();
    if (node.stalled_until > now) {
      // Forgive the stall's CPU backlog: convergence measurement starts
      // from a healthy node, not one still digesting its frozen interval.
      node.cpu_free_at = std::min(node.cpu_free_at, now);
      any = true;
    }
    if (node.cpu_factor != 1.0 || node.clock_rate != 1.0) any = true;
    node.stalled_until = 0;
    node.cpu_factor = 1.0;
    node.clock_rate = 1.0;
  }
  if (any) PLWG_INFO("net", "all node gray faults cleared");
}

bool Network::node_stalled(NodeId n) const {
  PLWG_ASSERT(n.value() < nodes_.size());
  const NodeState& node = nodes_[n.value()];
  return node.stalled_until > sites_[node.site].sim->now();
}

double Network::cpu_factor(NodeId n) const {
  PLWG_ASSERT(n.value() < nodes_.size());
  return nodes_[n.value()].cpu_factor;
}

double Network::clock_rate(NodeId n) const {
  PLWG_ASSERT(n.value() < nodes_.size());
  return nodes_[n.value()].clock_rate;
}

std::size_t Network::node_fault_count() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeState& node = nodes_[i];
    if (node.cpu_factor != 1.0 || node.clock_rate != 1.0 ||
        node.stalled_until > sites_[node.site].sim->now()) {
      ++count;
    }
  }
  return count;
}

Duration Network::scale_delay(NodeId n, Duration delay) const {
  PLWG_ASSERT(n.value() < nodes_.size());
  const double rate = nodes_[n.value()].clock_rate;
  if (rate == 1.0 || delay <= 0) return delay;
  return std::max<Duration>(
      1, static_cast<Duration>(static_cast<double>(delay) / rate));
}

const NetworkStats& Network::stats() const {
  agg_stats_ = {};
  for (const SiteCtx& ctx : sites_) agg_stats_.accumulate(ctx.stats);
  return agg_stats_;
}

void Network::reset_stats() {
  for (SiteCtx& ctx : sites_) ctx.stats = {};
  agg_stats_ = {};
}

void Network::note_frame(NodeId from, std::size_t messages,
                         std::size_t piggybacked) {
  SiteCtx& ctx = ctx_of(from);
  ctx.stats.messages_sent += messages;
  ctx.stats.piggybacked_acks += piggybacked;
}

std::uint64_t Network::trace_digest() const {
  TraceDigest combined;
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    combined.combine(sites_[s].digest);
    combined.fold_u64(sites_[s].sim->total_events_run());
  }
  return combined.value();
}

}  // namespace plwg::sim
