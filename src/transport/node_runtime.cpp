#include "transport/node_runtime.hpp"

#include <algorithm>
#include <memory>

#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace plwg::transport {

namespace {

/// The frame's protected bytes (everything after the checksum field: count
/// + all entries) hashed with the sender incarnation as the seed, truncated
/// to 32 bits. Order-sensitive, and catches both bit flips and truncation —
/// of any entry, anywhere in the batch, rejecting the frame whole.
std::uint32_t frame_checksum(std::uint32_t incarnation,
                             std::span<const std::uint8_t> protected_bytes) {
  return static_cast<std::uint32_t>(hash_bytes(protected_bytes, incarnation));
}

void put_u16_le(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32_le(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t get_u16_le(std::span<const std::uint8_t> in) {
  return static_cast<std::uint16_t>(in[0] |
                                    (static_cast<std::uint16_t>(in[1]) << 8));
}

std::uint32_t get_u32_le(std::span<const std::uint8_t> in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

/// Frame entries a u16 count can index.
constexpr std::size_t kMaxEntriesPerFrame = 0xFFFF;

}  // namespace

NodeRuntime::NodeRuntime(sim::Network& net)
    : net_(net), id_(net.add_node(*this)) {}

NodeRuntime::NodeRuntime(sim::Network& net, NodeId reuse,
                         std::uint32_t incarnation)
    : net_(net), id_(reuse), incarnation_(incarnation) {
  net_.restart(reuse, *this);
}

void NodeRuntime::register_port(Port port, PortHandler& handler) {
  const auto idx = static_cast<std::size_t>(port);
  PLWG_ASSERT(idx < kPortCount);
  PLWG_ASSERT_MSG(handlers_[idx] == nullptr, "port already registered");
  handlers_[idx] = &handler;
}

NodeRuntime::Batch& NodeRuntime::batch_for(NodeId to) {
  auto it = std::ranges::lower_bound(batches_, to, {}, &PeerBatch::to);
  if (it == batches_.end() || it->to != to) {
    it = batches_.insert(it, PeerBatch{to, {}});
  }
  return it->batch;
}

NodeRuntime::Batch& NodeRuntime::staged_batch(NodeId to) {
  auto it = std::ranges::lower_bound(batches_, to, {}, &PeerBatch::to);
  PLWG_ASSERT(it != batches_.end() && it->to == to);
  return it->batch;
}

std::size_t NodeRuntime::peer_count() const {
  std::vector<NodeId> peers;
  for (const PeerBatch& p : batches_) peers.push_back(p.to);
  for (const PeerIncarnation& p : peer_incarnation_) peers.push_back(p.from);
  std::ranges::sort(peers);
  return peers.size() - std::ranges::unique(peers).size();
}

void NodeRuntime::stage(Port port, NodeId to, const Encoder& payload,
                        MsgClass cls) {
  PLWG_ASSERT(to.valid());
  // flush_now() never inserts into batches_, so `b` survives it.
  Batch& b = batch_for(to);
  // Flush this destination early rather than grow past the frame-size cap
  // or the u16 entry count; the overflowing message starts a fresh batch.
  if (b.active &&
      (kFrameHeaderBytes + b.entries.size() + kEntryHeaderBytes +
               payload.size() >
           kMaxBatchBytes ||
       b.count == kMaxEntriesPerFrame)) {
    flush_now();
  }
  if (!b.active) {
    b.active = true;
    active_dests_.push_back(to);
  }
  b.entries.put_u8(static_cast<std::uint8_t>(port));
  b.entries.put_u32(static_cast<std::uint32_t>(payload.size()));
  b.entries.put_raw(payload.bytes());
  b.count++;
  if (cls == MsgClass::kAck) b.acks++;
  staged_count_++;
}

void NodeRuntime::schedule_flush() {
  if (flush_scheduled_) return;
  if (!simulator().in_event()) {
    // Driver/test code calling send() directly: keep the synchronous
    // one-message-one-frame behavior.
    flush_now();
    return;
  }
  flush_scheduled_ = true;
  // This fires at the *same simulated time*, after every event already
  // queued for this instant — i.e. at the end of the current round, adding
  // zero latency. The `after` guard keeps a flush scheduled by a now-dead
  // incarnation from ever touching its successor.
  flush_timer_ = after(0, [this] {
    flush_scheduled_ = false;
    flush_now();
  });
}

void NodeRuntime::clear_batch(Batch& batch) {
  batch.entries.clear();
  batch.count = 0;
  batch.acks = 0;
  batch.active = false;
}

void NodeRuntime::emit_frame(std::span<const NodeId> group,
                             const Batch& batch) {
  // The frame is written once, into the buffer every destination shares:
  // one allocation per frame.
  const std::span<const std::uint8_t> entries = batch.entries.bytes();
  const std::size_t size = kFrameHeaderBytes + entries.size();
  std::shared_ptr<std::uint8_t[]> buf =
      std::make_shared_for_overwrite<std::uint8_t[]>(size);
  std::uint8_t* const frame = buf.get();
  put_u32_le(frame, incarnation_);
  put_u16_le(frame + 8, batch.count);
  std::ranges::copy(entries, frame + kFrameHeaderBytes);
  put_u32_le(frame + 4,
             frame_checksum(incarnation_, {frame + 8, size - 8}));

  stats_.frames_sent++;
  stats_.messages_sent += batch.count;
  // An ack that shares its frame with anything else stopped costing a frame
  // of its own — that is the piggyback win the stats report.
  const std::uint64_t piggybacked = batch.count > 1 ? batch.acks : 0;
  stats_.piggybacked_acks += piggybacked;
  net_.note_frame(batch.count, piggybacked);
  net_.multicast(id_, group,
                 SharedBytes(BytesOwner(std::move(buf), frame), {frame, size}));
}

void NodeRuntime::flush_now() {
  if (flush_scheduled_) {
    cancel(flush_timer_);
    flush_scheduled_ = false;
  }
  if (active_dests_.empty()) return;
  if (net_.crashed(id_)) {
    // The sender died with messages staged: they die with it, like bytes
    // sitting in a dead host's socket buffers. Don't count them as sent.
    for (NodeId to : active_dests_) clear_batch(staged_batch(to));
    active_dests_.clear();
    staged_count_ = 0;
    return;
  }
  // Destinations whose staged bytes are identical — the pure-multicast
  // case — share one network transmission, preserving the shared bus's
  // one-occupancy-per-multicast economics. Group greedily in staging
  // order (deterministic); a destination whose batch also carries a
  // piggybacked extra simply falls out of the group and pays its own
  // frame, which is never worse than the unbatched transport. Nothing
  // below inserts into batches_, so the looked-up pointers stay valid.
  active_batches_.clear();
  for (NodeId to : active_dests_) active_batches_.push_back(&staged_batch(to));
  for (std::size_t i = 0; i < active_batches_.size(); ++i) {
    Batch& lead = *active_batches_[i];
    if (!lead.active) continue;  // already emitted with an earlier group
    group_scratch_.clear();
    group_scratch_.push_back(active_dests_[i]);
    const std::span<const std::uint8_t> lead_bytes = lead.entries.bytes();
    for (std::size_t j = i + 1; j < active_batches_.size(); ++j) {
      Batch& other = *active_batches_[j];
      if (!other.active || other.count != lead.count ||
          other.entries.size() != lead.entries.size()) {
        continue;
      }
      const std::span<const std::uint8_t> other_bytes = other.entries.bytes();
      if (!std::equal(lead_bytes.begin(), lead_bytes.end(),
                      other_bytes.begin())) {
        continue;
      }
      group_scratch_.push_back(active_dests_[j]);
      clear_batch(other);
    }
    emit_frame(group_scratch_, lead);
    staged_count_ -= static_cast<std::size_t>(lead.count) *
                     group_scratch_.size();
    clear_batch(lead);
  }
  active_dests_.clear();
}

// The flush is scheduled only after *all* of a call's destinations staged:
// a synchronous flush fired from inside the staging loop would emit the
// first destination's frame alone and forfeit the multicast's shared bus
// transmission.
void NodeRuntime::send(Port port, NodeId to, const Encoder& payload,
                       MsgClass cls) {
  stage(port, to, payload, cls);
  schedule_flush();
}

void NodeRuntime::multicast(Port port, std::span<const NodeId> dests,
                            const Encoder& payload, MsgClass cls) {
  for (NodeId to : dests) stage(port, to, payload, cls);
  if (!dests.empty()) schedule_flush();
}

void NodeRuntime::multicast(Port port, std::span<const ProcessId> dests,
                            const Encoder& payload, MsgClass cls) {
  for (ProcessId p : dests) stage(port, node_of(p), payload, cls);
  if (!dests.empty()) schedule_flush();
}

void NodeRuntime::on_packet(NodeId from, std::span<const std::uint8_t> data,
                            const BytesOwner& owner) {
  if (data.size() < kFrameHeaderBytes) {
    stats_.malformed_frames++;
    PLWG_WARN("transport", "short frame (", data.size(), "B) from node ",
              from);
    return;
  }
  const std::uint32_t incarnation = get_u32_le(data.subspan(0, 4));
  const std::uint32_t checksum = get_u32_le(data.subspan(4, 4));
  if (frame_checksum(incarnation, data.subspan(8)) != checksum) {
    // Corrupted in transit: refuse the WHOLE batch before the incarnation,
    // count, or any entry can poison state. Corruption degrades to loss.
    stats_.malformed_frames++;
    PLWG_WARN("transport", "bad checksum on frame from node ", from);
    return;
  }
  auto peer = std::ranges::lower_bound(peer_incarnation_, from, {},
                                       &PeerIncarnation::from);
  if (peer == peer_incarnation_.end() || peer->from != from) {
    peer = peer_incarnation_.insert(peer, PeerIncarnation{from});
  }
  std::uint32_t& known = peer->incarnation;
  if (incarnation < known) {
    stats_.stale_incarnation_drops++;
    PLWG_DEBUG("transport", "ghost frame from node ", from, " incarnation ",
               incarnation, " (now ", known, ")");
    return;
  }
  known = incarnation;
  const std::uint16_t count = get_u16_le(data.subspan(8, 2));
  std::span<const std::uint8_t> rest = data.subspan(kFrameHeaderBytes);
  for (std::uint16_t n = 0; n < count; ++n) {
    // The checksum already vouched for these bytes, so a bound violation
    // here is a sender framing bug rather than wire damage — but hostile
    // input can present a valid checksum over a malformed batch, so the
    // demux still refuses instead of trusting the counts.
    if (rest.size() < kEntryHeaderBytes) {
      stats_.malformed_frames++;
      PLWG_WARN("transport", "truncated entry header in frame from ", from);
      return;
    }
    const std::uint8_t port_byte = rest[0];
    const std::uint32_t len = get_u32_le(rest.subspan(1, 4));
    rest = rest.subspan(kEntryHeaderBytes);
    if (rest.size() < len) {
      stats_.malformed_frames++;
      PLWG_WARN("transport", "truncated entry payload in frame from ", from);
      return;
    }
    const std::span<const std::uint8_t> payload = rest.subspan(0, len);
    rest = rest.subspan(len);
    const auto idx = static_cast<std::size_t>(port_byte);
    if (idx >= kPortCount || handlers_[idx] == nullptr) {
      stats_.unbound_port_drops++;
      PLWG_WARN("transport", "message for unbound port ", idx, " from ",
                from);
      continue;  // the rest of the batch is still good
    }
    Decoder dec(payload, owner);
    try {
      handlers_[idx]->on_message(from, dec);
    } catch (const CodecError& e) {
      stats_.decode_errors++;
      PLWG_ERROR("transport", "malformed message from ", from, ": ",
                 e.what());
    }
  }
  if (!rest.empty()) {
    stats_.malformed_frames++;
    PLWG_WARN("transport", "trailing bytes after batch from ", from);
  }
}

}  // namespace plwg::transport
