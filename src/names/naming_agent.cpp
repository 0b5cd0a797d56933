#include "names/naming_agent.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/backoff.hpp"
#include "util/log.hpp"

namespace plwg::names {

namespace {
/// Client request timeout before retrying on the next server (the base
/// period of the retry backoff).
constexpr Duration kRequestTimeoutUs = 400'000;
/// Retry-timeout ceiling: the per-request timeout doubles on every
/// unanswered retry (with jitter) up to this cap, so clients stop hammering
/// a degraded server quorum at a fixed period.
constexpr Duration kRequestBackoffCapUs = 3'200'000;
/// Server anti-entropy period (also the heal-reconciliation latency).
constexpr Duration kSyncIntervalUs = 1'000'000;
/// While a conflict persists, the callback is re-sent at this period.
constexpr Duration kCallbackRepeatUs = 2'000'000;
/// Client/server internal timer period.
constexpr Duration kTickUs = 100'000;
/// Every Nth anti-entropy round ships the full database; the rounds in
/// between send only the records dirtied since the last sync (and are
/// skipped entirely when nothing changed). The periodic full exchange heals
/// divergence that delta loss or a partition left behind.
constexpr std::uint32_t kFullSyncEvery = 4;
}  // namespace

NamingAgent::NamingAgent(transport::NodeRuntime& node,
                         std::vector<NodeId> servers)
    : node_(node), servers_(std::move(servers)) {
  node_.register_port(transport::Port::kNaming, *this);
  node_.after(kTickUs, [this] { tick(); });
}

NamingAgent::~NamingAgent() = default;

void NamingAgent::enable_server(std::vector<NodeId> peers, Database db) {
  PLWG_ASSERT(!server_);
  ServerState state;
  state.peers = std::move(peers);
  state.db = std::move(db);
  server_ = std::move(state);
}

const Database& NamingAgent::database() const {
  PLWG_ASSERT_MSG(server_.has_value(), "not a name server");
  return server_->db;
}

std::string NamingAgent::dump_database() const { return database().dump(); }

// --- client side -----------------------------------------------------------

void NamingAgent::set(LwgId lwg, const MappingEntry& entry,
                      std::vector<ViewId> predecessors) {
  start_request(
      {SetReqMsg{next_req_id_, lwg, entry, std::move(predecessors)}, {}});
}

void NamingAgent::read(LwgId lwg, ReadCallback cb) {
  start_request({ReadReqMsg{next_req_id_, lwg}, std::move(cb)});
}

void NamingAgent::testset(LwgId lwg, const MappingEntry& entry,
                          ReadCallback cb) {
  start_request({TestSetReqMsg{next_req_id_, lwg, entry}, std::move(cb)});
}

void NamingAgent::start_request(PendingRequest req) {
  const std::uint64_t id = next_req_id_++;
  send_request(pending_.emplace(id, std::move(req)).first->second);
}

void NamingAgent::send_request(PendingRequest& req) {
  PLWG_ASSERT_MSG(!servers_.empty(), "no name servers configured");
  req.sent_at = node_.now();
  if (req.attempts < 32) req.attempts++;
  const NodeId server = servers_[req.server_index % servers_.size()];
  std::visit([&](const auto& msg) { send_msg(server, msg); }, req.msg);
}

void NamingAgent::client_on_ack(const AckMsg& msg) {
  pending_.erase(msg.req_id);
}

void NamingAgent::client_on_mappings(const MappingsMsg& msg) {
  auto it = pending_.find(msg.req_id);
  if (it == pending_.end()) return;
  ReadCallback cb = std::move(it->second.callback);
  const LwgId lwg =
      std::visit([](const auto& req) { return req.lwg; }, it->second.msg);
  pending_.erase(it);
  if (cb) cb(lwg, msg.entries);
}

// --- server side -----------------------------------------------------------

std::map<ViewId, MappingEntry> NamingAgent::alive_rows(LwgId lwg) const {
  std::map<ViewId, MappingEntry> out;
  auto it = server_->db.records.find(lwg);
  if (it == server_->db.records.end()) return out;
  for (const MappingEntry& e : it->second.alive_entries()) {
    out.emplace(e.lwg_view, e);
  }
  return out;
}

void NamingAgent::report_record_diff(
    LwgId lwg, const std::map<ViewId, MappingEntry>& before) {
  if (observer_ == nullptr) return;
  const std::map<ViewId, MappingEntry> after = alive_rows(lwg);
  for (const auto& [view, entry] : before) {
    if (!after.contains(view)) observer_->on_mapping_gced(node_.id(), lwg, view);
  }
  for (const auto& [view, entry] : after) {
    auto it = before.find(view);
    if (it == before.end() || !(it->second == entry)) {
      observer_->on_mapping_written(node_.id(), lwg, entry);
    }
  }
}

void NamingAgent::server_on_set(NodeId from, const SetReqMsg& msg) {
  PLWG_ASSERT(server_);
  stats_.set_requests++;
  const std::map<ViewId, MappingEntry> before =
      observer_ ? alive_rows(msg.lwg) : std::map<ViewId, MappingEntry>{};
  if (server_->db.records[msg.lwg].apply(msg.entry, msg.predecessors)) {
    server_->dirty.insert(msg.lwg);
  }
  report_record_diff(msg.lwg, before);
  send_msg(from, AckMsg{msg.req_id});
  server_check_conflicts({&msg.lwg, 1});
}

void NamingAgent::server_on_read(NodeId from, const ReadReqMsg& msg) {
  PLWG_ASSERT(server_);
  stats_.read_requests++;
  MappingsMsg reply;
  reply.req_id = msg.req_id;
  reply.lwg = msg.lwg;
  auto it = server_->db.records.find(msg.lwg);
  if (it != server_->db.records.end()) {
    reply.entries = it->second.alive_entries();
  }
  send_msg(from, reply);
}

void NamingAgent::server_on_testset(NodeId from, const TestSetReqMsg& msg) {
  PLWG_ASSERT(server_);
  stats_.testset_requests++;
  LwgRecord& rec = server_->db.records[msg.lwg];
  if (rec.entries.empty()) {
    rec.apply(msg.entry, {});
    server_->dirty.insert(msg.lwg);
    if (observer_) report_record_diff(msg.lwg, {});
  }
  MappingsMsg reply;
  reply.req_id = msg.req_id;
  reply.lwg = msg.lwg;
  reply.entries = rec.alive_entries();
  send_msg(from, reply);
  server_check_conflicts({&msg.lwg, 1});
}

void NamingAgent::server_on_sync(const SyncMsg& msg) {
  PLWG_ASSERT(server_);
  // Only the records the sync carries can change, so only they need an
  // observer snapshot.
  std::map<LwgId, std::map<ViewId, MappingEntry>> before;
  if (observer_) {
    for (const auto& [lwg, rec] : msg.db.records) {
      before.emplace(lwg, alive_rows(lwg));
    }
  }
  // Merge record by record so we learn *which* LWGs changed: anything a
  // peer taught us is dirty here too and rides our next delta onward —
  // deltas gossip transitively instead of waiting for a full round.
  std::vector<LwgId> changed;
  for (const auto& [lwg, rec] : msg.db.records) {
    if (server_->db.records[lwg].merge_from(rec)) {
      server_->dirty.insert(lwg);
      changed.push_back(lwg);
    }
  }
  if (!changed.empty()) {
    PLWG_DEBUG("names", "server ", node_.id(), " merged peer state");
    if (observer_) {
      for (LwgId lwg : changed) report_record_diff(lwg, before.at(lwg));
    }
    server_check_conflicts(changed);
  }
}

void NamingAgent::server_broadcast_sync() {
  PLWG_ASSERT(server_);
  if (server_->peers.empty()) return;
  const bool full = server_->sync_round % kFullSyncEvery == 0;
  server_->sync_round++;
  SyncMsg msg{full, {}};
  if (full) {
    if (server_->db.records.empty()) return;
    // Lend the database to the message rather than copy it; the transport
    // has copied the encoding by the time multicast_msg returns.
    msg.db = std::move(server_->db);
    stats_.full_syncs_sent++;
  } else {
    // Delta round: ship only the records dirtied since the last sync.
    // Nothing dirty means nothing to say — an idle server costs no frames.
    if (server_->dirty.empty()) return;
    for (LwgId lwg : server_->dirty) {
      auto it = server_->db.records.find(lwg);
      if (it != server_->db.records.end()) msg.db.records.emplace(*it);
    }
    stats_.delta_syncs_sent++;
  }
  server_->dirty.clear();
  stats_.syncs_sent += server_->peers.size();
  // One multicast: every peer's copy is byte-identical, so the transport
  // collapses them into a single wire frame (one bus occupancy).
  multicast_msg(server_->peers, msg, transport::MsgClass::kAck);
  if (full) server_->db = std::move(msg.db);
}

void NamingAgent::server_check_conflicts(std::span<const LwgId> changed) {
  PLWG_ASSERT(server_);
  ServerState& srv = *server_;
  const Time now = node_.now();
  // A record's signature only moves when a request changes it, so an
  // untouched record needs a visit only when its re-notify is due.
  std::vector<LwgId> visit;
  if (!srv.scanned) {
    srv.scanned = true;
    for (const auto& [lwg, rec] : srv.db.records) visit.push_back(lwg);
  } else {
    visit.assign(changed.begin(), changed.end());
    for (const auto& [last, lwg] : srv.by_last_callback) {
      if (now - last < kCallbackRepeatUs) break;
      visit.push_back(lwg);
    }
    std::sort(visit.begin(), visit.end());
    visit.erase(std::unique(visit.begin(), visit.end()), visit.end());
  }
  stats_.conflict_checks += visit.size();
  for (LwgId lwg : visit) {
    const LwgRecord& rec = srv.db.records.at(lwg);
    auto it = srv.notified.find(lwg);
    // Notify on hwg divergence (the paper's conflict) and also whenever a
    // record carries more than one alive row: concurrent same-hwg rows are
    // either a partition the merge protocol will fold (the callback is then
    // redundant but harmless) or a ghost row whose every holder died —
    // which only a notified surviving member can retire (see
    // LwgService::on_multiple_mappings).
    if (rec.entries.size() < 2) {
      if (it != srv.notified.end()) {
        srv.by_last_callback.erase({it->second.last_callback, lwg});
        srv.notified.erase(it);
      }
      continue;
    }
    std::vector<std::pair<ViewId, HwgId>> signature;
    signature.reserve(rec.entries.size());
    for (const auto& [view, entry] : rec.entries) {
      signature.emplace_back(view, entry.hwg);
    }
    if (it == srv.notified.end()) {
      it = srv.notified.emplace(lwg, ServerState::Notified{}).first;
    } else if (it->second.signature == signature &&
               now - it->second.last_callback < kCallbackRepeatUs) {
      continue;
    } else {
      srv.by_last_callback.erase({it->second.last_callback, lwg});
    }
    it->second = {std::move(signature), now};
    srv.by_last_callback.emplace(now, lwg);
    server_send_callback(lwg, rec);
  }
}

void NamingAgent::server_send_callback(LwgId lwg, const LwgRecord& rec) {
  MultipleMappingsMsg msg;
  msg.lwg = lwg;
  msg.entries = rec.alive_entries();
  const MemberSet targets = rec.all_members();
  PLWG_DEBUG("names", "server ", node_.id(), " MULTIPLE-MAPPINGS for lwg ",
             lwg, " to ", targets);
  // Identical payload to every member: one multicast, one wire frame.
  callback_targets_.clear();
  for (ProcessId p : targets.members()) {
    callback_targets_.push_back(transport::node_of(p));
  }
  stats_.callbacks_sent += callback_targets_.size();
  multicast_msg(callback_targets_, msg, transport::MsgClass::kData);
}

void NamingAgent::tick() {
  const Time now = node_.now();
  // Client: retry timed-out requests on the next server, with capped
  // exponential backoff — when the whole quorum is degraded (not just one
  // server), fixed-period fail-over turns every client into a synchronized
  // load generator against servers that are already struggling.
  for (auto& [id, req] : pending_) {
    const Duration timeout = backoff_delay(
        kRequestTimeoutUs, req.attempts > 0 ? req.attempts - 1 : 0,
        kRequestBackoffCapUs,
        (static_cast<std::uint64_t>(node_.id().value()) << 32) ^ id);
    if (now - req.sent_at >= timeout) {
      req.server_index++;
      send_request(req);
    }
  }
  // Server: anti-entropy.
  if (server_ && now - last_sync_ >= kSyncIntervalUs) {
    last_sync_ = now;
    server_broadcast_sync();
    server_check_conflicts({});  // periodic re-notify while conflicts persist
  }
  node_.after(kTickUs, [this] { tick(); });
}

void NamingAgent::on_message(NodeId from, Decoder& dec) {
  const auto type = static_cast<NamingMsgType>(dec.get_u8());
  switch (type) {
    case SetReqMsg::kType:
      if (server_) server_on_set(from, dec.get_exact<SetReqMsg>());
      break;
    case ReadReqMsg::kType:
      if (server_) server_on_read(from, dec.get_exact<ReadReqMsg>());
      break;
    case TestSetReqMsg::kType:
      if (server_) server_on_testset(from, dec.get_exact<TestSetReqMsg>());
      break;
    case AckMsg::kType:
      client_on_ack(dec.get_exact<AckMsg>());
      break;
    case MappingsMsg::kType:
      client_on_mappings(dec.get_exact<MappingsMsg>());
      break;
    case MultipleMappingsMsg::kType: {
      const MultipleMappingsMsg msg = dec.get_exact<MultipleMappingsMsg>();
      if (conflict_listener_) {
        conflict_listener_->on_multiple_mappings(msg.lwg, msg.entries);
      }
      break;
    }
    case SyncMsg::kType:
      if (server_) server_on_sync(dec.get_exact<SyncMsg>());
      break;
  }
}

}  // namespace plwg::names
