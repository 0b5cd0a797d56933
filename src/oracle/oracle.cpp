#include "oracle/oracle.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "names/mapping.hpp"
#include "transport/node_runtime.hpp"
#include "util/log.hpp"

namespace plwg::oracle {

namespace {

void append_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << ' ';
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

ProtocolOracle::ProtocolOracle(std::function<Time()> clock)
    : clock_(std::move(clock)) {}

Time ProtocolOracle::now() {
  return clock_ ? clock_() : static_cast<Time>(++event_counter_);
}

void ProtocolOracle::trace(ProcessId p, const TraceEvent& event) {
  trace_node(transport::node_of(p), event);
}

void ProtocolOracle::trace_node(NodeId n, const TraceEvent& event) {
  traces_[n].push(event);
}

void ProtocolOracle::record(int invariant, std::string description,
                            std::vector<ProcessId> processes) {
  std::vector<NodeId> actors;
  actors.reserve(processes.size());
  for (ProcessId p : processes) actors.push_back(transport::node_of(p));
  record_node(invariant, std::move(description), std::move(actors));
}

void ProtocolOracle::record_node(int invariant, std::string description,
                                 std::vector<NodeId> actors) {
  total_++;
  PLWG_INFO("oracle", "invariant #", invariant, " violated: ", description);
  if (violations_.size() >= kMaxViolations) return;
  Violation v;
  v.invariant = invariant;
  v.time = clock_ ? clock_() : static_cast<Time>(event_counter_);
  v.description = std::move(description);
  v.actors = std::move(actors);
  violations_.push_back(std::move(v));
}

void ProtocolOracle::clear() { violations_.clear(); total_ = 0; }

void ProtocolOracle::test_drop_next_hwg_delivery(ProcessId p, int count) {
  drop_hwg_deliveries_[p] += count;
}

// --- shared epoch machinery ---------------------------------------------------

void ProtocolOracle::close_epoch(
    std::map<std::pair<ProcessId, std::uint64_t>, Epoch>& epochs,
    std::map<std::tuple<std::uint64_t, vsync::ViewId, vsync::ViewId>,
             PairRecord>& pairs,
    ProcessId p, std::uint64_t group, const vsync::ViewId& new_view,
    const char* level) {
  Epoch& ep = epochs[{p, group}];
  if (ep.open && ep.view != new_view) {
    auto [it, inserted] = pairs.try_emplace({group, ep.view, new_view});
    PairRecord& pr = it->second;
    if (inserted) {
      pr.msgs = ep.delivered;
      pr.first_reporter = p;
    } else if (pr.msgs != ep.delivered) {
      std::size_t diverge = 0;
      while (diverge < pr.msgs.size() && diverge < ep.delivered.size() &&
             pr.msgs[diverge] == ep.delivered[diverge]) {
        diverge++;
      }
      std::ostringstream os;
      os << level << " " << group << " virtual synchrony: between views "
         << ep.view.to_string() << " and " << new_view.to_string()
         << " process " << p.value() << " delivered " << ep.delivered.size()
         << " message(s) but process " << pr.first_reporter.value()
         << " delivered " << pr.msgs.size() << " (first divergence at index "
         << diverge << ")";
      record(1, os.str(), {p, pr.first_reporter});
    }
  }
  ep.open = true;
  ep.view = new_view;
  ep.delivered.clear();
}

// --- vsync hooks --------------------------------------------------------------

void ProtocolOracle::on_hwg_view_installed(ProcessId p, HwgId gid,
                                           const vsync::View& view) {
  trace(p, TraceEvent{now(), EventKind::kHwgView, gid.value(), view.id,
                      view.id.coordinator, view.members.size()});
  if (!view.members.contains(p)) {
    std::ostringstream os;
    os << "hwg " << gid.value() << ": process " << p.value()
       << " installed view " << view.id.to_string()
       << " it is not a member of " << view.members;
    record(2, os.str(), {p});
  }
  auto [it, inserted] = hwg_views_.try_emplace({gid, view.id});
  ViewRecord& vr = it->second;
  if (inserted) {
    vr.members = view.members;
    vr.first_reporter = p;
  } else if (vr.members != view.members) {
    std::ostringstream os;
    os << "hwg " << gid.value() << " view " << view.id.to_string()
       << ": process " << p.value() << " installed membership " << view.members
       << " but process " << vr.first_reporter.value() << " installed "
       << vr.members;
    record(6, os.str(), {p, vr.first_reporter});
  }
  close_epoch(hwg_epochs_, hwg_pairs_, p, gid.value(), view.id, "hwg");
}

void ProtocolOracle::on_hwg_delivered(ProcessId p, HwgId gid,
                                      const vsync::ViewId& view,
                                      std::uint64_t seq, ProcessId origin,
                                      std::uint64_t sender_msg_id,
                                      std::span<const std::uint8_t> payload) {
  on_hwg_delivered_key(p, gid, view, seq, origin, sender_msg_id,
                       payload_key(payload));
}

void ProtocolOracle::on_hwg_delivered_key(ProcessId p, HwgId gid,
                                          const vsync::ViewId& view,
                                          std::uint64_t seq, ProcessId origin,
                                          std::uint64_t sender_msg_id,
                                          std::uint64_t payload_key) {
  auto dit = drop_hwg_deliveries_.find(p);
  if (dit != drop_hwg_deliveries_.end() && dit->second > 0) {
    if (--dit->second == 0) drop_hwg_deliveries_.erase(dit);
    return;
  }
  trace(p, TraceEvent{now(), EventKind::kHwgDeliver, gid.value(), view, origin,
                      seq});
  const MsgKey key{origin, sender_msg_id, payload_key};

  // Total-order slot agreement: one message per (view, seq), everywhere.
  auto [sit, sinserted] = hwg_slots_.try_emplace({gid, view, seq});
  SlotRecord& slot = sit->second;
  if (sinserted) {
    slot.key = key;
    slot.first_reporter = p;
  } else if (slot.key != key) {
    std::ostringstream os;
    os << "hwg " << gid.value() << " view " << view.to_string() << " seq "
       << seq << ": process " << p.value() << " delivered ("
       << origin.value() << "," << sender_msg_id << ") but process "
       << slot.first_reporter.value() << " delivered ("
       << slot.key.origin.value() << "," << slot.key.smid << ")";
    record(1, os.str(), {p, slot.first_reporter});
  }

  // View-tagged delivery: sender and receiver are members of the view.
  auto vit = hwg_views_.find({gid, view});
  if (vit == hwg_views_.end()) {
    std::ostringstream os;
    os << "hwg " << gid.value() << ": process " << p.value()
       << " delivered seq " << seq << " in view " << view.to_string()
       << " that no process reported installing";
    record(3, os.str(), {p});
  } else {
    if (!vit->second.members.contains(origin)) {
      std::ostringstream os;
      os << "hwg " << gid.value() << " view " << view.to_string()
         << ": delivered message from " << origin.value()
         << " which is not a member of " << vit->second.members;
      record(3, os.str(), {p, origin});
    }
    if (!vit->second.members.contains(p)) {
      std::ostringstream os;
      os << "hwg " << gid.value() << " view " << view.to_string()
         << ": process " << p.value()
         << " delivered a message without being a member";
      record(3, os.str(), {p});
    }
  }

  Epoch& ep = hwg_epochs_[{p, gid.value()}];
  if (ep.open && ep.view == view) {
    ep.delivered.push_back(key);
  } else {
    std::ostringstream os;
    os << "hwg " << gid.value() << ": process " << p.value()
       << " delivered seq " << seq << " tagged view " << view.to_string()
       << " while its installed view is "
       << (ep.open ? ep.view.to_string() : std::string("(none)"));
    record(3, os.str(), {p});
  }
}

void ProtocolOracle::on_hwg_flush_completed(ProcessId p, HwgId gid,
                                            const vsync::ViewId& old_view,
                                            bool initiator) {
  trace(p, TraceEvent{now(), EventKind::kHwgFlush, gid.value(), old_view,
                      ProcessId{}, initiator ? 1u : 0u});
}

void ProtocolOracle::on_hwg_endpoint_reset(ProcessId p, HwgId gid) {
  trace(p, TraceEvent{now(), EventKind::kHwgReset, gid.value(), {}, {}, 0});
  Epoch& ep = hwg_epochs_[{p, gid.value()}];
  ep.open = false;
  ep.delivered.clear();
}

// --- lwg hooks ----------------------------------------------------------------

void ProtocolOracle::on_lwg_view_installed(
    ProcessId p, LwgId lwg, const lwg::LwgView& view,
    std::span<const vsync::ViewId> predecessors) {
  trace(p, TraceEvent{now(), EventKind::kLwgView, lwg.value(), view.id,
                      view.id.coordinator, predecessors.size()});
  if (!view.members.contains(p)) {
    std::ostringstream os;
    os << "lwg " << lwg.value() << ": process " << p.value()
       << " installed view " << view.id.to_string()
       << " it is not a member of " << view.members;
    record(2, os.str(), {p});
  }
  // Deterministically merged ids (disambig != 0) carry the min-pid
  // coordinator by construction (paper Fig. 5).
  if (view.id.disambig != 0 &&
      view.id.coordinator != view.members.min_member()) {
    std::ostringstream os;
    os << "lwg " << lwg.value() << " merged view " << view.id.to_string()
       << ": coordinator is not the minimum member of " << view.members;
    record(6, os.str(), {p});
  }
  auto [it, inserted] = lwg_views_.try_emplace({lwg, view.id});
  ViewRecord& vr = it->second;
  if (inserted) {
    vr.members = view.members;
    vr.hwg = view.hwg;
    vr.first_reporter = p;
  } else {
    if (vr.members != view.members) {
      std::ostringstream os;
      os << "lwg " << lwg.value() << " view " << view.id.to_string()
         << ": process " << p.value() << " installed membership "
         << view.members << " but process " << vr.first_reporter.value()
         << " installed " << vr.members;
      record(6, os.str(), {p, vr.first_reporter});
    }
    if (vr.hwg != view.hwg) {
      std::ostringstream os;
      os << "lwg " << lwg.value() << " view " << view.id.to_string()
         << ": process " << p.value() << " mapped it on hwg "
         << view.hwg.value() << " but process " << vr.first_reporter.value()
         << " mapped it on hwg " << vr.hwg.value();
      record(4, os.str(), {p, vr.first_reporter});
    }
  }
  close_epoch(lwg_epochs_, lwg_pairs_, p, lwg.value(), view.id, "lwg");
}

void ProtocolOracle::on_lwg_delivered(ProcessId p, LwgId lwg,
                                      const vsync::ViewId& view, ProcessId src,
                                      std::span<const std::uint8_t> payload) {
  on_lwg_delivered_key(p, lwg, view, src, payload_key(payload),
                       payload.empty() ? 0 : payload.front());
}

void ProtocolOracle::on_lwg_delivered_key(ProcessId p, LwgId lwg,
                                          const vsync::ViewId& view,
                                          ProcessId src,
                                          std::uint64_t payload_key,
                                          std::uint8_t first_byte) {
  trace(p, TraceEvent{now(), EventKind::kLwgDeliver, lwg.value(), view, src,
                      first_byte});
  const MsgKey key{src, 0, payload_key};
  auto vit = lwg_views_.find({lwg, view});
  if (vit == lwg_views_.end()) {
    std::ostringstream os;
    os << "lwg " << lwg.value() << ": process " << p.value()
       << " delivered data in view " << view.to_string()
       << " that no process reported installing";
    record(3, os.str(), {p});
  } else {
    if (!vit->second.members.contains(src)) {
      std::ostringstream os;
      os << "lwg " << lwg.value() << " view " << view.to_string()
         << ": delivered data from " << src.value()
         << " which is not a member of " << vit->second.members;
      record(3, os.str(), {p, src});
    }
    if (!vit->second.members.contains(p)) {
      std::ostringstream os;
      os << "lwg " << lwg.value() << " view " << view.to_string()
         << ": process " << p.value()
         << " delivered data without being a member";
      record(3, os.str(), {p});
    }
  }
  Epoch& ep = lwg_epochs_[{p, lwg.value()}];
  if (ep.open && ep.view == view) {
    ep.delivered.push_back(key);
  } else {
    std::ostringstream os;
    os << "lwg " << lwg.value() << ": process " << p.value()
       << " delivered data tagged view " << view.to_string()
       << " while its installed view is "
       << (ep.open ? ep.view.to_string() : std::string("(none)"));
    record(3, os.str(), {p});
  }
}

void ProtocolOracle::on_lwg_epoch_reset(ProcessId p, LwgId lwg) {
  trace(p, TraceEvent{now(), EventKind::kLwgReset, lwg.value(), {}, {}, 0});
  Epoch& ep = lwg_epochs_[{p, lwg.value()}];
  ep.open = false;
  ep.delivered.clear();
}

// --- naming hooks -------------------------------------------------------------

void ProtocolOracle::on_mapping_written(NodeId server, LwgId lwg,
                                        const names::MappingEntry& entry) {
  trace_node(server, TraceEvent{now(), EventKind::kMapWrite, lwg.value(),
                                entry.lwg_view, ProcessId{}, entry.stamp});
}

void ProtocolOracle::on_mapping_gced(NodeId server, LwgId lwg,
                                     const vsync::ViewId& lwg_view) {
  trace_node(server, TraceEvent{now(), EventKind::kMapGc, lwg.value(),
                                lwg_view, {}, 0});
}

// --- convergence (#4/#5) ------------------------------------------------------

namespace {

struct ConvFailure {
  int invariant = 5;
  std::string message;
};

std::optional<ConvFailure> find_convergence_failure(
    const ConvergenceSnapshot& snap) {
  std::ostringstream os;
  for (const auto& [pid, lwg] : snap.unresolved) {
    os << "process " << pid.value() << " joined lwg " << lwg.value()
       << " but holds no view";
    return ConvFailure{5, os.str()};
  }
  for (const auto& [lwg, holders] : snap.holders) {
    if (holders.empty()) continue;
    const lwg::LwgView& ref = holders.front().view;
    MemberSet holding;
    for (const auto& h : holders) {
      holding.insert(h.pid);
      if (!(h.view == ref)) {
        os << "lwg " << lwg.value() << " diverged: process "
           << h.pid.value() << " holds view " << h.view.id.to_string()
           << h.view.members << " on hwg " << h.view.hwg.value()
           << " but process " << holders.front().pid.value()
           << " holds view " << ref.id.to_string() << ref.members
           << " on hwg " << ref.hwg.value();
        return ConvFailure{5, os.str()};
      }
      if (!ref.members.contains(h.pid)) {
        os << "process " << h.pid.value() << " holds a view of lwg "
           << lwg.value() << " it is not a member of";
        return ConvFailure{5, os.str()};
      }
    }
    for (ProcessId m : ref.members.members()) {
      if (!snap.alive.contains(m)) {
        os << "lwg " << lwg.value() << " converged view " << ref.id.to_string()
           << " still contains crashed process " << m.value();
        return ConvFailure{5, os.str()};
      }
      if (!holding.contains(m)) {
        os << "member " << m.value() << " of lwg " << lwg.value()
           << " does not hold the converged view " << ref.id.to_string();
        return ConvFailure{5, os.str()};
      }
    }
  }
  // Naming-service convergence: for every LWG that still has live members,
  // each replica holds exactly one alive row matching the converged view
  // (genealogy GC fired); replicas agree pairwise on every record.
  for (const auto& [node, db] : snap.databases) {
    for (const auto& [lwg, holders] : snap.holders) {
      if (holders.empty()) continue;
      const lwg::LwgView& ref = holders.front().view;
      auto rit = db->records.find(lwg);
      if (rit == db->records.end()) {
        os << "ns node " << node.value() << " has no record for live lwg "
           << lwg.value();
        return ConvFailure{4, os.str()};
      }
      // Rows whose members all crashed are excused: crash and partition
      // are indistinguishable, so no one may supersede a view that could
      // still be running behind a partition — its row legitimately stays
      // until a successor covering it is registered (which, with every
      // member dead, never comes). Every row with a *live* member must
      // have been reconciled away, though.
      std::vector<names::MappingEntry> rows;
      for (names::MappingEntry& row : rit->second.alive_entries()) {
        if (row.lwg_members.set_intersection(snap.alive).size() > 0) {
          rows.push_back(std::move(row));
        }
      }
      if (rows.size() != 1) {
        os << "ns node " << node.value() << " holds " << rows.size()
           << " alive rows with live members for live lwg " << lwg.value()
           << " (genealogy GC should leave exactly one):";
        for (const names::MappingEntry& row : rows) {
          os << " [" << row.lwg_view.to_string() << row.lwg_members
             << " on hwg " << row.hwg.value() << "]";
        }
        return ConvFailure{4, os.str()};
      }
      const names::MappingEntry& e = rows.front();
      if (e.lwg_view != ref.id || e.hwg != ref.hwg ||
          !(e.lwg_members == ref.members)) {
        os << "ns node " << node.value() << " row for lwg " << lwg.value()
           << " maps view " << e.lwg_view.to_string() << " on hwg "
           << e.hwg.value() << " but the converged view is "
           << ref.id.to_string() << " on hwg " << ref.hwg.value();
        return ConvFailure{4, os.str()};
      }
    }
  }
  if (snap.databases.size() > 1) {
    const auto& [node0, db0] = snap.databases.front();
    for (std::size_t i = 1; i < snap.databases.size(); ++i) {
      const auto& [node_i, db_i] = snap.databases[i];
      std::set<LwgId> keys;
      for (const auto& [lwg, rec] : db0->records) keys.insert(lwg);
      for (const auto& [lwg, rec] : db_i->records) keys.insert(lwg);
      for (LwgId lwg : keys) {
        auto a = db0->records.find(lwg);
        auto b = db_i->records.find(lwg);
        const std::vector<names::MappingEntry> rows_a =
            a == db0->records.end() ? std::vector<names::MappingEntry>{}
                                    : a->second.alive_entries();
        const std::vector<names::MappingEntry> rows_b =
            b == db_i->records.end() ? std::vector<names::MappingEntry>{}
                                     : b->second.alive_entries();
        if (!(rows_a == rows_b)) {
          os << "ns replicas " << node0.value() << " and " << node_i.value()
             << " disagree on lwg " << lwg.value() << " (" << rows_a.size()
             << " vs " << rows_b.size() << " alive rows)";
          return ConvFailure{4, os.str()};
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::string check_converged(const ConvergenceSnapshot& snap) {
  auto failure = find_convergence_failure(snap);
  return failure ? failure->message : std::string{};
}

bool ProtocolOracle::check_convergence(const ConvergenceSnapshot& snap) {
  auto failure = find_convergence_failure(snap);
  if (!failure) return true;
  record_node(failure->invariant,
              "convergence: " + std::move(failure->message), {});
  return false;
}

void ProtocolOracle::record_liveness_failure(std::string description,
                                             std::vector<NodeId> actors) {
  record_node(7, "liveness: " + std::move(description), std::move(actors));
}

// --- reporting ----------------------------------------------------------------

std::string ProtocolOracle::report_json() const {
  std::ostringstream os;
  os << "{\"total_violations\":" << total_ << ",\"violations\":[";
  for (std::size_t i = 0; i < violations_.size(); ++i) {
    const Violation& v = violations_[i];
    if (i > 0) os << ',';
    os << "{\"invariant\":" << v.invariant << ",\"time\":" << v.time
       << ",\"description\":\"";
    append_escaped(os, v.description);
    os << "\",\"actors\":[";
    for (std::size_t j = 0; j < v.actors.size(); ++j) {
      if (j > 0) os << ',';
      os << v.actors[j].value();
    }
    os << "]}";
  }
  os << "],\"traces\":{";
  std::set<NodeId> wanted;
  for (const Violation& v : violations_) {
    for (NodeId n : v.actors) wanted.insert(n);
  }
  bool first = true;
  for (NodeId n : wanted) {
    auto it = traces_.find(n);
    if (it == traces_.end()) continue;
    if (!first) os << ',';
    first = false;
    os << "\"node" << n.value() << "\":[";
    bool first_event = true;
    it->second.for_each([&](const TraceEvent& event) {
      if (!first_event) os << ',';
      first_event = false;
      write_json(os, event);
    });
    os << ']';
  }
  os << "}}";
  return os.str();
}

}  // namespace plwg::oracle
