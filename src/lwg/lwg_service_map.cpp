// LwgService mapping machinery: naming-service resolution, optimistic
// initial mapping, the join/leave protocols, the run-time switching protocol
// (paper Sect. 3.1) and the deterministic mapping reconciliation of
// partition healing Step 2 (paper Sect. 6.2).
#include <algorithm>

#include "lwg/lwg_service.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace plwg::lwg {

namespace {

/// Deterministic choice among several alive mappings: the entry whose HWG
/// has the highest group id (same rule as conflict reconciliation, so a
/// joiner landing mid-conflict heads where everyone will converge).
const names::MappingEntry* pick_entry(
    const std::vector<names::MappingEntry>& entries) {
  const names::MappingEntry* best = nullptr;
  for (const names::MappingEntry& e : entries) {
    if (best == nullptr || e.hwg > best->hwg ||
        (e.hwg == best->hwg && e.stamp > best->stamp)) {
      best = &e;
    }
  }
  return best;
}

}  // namespace

void LwgService::resolve_mapping(LwgId lwg) {
  names_.read(lwg, [this](LwgId id,
                          const std::vector<names::MappingEntry>& entries) {
    on_mapping_read(id, entries);
  });
}

void LwgService::on_mapping_read(
    LwgId lwg, const std::vector<names::MappingEntry>& entries) {
  LocalGroup* lg = find_group(lwg);
  if (lg == nullptr || lg->phase != Phase::kResolving) return;  // stale reply
  for (const names::MappingEntry& e : entries) {
    lg->stale_views.push_back(e.lwg_view);
  }
  const names::MappingEntry* entry = pick_entry(entries);
  if (entry == nullptr) {
    establish_new_mapping(*lg);
  } else {
    adopt_mapping(*lg, *entry);
  }
}

void LwgService::establish_new_mapping(LocalGroup& lg, bool force) {
  // Optimistic initial mapping (paper Sect. 3.2): assume the new LWG will
  // resemble an existing one, so put it on an HWG we already belong to —
  // the smallest one (least interference), ties broken by highest gid.
  // The interference rule corrects bad guesses later.
  HwgId target;
  bool create_if_won = false;  // defer creation until the testset is won
  switch (config_.mode) {
    case MappingMode::kDynamic: {
      const vsync::View* best = nullptr;
      for (HwgId gid : vsync_.groups()) {
        const vsync::View* v = vsync_.view_of(gid);
        if (v == nullptr) continue;
        if (best == nullptr || v->members.size() < best->members.size() ||
            (v->members.size() == best->members.size() && gid > target)) {
          best = v;
          target = gid;
        }
      }
      if (best == nullptr) {
        if (provisional_hwg_ && !vsync_.is_member(*provisional_hwg_)) {
          target = *provisional_hwg_;
        } else {
          target = vsync_.allocate_group_id();
          provisional_hwg_ = target;
        }
        create_if_won = true;
      }
      break;
    }
    case MappingMode::kStaticSingle: {
      target = config_.static_hwg;
      if (!vsync_.is_member(target)) {
        if (config_.static_contacts.empty() ||
            config_.static_contacts.min_member() == self()) {
          vsync_.create_group(target, *this);
          stats_.hwgs_created++;
        } else {
          lg.hwg = target;
          lg.contacts = config_.static_contacts;
          set_phase(lg, Phase::kJoiningHwg);
          vsync_.join_group(target, lg.contacts, *this);
          return;  // optimistic claim happens once the HWG view arrives
        }
      }
      break;
    }
    case MappingMode::kPerGroup: {
      target = vsync_.allocate_group_id();
      create_if_won = true;
      break;
    }
  }

  lg.hwg = target;
  // Claim the mapping: testset installs our singleton view unless someone
  // beat us to it, in which case we adopt the winner.
  LwgView provisional;
  provisional.id = mint_view_id();
  provisional.members = MemberSet{self()};
  provisional.hwg = target;
  lg.view = provisional;  // staged so make_entry sees it; has_view still false
  if (force) {
    // The alive record is a corpse: every contact it lists is a dead
    // incarnation of ourselves, so a testset would keep resurrecting it and
    // adopt_mapping would bounce us back here forever. Found the group anew
    // and overwrite the row, superseding the views the corpse listed
    // (genealogy GC retires them); install_lwg_view registers the new row
    // because we coordinate the provisional view.
    std::vector<ViewId> preds = lg.stale_views;
    lg.stale_views.clear();
    if (!vsync_.is_member(target)) {
      vsync_.create_group(target, *this);
      stats_.hwgs_created++;
      if (provisional_hwg_ == target) provisional_hwg_.reset();
    }
    install_lwg_view(lg, lg.view, preds);
    return;
  }
  names::MappingEntry entry = make_entry(lg, ++lg.ns_stamp);
  names_.testset(
      lg.lwg, entry,
      [this, claimed = provisional.id, create_if_won, target](
          LwgId id, const std::vector<names::MappingEntry>& entries) {
        LocalGroup* g = find_group(id);
        if (g == nullptr || g->has_view) return;
        const names::MappingEntry* winner = pick_entry(entries);
        if (winner == nullptr) return;  // server wiped? retried by tick
        if (winner->lwg_view == claimed) {
          // We founded the LWG; found its HWG too if it was provisional.
          if (create_if_won && !vsync_.is_member(target)) {
            vsync_.create_group(target, *this);
            stats_.hwgs_created++;
            if (provisional_hwg_ == target) provisional_hwg_.reset();
          }
          std::vector<ViewId> preds = g->stale_views;
          g->stale_views.clear();
          install_lwg_view(*g, g->view, preds);
          // A locally-won founder view is invisible to HWG peers until a
          // message flows; announce it so a concurrent founder that claimed
          // the same HWG through another name server is discovered (local
          // peer discovery, Step 3).
          if (g->has_view && vsync_.is_member(g->hwg)) {
            announce(g->hwg, {LwgViewInfo{g->lwg, g->view, {}}});
          }
        } else {
          adopt_mapping(*g, *winner);
        }
      });
}

void LwgService::adopt_mapping(LocalGroup& lg,
                               const names::MappingEntry& entry) {
  lg.hwg = entry.hwg;
  lg.contacts = entry.hwg_members.set_union(entry.lwg_members);
  lg.contacts.erase(self());
  if (vsync_.is_member(lg.hwg)) {
    if (vsync_.view_of(lg.hwg) != nullptr) {
      announce_join(lg);
    } else {
      set_phase(lg, Phase::kJoiningHwg);  // endpoint still joining
    }
    return;
  }
  if (lg.contacts.empty()) {
    // A mapping with no one to contact: either a dissolved group's tombstone
    // or — after a crash–restart — a corpse row whose only members are our
    // own dead incarnation. The row is alive, so a plain testset would lose
    // to it; force the claim.
    establish_new_mapping(lg, /*force=*/true);
    return;
  }
  set_phase(lg, Phase::kJoiningHwg);
  vsync_.join_group(lg.hwg, lg.contacts, *this);
}

void LwgService::announce_join(LocalGroup& lg) {
  set_phase(lg, Phase::kAnnounced);
  lg.announce_attempts++;
  send_lwg_msg(lg.hwg, JoinMsg{lg.lwg, self()});
}

void LwgService::handle_join(HwgId gid, const JoinMsg& msg) {
  LocalGroup* lg = find_group(msg.lwg);
  if (lg == nullptr || !lg->has_view || lg->hwg != gid) {
    // Not in this LWG here. If we hold a forward pointer, redirect the
    // stale joiner (the smallest HWG member answers to avoid duplicates).
    HwgState& hs = hwg_state(gid);
    auto fwd = hs.forwards.find(msg.lwg);
    if (fwd == hs.forwards.end()) return;
    const vsync::View* hv = vsync_.view_of(gid);
    if (hv == nullptr || hv->coordinator() != self()) return;
    send_lwg_msg(gid, RedirectMsg{msg.lwg, msg.joiner, fwd->second.first,
                                  fwd->second.second});
    return;
  }
  if (lg->view.members.contains(msg.joiner) &&
      !lg->pending_remove.contains(msg.joiner)) {
    // The joiner is already listed: a duplicate announce, or a reborn
    // incarnation that crashed and restarted before anyone suspected it.
    // Re-publishing the current view would hand a reborn joiner a view the
    // rest of us have delivered messages in (virtual-synchrony violation),
    // so cut a fresh view with the same membership; both kinds of joiner
    // install it as their first view. The actor is the smallest member
    // *excluding the joiner* — the joiner may be the view's own
    // coordinator, reborn with no state, and waiting for it would deadlock.
    MemberSet others = lg->view.members;
    others.erase(msg.joiner);
    if (!others.empty() && others.min_member() == self() &&
        !lg->inflight_view && !lg->switching && !lg->collect) {
      LwgView view;
      view.id = mint_view_id();
      view.members = lg->view.members;
      view.hwg = lg->hwg;
      lg->inflight_view = view.id;
      lg->inflight_since = vsync_.node().now();
      send_lwg_msg(gid, ViewMsg{lg->lwg, view, {lg->view.id}});
    }
    return;
  }
  // Every member tracks the request; the current coordinator acts on it.
  lg->pending_add.insert(msg.joiner);
  lg->pending_remove.erase(msg.joiner);
  maybe_install_next_view(*lg);
}

void LwgService::handle_leave(HwgId gid, const LeaveMsg& msg) {
  LocalGroup* lg = find_group(msg.lwg);
  if (lg == nullptr || !lg->has_view || lg->hwg != gid) return;
  if (!lg->view.members.contains(msg.leaver) &&
      !lg->pending_add.contains(msg.leaver)) {
    return;
  }
  lg->pending_remove.insert(msg.leaver);
  lg->pending_add.erase(msg.leaver);
  if (lg->view.members.is_subset_of(lg->pending_remove)) {
    // Every member is leaving: the group dissolves. The total order makes
    // this the same decision at every member; the coordinator tombstones
    // the naming-service record.
    if (lg->view.coordinator() == self()) {
      lg->stale_views.push_back(lg->view.id);
      names::MappingEntry entry = make_entry(*lg, ++lg->ns_stamp);
      entry.lwg_members = MemberSet{};
      names_.set(lg->lwg, entry, {lg->view.id});
    }
    finalize_leave(msg.lwg);
    return;
  }
  maybe_install_next_view(*lg);
}

void LwgService::maybe_install_next_view(LocalGroup& lg) {
  if (!lg.has_view || lg.view.coordinator() != self()) return;
  if (lg.switching || lg.collect) return;  // the switch moves the view first
  if (lg.inflight_view) return;            // one installation at a time
  MemberSet next = lg.view.members.set_union(lg.pending_add)
                       .set_difference(lg.pending_remove);
  if (next == lg.view.members || next.empty()) return;
  LwgView view;
  view.id = mint_view_id();
  view.members = next;
  view.hwg = lg.hwg;
  lg.inflight_view = view.id;
  lg.inflight_since = vsync_.node().now();
  send_lwg_msg(lg.hwg, ViewMsg{lg.lwg, view, {lg.view.id}});
}

void LwgService::handle_view(HwgId gid, const ViewMsg& msg) {
  // Every holder of a predecessor on this HWG moves on with this ordered
  // VIEW: the flush ending the HWG view must not merge what they announced.
  HwgState& hs = hwg_state(gid);
  auto collected = hs.all_views.find(msg.lwg);
  if (collected != hs.all_views.end()) {
    for (const ViewId& p : msg.predecessors) collected->second.erase(p);
  }
  LocalGroup* lg = find_group(msg.lwg);
  if (lg == nullptr) return;
  const LwgView& view = msg.view;
  PLWG_ASSERT(view.hwg == gid);

  if (!view.members.contains(self())) {
    if (!lg->has_view) return;
    const bool succeeds_mine =
        std::find(msg.predecessors.begin(), msg.predecessors.end(),
                  lg->view.id) != msg.predecessors.end();
    if (lg->phase == Phase::kLeaving && succeeds_mine) {
      finalize_leave(msg.lwg);
      return;
    }
    if (succeeds_mine) {
      // A successor view dropped us without a leave request (we were
      // unreachable during its installation): re-resolve from scratch.
      note_lwg_reset(msg.lwg);
      lg->stale_views.push_back(lg->view.id);
      lg->has_view = false;
      set_phase(*lg, Phase::kResolving);
      resolve_mapping(msg.lwg);
      return;
    }
    if (lg->hwg == gid && !lg->switching &&
        !lg->ancestors.contains(view.id)) {
      // A concurrent view of our group surfaced on our own HWG (e.g. it
      // just switched here during reconciliation Step 2): local peer
      // discovery, Step 3.
      trigger_merge_views(gid);
    }
    return;
  }

  if (!lg->has_view) {
    // Joiner: first view that includes us.
    if (lg->phase == Phase::kAnnounced || lg->phase == Phase::kJoiningHwg) {
      std::vector<ViewId> stale = std::move(lg->stale_views);
      lg->stale_views.clear();
      // A reborn joiner's naming-service read may have returned the very
      // view we are now installing; superseding it would GC the only alive
      // row for the group.
      std::erase(stale, view.id);
      std::vector<ViewId> preds = msg.predecessors;
      preds.insert(preds.end(), stale.begin(), stale.end());
      install_lwg_view(*lg, view, preds);
      // Only the new view's coordinator registers it, and it knows nothing
      // of the views *we* abandoned when we re-resolved from scratch; write
      // their supersession ourselves or those rows outlive everyone who
      // remembers them (genealogy GC, paper Table 4).
      if (lg->has_view && view.coordinator() != self() && !stale.empty()) {
        names_.set(lg->lwg, make_entry(*lg, ++lg->ns_stamp), stale);
        // We just wrote their supersession ourselves; drop them from the
        // durable replay set so a later restart does not re-queue them.
        auto it = store_.lwg_registered_views.find(lg->lwg);
        if (it != store_.lwg_registered_views.end()) {
          for (const ViewId& v : stale) it->second.erase(v);
        }
      }
    }
    return;
  }

  if (view.id == lg->view.id) return;  // duplicate re-publish
  const bool succeeds_ours =
      std::find(msg.predecessors.begin(), msg.predecessors.end(),
                lg->view.id) != msg.predecessors.end();
  if (succeeds_ours) {
    const bool switched_here = lg->switching.has_value();
    install_lwg_view(*lg, view, msg.predecessors);
    // A view switched onto this HWG (Step 2) is in no ANNOUNCE of the HWG
    // view yet; announce it so this view's flush can merge it.
    if (switched_here && view.coordinator() == self()) {
      announce(gid, {view_info(*lg)});
    }
    return;
  }
  if (lg->ancestors.contains(view.id)) return;  // stale holder re-publish
  // Concurrent LWG view on our own HWG: local peer discovery (Step 3).
  trigger_merge_views(gid);
}

// --- switching ----------------------------------------------------------------

void LwgService::start_switch(LocalGroup& lg, HwgId to_hwg,
                              const MemberSet& contacts) {
  PLWG_ASSERT(lg.has_view && lg.view.coordinator() == self());
  if (lg.switching || lg.collect) return;
  if (to_hwg == lg.hwg) return;
  stats_.switches_started++;
  PLWG_INFO("lwg", "p", self(), " switching lwg ", lg.lwg, " from hwg ",
            lg.hwg, " to hwg ", to_hwg);
  lg.collect = SwitchCollect{to_hwg, contacts, lg.view.id, MemberSet{}};
  send_lwg_msg(lg.hwg, SwitchMsg{lg.lwg, lg.view.id, to_hwg, contacts});
}

void LwgService::handle_switch(HwgId gid, const SwitchMsg& msg) {
  LocalGroup* lg = find_group(msg.lwg);
  if (lg == nullptr || !lg->has_view || lg->hwg != gid) return;
  if (lg->view.id != msg.lwg_view) return;  // switch of a superseded view
  // The totally-ordered SWITCH is the flush barrier of the old view: all
  // DATA ordered before it has been delivered; we stop sending until the
  // view on the target HWG installs.
  lg->switching = msg;
  lg->switching_since = vsync_.node().now();
  if (!vsync_.is_member(msg.to_hwg)) {
    MemberSet contacts = msg.contacts;
    contacts.erase(self());
    if (contacts.empty()) {
      // We must found the target HWG (interference rule's fresh group).
      vsync_.create_group(msg.to_hwg, *this);
      stats_.hwgs_created++;
    } else {
      vsync_.join_group(msg.to_hwg, contacts, *this);
    }
  }
  maybe_send_switch_ready(*lg);
}

void LwgService::maybe_send_switch_ready(LocalGroup& lg) {
  if (!lg.switching) return;
  const HwgId target = lg.switching->to_hwg;
  if (vsync_.view_of(target) == nullptr) return;  // still joining
  send_lwg_msg(target, SwitchReadyMsg{lg.lwg, lg.switching->lwg_view, self()});
}

void LwgService::handle_switch_ready(HwgId gid, const SwitchReadyMsg& msg) {
  LocalGroup* lg = find_group(msg.lwg);
  if (lg == nullptr || !lg->collect) return;
  SwitchCollect& c = *lg->collect;
  if (c.to_hwg != gid || c.old_view != msg.lwg_view) return;
  c.ready.insert(msg.member);
  if (!lg->view.members.is_subset_of(c.ready)) return;
  // Everyone arrived: install the view on the new HWG and leave a forward
  // pointer on the old one.
  stats_.switches_completed++;
  LwgView next;
  next.id = mint_view_id();
  next.members = lg->view.members;
  next.hwg = c.to_hwg;
  send_lwg_msg(c.to_hwg, ViewMsg{lg->lwg, next, {lg->view.id}});
  const HwgId old_hwg = lg->hwg;
  if (old_hwg != c.to_hwg && vsync_.is_member(old_hwg)) {
    send_lwg_msg(old_hwg, SwitchedMsg{lg->lwg, c.to_hwg, next.members});
  }
}

void LwgService::handle_switched(HwgId gid, const SwitchedMsg& msg) {
  // Forward pointer for stale naming-service readers (paper Sect. 3.1).
  hwg_state(gid).forwards[msg.lwg] = {msg.to_hwg, msg.contacts};
}

void LwgService::handle_redirect(HwgId gid, const RedirectMsg& msg) {
  (void)gid;
  if (msg.joiner != self()) return;
  LocalGroup* lg = find_group(msg.lwg);
  if (lg == nullptr || lg->has_view) return;
  if (lg->phase != Phase::kAnnounced && lg->phase != Phase::kJoiningHwg) return;
  names::MappingEntry entry;
  entry.hwg = msg.to_hwg;
  entry.hwg_members = msg.contacts;
  PLWG_DEBUG("lwg", "p", self(), " redirected: lwg ", msg.lwg, " lives on ",
             msg.to_hwg);
  adopt_mapping(*lg, entry);
}

void LwgService::abort_switch(LocalGroup& lg) {
  PLWG_INFO("lwg", "p", self(), " aborting switch of lwg ", lg.lwg);
  lg.switching.reset();
  lg.collect.reset();
  drain_queued_sends(lg);
}

// Takes the zero-copy view: the payload span aliases the delivered packet
// buffer, which the network keeps alive for the whole upcall, so DATA
// reaches the user with no intermediate copy.
void LwgService::handle_data(HwgId gid, ProcessId src, const DataMsg& msg) {
  LocalGroup* lg = find_group(msg.lwg);
  if (lg == nullptr || !lg->has_view || lg->hwg != gid) {
    if (lg != nullptr && lg->has_view && src == self()) {
      // Our own copy came back on an HWG the group has since switched away
      // from — same missed-view shape as the superseded stamp below.
      resend_missed_view_copy(msg);
      return;
    }
    stats_.data_filtered++;  // interference: traffic we only pay to discard
    return;
  }
  if (msg.lwg_view == lg->view.id) {
    stats_.data_delivered++;
    if (observer_ != nullptr) {
      observer_->on_lwg_delivered(self(), msg.lwg, msg.lwg_view, src,
                                  msg.payload);
    }
    lg->user->on_lwg_data(msg.lwg, src, msg.payload);
    return;
  }
  if (lg->ancestors.contains(msg.lwg_view)) {  // late, superseded
    stats_.data_superseded++;
    if (src == self()) resend_missed_view_copy(msg);
    return;
  }
  // DATA for a concurrent view of a group we are in: local peer discovery
  // (paper Fig. 5 lines 103-107).
  trigger_merge_views(gid);
}

// A DATA message of ours came back stamped with a view that has since been
// superseded: the vsync endpoint held it across a view change (a send that
// lands mid-flush sits in the endpoint's pending queue and is only multicast
// once the NEXT view installs), so every receiver — including us — sees a
// stale stamp and discards the copy. Nobody delivered it. The sender is the
// one process that can tell a superseded copy of its own message from late
// interference, and dropping it here would silently lose a message that
// send() accepted in a fully-active group. Re-send it stamped with the live
// view: delivery becomes at-least-once across view changes instead of
// silently lossy, and the copy chases the membership until one delivery
// lands in the view that is current when it arrives.
void LwgService::resend_missed_view_copy(const DataMsg& msg) {
  stats_.data_resent++;
  PLWG_DEBUG("lwg", "p", self(), " re-sending own DATA for lwg ", msg.lwg,
             " stamped with superseded view ", msg.lwg_view.to_string());
  send(msg.lwg,
       std::vector<std::uint8_t>(msg.payload.begin(), msg.payload.end()));
}

// --- reconciliation Step 2 (paper Sect. 6.2) -----------------------------------

void LwgService::on_multiple_mappings(
    LwgId lwg, const std::vector<names::MappingEntry>& entries) {
  stats_.conflict_callbacks++;
  if (!config_.reconcile_on_conflict) return;
  LocalGroup* lg = find_group(lwg);
  if (lg == nullptr || !lg->has_view || lg->phase != Phase::kActive) return;
  disavow_ghost_rows(*lg, entries);
  if (lg->view.coordinator() != self()) return;  // only the coordinator acts
  if (lg->switching || lg->collect) return;
  // Deterministic conciliation: everyone switches to the highest HWG gid.
  const names::MappingEntry* target = nullptr;
  for (const names::MappingEntry& e : entries) {
    if (target == nullptr || e.hwg > target->hwg) target = &e;
  }
  if (target == nullptr || target->hwg == lg->hwg) return;
  MemberSet contacts = target->hwg_members.set_union(target->lwg_members);
  start_switch(*lg, target->hwg, contacts);
}

// Retire ghost rows: an alive naming row that lists us as member of a view
// we do not hold is normally transient — a concurrent view the merge
// protocol will fold, or a fresh registration whose install has not reached
// us yet. But when every process that *held* the row's view crashed before
// superseding it, the row is immortal: no survivor carries it in memory or
// in its durable registered-view set, so no registration will ever list it
// as predecessor — and genealogy GC wedges on it forever. The listed members
// are the only processes the naming service can still reach about it, so a
// member that has watched the row persist beyond the grace period disavows
// it by superseding it with its current view. This is sound even if some
// unreachable component does still hold the view: that component lists us as
// a member, we are provably not participating (it is not our view), so its
// failure detector will remove us in a membership change whose successor
// registration re-covers the genealogy regardless of our write.
void LwgService::disavow_ghost_rows(
    LocalGroup& lg, const std::vector<names::MappingEntry>& entries) {
  const Time now = vsync_.node().now();
  std::vector<ViewId> ghosts;
  for (const names::MappingEntry& e : entries) {
    if (!e.lwg_members.contains(self())) continue;
    if (e.lwg_view == lg.view.id) continue;
    const auto [it, fresh] = lg.ghost_candidates.try_emplace(e.lwg_view, now);
    if (!fresh && now - it->second >= kGhostDisavowGraceUs) {
      ghosts.push_back(e.lwg_view);
    }
  }
  // Rows that vanished (superseded meanwhile) or became current stop being
  // candidates; if one resurfaces via anti-entropy its grace starts over.
  for (auto it = lg.ghost_candidates.begin();
       it != lg.ghost_candidates.end();) {
    const ViewId v = it->first;
    const bool still_listed =
        v != lg.view.id &&
        std::any_of(entries.begin(), entries.end(),
                    [&](const names::MappingEntry& e) {
                      return e.lwg_view == v && e.lwg_members.contains(self());
                    });
    it = still_listed ? std::next(it) : lg.ghost_candidates.erase(it);
  }
  if (ghosts.empty()) return;
  PLWG_DEBUG("lwg", "p", self(), " disavows ghost rows for lwg ", lg.lwg,
             ": ", ghosts.size(), " view(s) unheld past grace");
  names_.set(lg.lwg, make_entry(lg, ++lg.ns_stamp), ghosts);
  for (const ViewId& v : ghosts) lg.ghost_candidates.erase(v);
}

}  // namespace plwg::lwg
