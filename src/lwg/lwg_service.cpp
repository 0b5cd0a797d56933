// LwgService core plumbing: user downcalls, LWG view installation, message
// dispatch, naming-service registration and the housekeeping tick.
#include "lwg/lwg_service.hpp"

#include <sstream>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace plwg::lwg {

LwgService::LwgService(vsync::VsyncHost& vsync, names::NamingAgent& names,
                       LwgConfig config, durable::ProcessStore& store)
    : vsync_(vsync), names_(names), config_(config), store_(store) {
  names_.set_conflict_listener(this);
  last_policy_run_ = vsync_.node().now();
  vsync_.node().after(kTickUs, [this] { tick(); });
}

LwgService::~LwgService() { names_.set_conflict_listener(nullptr); }

void LwgService::join(LwgId lwg, LwgUser& user) {
  PLWG_ASSERT_MSG(!groups_.contains(lwg), "already joined this LWG");
  store_.lwg_registrations[lwg] = &user;
  LocalGroup lg;
  lg.lwg = lwg;
  lg.user = &user;
  lg.phase_since = vsync_.node().now();
  // Rows a previous incarnation registered and never superseded are ghosts
  // only we can retire: queue them so the first registration after this
  // (re)join writes their supersession (see durable::ProcessStore).
  auto it = store_.lwg_registered_views.find(lwg);
  if (it != store_.lwg_registered_views.end()) {
    lg.stale_views.assign(it->second.begin(), it->second.end());
  }
  groups_.emplace(lwg, std::move(lg));
  resolve_mapping(lwg);
}

void LwgService::leave(LwgId lwg) {
  LocalGroup* lg = find_group(lwg);
  if (lg == nullptr) return;
  // A deliberate leave is struck from the restart script immediately: if we
  // crash mid-departure, recovery must not rejoin on our behalf.
  store_.lwg_registrations.erase(lwg);
  if (!lg->has_view) {
    // Not yet a visible member anywhere: just abandon the join attempt.
    groups_.erase(lwg);
    return;
  }
  if (lg->view.members.size() == 1) {
    // Sole member: record the dissolution and go.
    lg->stale_views.push_back(lg->view.id);
    names::MappingEntry entry = make_entry(*lg, ++lg->ns_stamp);
    entry.lwg_members = MemberSet{};
    names_.set(lwg, entry, {});
    finalize_leave(lwg);
    return;
  }
  set_phase(*lg, Phase::kLeaving);
  send_lwg_msg(lg->hwg, LeaveMsg{lwg, self()});
}

void LwgService::shutdown() {
  for (LwgId id : local_groups()) leave(id);
}

void LwgService::send(LwgId lwg, std::vector<std::uint8_t> data) {
  LocalGroup* lg = find_group(lwg);
  PLWG_ASSERT_MSG(lg != nullptr, "send on an LWG we did not join");
  if (can_send(*lg)) {
    send_data(*lg, data);
  } else {
    lg->queued_sends.push_back(std::move(data));
  }
}

const LwgView* LwgService::view_of(LwgId lwg) const {
  auto it = groups_.find(lwg);
  if (it == groups_.end() || !it->second.has_view) return nullptr;
  return &it->second.view;
}

std::optional<HwgId> LwgService::hwg_of(LwgId lwg) const {
  auto it = groups_.find(lwg);
  if (it == groups_.end() || it->second.phase == Phase::kResolving) {
    return std::nullopt;
  }
  return it->second.hwg;
}

std::vector<LwgId> LwgService::local_groups() const {
  std::vector<LwgId> out;
  out.reserve(groups_.size());
  for (const auto& [lwg, lg] : groups_) out.push_back(lwg);
  return out;
}

// --- internals ---------------------------------------------------------------

void LwgService::set_phase(LocalGroup& lg, Phase phase) {
  if (lg.phase == phase) return;
  lg.phase = phase;
  lg.phase_since = vsync_.node().now();
}

LwgService::LocalGroup* LwgService::find_group(LwgId lwg) {
  auto it = groups_.find(lwg);
  return it == groups_.end() ? nullptr : &it->second;
}

LwgService::HwgState& LwgService::hwg_state(HwgId gid) {
  auto [it, inserted] = hwgs_.try_emplace(gid);
  if (inserted) it->second.gid = gid;
  return it->second;
}

void LwgService::send_data(const LocalGroup& lg,
                           std::span<const std::uint8_t> data) {
  stats_.data_sent++;
  send_lwg_msg(lg.hwg, DataMsg{lg.lwg, lg.view.id, data});
}

ViewId LwgService::mint_view_id() {
  return ViewId{self(), ++store_.lwg_view_counter};
}

void LwgService::note_lwg_reset(LwgId lwg) {
  if (observer_ != nullptr) observer_->on_lwg_epoch_reset(self(), lwg);
}

names::MappingEntry LwgService::make_entry(const LocalGroup& lg,
                                           std::uint64_t stamp) const {
  names::MappingEntry entry;
  entry.lwg_view = lg.view.id;
  entry.lwg_members = lg.view.members;
  entry.hwg = lg.hwg;
  const vsync::View* hv = vsync_.view_of(lg.hwg);
  if (hv != nullptr) {
    entry.hwg_view = hv->id;
    entry.hwg_members = hv->members;
  }
  entry.stamp = stamp;
  return entry;
}

void LwgService::ns_register(LocalGroup& lg,
                             const std::vector<ViewId>& predecessors) {
  names_.set(lg.lwg, make_entry(lg, ++lg.ns_stamp), predecessors);
  // Durable genealogy bookkeeping: this registration supersedes the
  // predecessors (their rows are retired once it lands) and creates a row
  // only we, its coordinator, know to supersede later. If we crash before
  // registering a successor, the rejoin replays this set as stale views.
  auto& registered = store_.lwg_registered_views[lg.lwg];
  for (const ViewId& p : predecessors) registered.erase(p);
  registered.insert(lg.view.id);
}

void LwgService::install_lwg_view(LocalGroup& lg, const LwgView& view,
                                  const std::vector<ViewId>& predecessors) {
  PLWG_ASSERT(view.members.contains(self()));
  if (lg.has_view) lg.ancestors.insert(lg.view.id);
  for (const ViewId& p : predecessors) lg.ancestors.insert(p);
  // Durable genealogy: every member records the view it now holds (not just
  // the coordinator that registers it). If we crash, our next incarnation
  // replays the set as stale views — and the new-incarnation rejoin forces
  // a membership change in any component still holding them, so their
  // supersession is always legitimate. The predecessors leave the set here
  // because the new view's registration (in flight from its coordinator)
  // supersedes their rows.
  auto& registered = store_.lwg_registered_views[lg.lwg];
  for (const ViewId& p : predecessors) registered.erase(p);
  registered.insert(view.id);
  lg.view = view;
  lg.has_view = true;
  lg.hwg = view.hwg;
  lg.switching.reset();
  lg.collect.reset();
  lg.inflight_view.reset();
  lg.pending_add = lg.pending_add.set_difference(view.members);
  lg.pending_remove = lg.pending_remove.set_intersection(view.members);
  // Keep locally-minted ids unique even after adopting a deterministically
  // computed merged view id that used our pid.
  if (view.id.coordinator == self()) {
    store_.lwg_view_counter = std::max(store_.lwg_view_counter, view.id.seq);
  }
  // A pending leave survives intermediate views (others may be removed
  // first); we stay kLeaving until a view excludes us.
  set_phase(lg, lg.phase == Phase::kLeaving ? Phase::kLeaving
                                            : Phase::kActive);
  stats_.lwg_views_installed++;
  PLWG_DEBUG("lwg", "p", self(), " lwg ", lg.lwg, " view ", view.id,
             view.members, " on hwg ", view.hwg);
  if (observer_ != nullptr) {
    observer_->on_lwg_view_installed(self(), lg.lwg, view, predecessors);
  }
  // Uniform registration rule: the coordinator of the newly installed view
  // owns the naming-service record for it.
  if (view.coordinator() == self()) {
    ns_register(lg, predecessors);
  }
  hwg_state(view.hwg).no_local_lwg_since = -1;
  lg.user->on_lwg_view(lg.lwg, view);
  drain_queued_sends(lg);
  // Fold in membership requests that accumulated during this installation.
  maybe_install_next_view(lg);
}

bool LwgService::can_send(const LocalGroup& lg) const {
  return lg.has_view && lg.phase == Phase::kActive && !lg.switching &&
         vsync_.is_member(lg.hwg);
}

void LwgService::drain_queued_sends(LocalGroup& lg) {
  while (!lg.queued_sends.empty() && can_send(lg)) {
    const std::vector<std::uint8_t> data = std::move(lg.queued_sends.front());
    lg.queued_sends.pop_front();
    send_data(lg, data);
  }
}

void LwgService::finalize_leave(LwgId lwg) {
  note_lwg_reset(lwg);
  store_.lwg_registered_views.erase(lwg);
  groups_.erase(lwg);
  // The shrink rule will notice HWGs left without local LWGs.
}

LwgViewInfo LwgService::view_info(const LocalGroup& lg) {
  LwgViewInfo info{lg.lwg, lg.view, {}};
  info.ancestors.assign(lg.ancestors.begin(), lg.ancestors.end());
  return info;
}

std::vector<LwgViewInfo> LwgService::local_views_on(HwgId gid) const {
  std::vector<LwgViewInfo> out;
  for (const auto& [lwg, lg] : groups_) {
    if (lg.has_view && lg.hwg == gid && !lg.switching) {
      out.push_back(view_info(lg));
    }
  }
  return out;
}

void LwgService::announce(HwgId gid, const std::vector<LwgViewInfo>& views) {
  send_lwg_msg(gid, AnnounceMsg{views});
}

// --- HWG upcalls --------------------------------------------------------------

void LwgService::on_stop(HwgId gid) {
  // Our sends are self-contained messages; the vsync layer queues anything
  // submitted during the flush, so traffic can stop immediately.
  vsync_.stop_ok(gid);
}

// The HWG has already delivered (and counted) the message by the time it
// reaches this layer, so a malformed one is this layer's to count and drop:
// a throw would unwind through the HWG delivery loop instead.
template <class Msg>
std::optional<Msg> LwgService::decode(Decoder& dec) {
  try {
    return dec.get_exact<Msg>();
  } catch (const CodecError& e) {
    stats_.decode_errors++;
    PLWG_WARN("lwg", "p", self(), " dropped a malformed LWG message: ",
              e.what());
    return std::nullopt;
  }
}

void LwgService::on_data(HwgId gid, ProcessId src,
                         std::span<const std::uint8_t> data) {
  if (data.empty()) {
    stats_.decode_errors++;
    return;
  }
  Decoder dec(data.subspan(1));
  switch (static_cast<LwgMsgType>(data[0])) {
    case DataMsg::kType:
      if (auto m = decode<DataMsg>(dec)) handle_data(gid, src, *m);
      break;
    case JoinMsg::kType:
      if (auto m = decode<JoinMsg>(dec)) handle_join(gid, *m);
      break;
    case LeaveMsg::kType:
      if (auto m = decode<LeaveMsg>(dec)) handle_leave(gid, *m);
      break;
    case ViewMsg::kType:
      if (auto m = decode<ViewMsg>(dec)) handle_view(gid, *m);
      break;
    case SwitchMsg::kType:
      if (auto m = decode<SwitchMsg>(dec)) handle_switch(gid, *m);
      break;
    case SwitchReadyMsg::kType:
      if (auto m = decode<SwitchReadyMsg>(dec)) handle_switch_ready(gid, *m);
      break;
    case SwitchedMsg::kType:
      if (auto m = decode<SwitchedMsg>(dec)) handle_switched(gid, *m);
      break;
    case RedirectMsg::kType:
      if (auto m = decode<RedirectMsg>(dec)) handle_redirect(gid, *m);
      break;
    case MergeViewsMsg::kType:
      if (decode<MergeViewsMsg>(dec)) handle_merge_views(gid);
      break;
    case AnnounceMsg::kType:
      if (auto m = decode<AnnounceMsg>(dec)) handle_announce(gid, *m);
      break;
    default:  // unknown message type
      stats_.decode_errors++;
      break;
  }
}

void LwgService::on_view(HwgId gid, const vsync::View& view) {
  HwgState& hs = hwg_state(gid);
  // Fig. 5 line 114: "when the hwg is flushed do merge all concurrent views".
  process_pending_merges(gid, view);
  hs.all_views.clear();
  hs.merge_requested = false;
  // Re-form LWG views whose membership shrank with the HWG view.
  handle_hwg_membership_change(gid, view);
  // Local peer discovery (reconciliation Step 3): on every HWG view change
  // each member announces its mapped LWG views, so concurrent views that
  // arrive on this HWG — via an HWG merge *or* via a Step 2 switch — are
  // discovered even when the groups are quiescent. They are also the set
  // the flush ending this view merges (Fig. 5).
  const std::vector<LwgViewInfo> mine = local_views_on(gid);
  if (!mine.empty()) announce(gid, mine);
  // Progress joins and switches that were waiting for this HWG view.
  for (auto& [lwg, lg] : groups_) {
    if (lg.phase == Phase::kJoiningHwg && lg.hwg == gid) {
      announce_join(lg);
    }
    if (lg.switching && lg.switching->to_hwg == gid) {
      maybe_send_switch_ready(lg);
    }
  }
}

void LwgService::tick() {
  const Time now = vsync_.node().now();
  // Phase timeouts / retries.
  std::vector<LwgId> ids;
  ids.reserve(groups_.size());
  for (const auto& [lwg, lg] : groups_) ids.push_back(lwg);
  for (LwgId id : ids) {
    LocalGroup* lg = find_group(id);
    if (lg == nullptr) continue;
    switch (lg->phase) {
      case Phase::kResolving:
        if (now - lg->phase_since > 4 * kHwgJoinGiveUpUs) {
          lg->phase_since = now;
          resolve_mapping(id);  // naming service was unreachable; retry
        }
        break;
      case Phase::kJoiningHwg:
        if (now - lg->phase_since > kHwgJoinGiveUpUs) {
          // The mapped HWG is unreachable (stale mapping / dissolved group):
          // fall back to a fresh mapping.
          PLWG_INFO("lwg", "p", self(), " lwg ", id,
                    " giving up on hwg ", lg->hwg, ", remapping");
          vsync_.leave_group(lg->hwg);
          establish_new_mapping(*lg);
        }
        break;
      case Phase::kAnnounced:
        if (now - lg->phase_since > kHwgJoinGiveUpUs) {
          if (lg->announce_attempts < 3 && vsync_.is_member(lg->hwg)) {
            announce_join(*lg);
          } else {
            // Nobody on this HWG answers for the LWG: remap from scratch.
            establish_new_mapping(*lg);
          }
        }
        break;
      case Phase::kActive:
        if (lg->switching &&
            now - lg->switching_since > kHwgJoinGiveUpUs) {
          abort_switch(*lg);
        }
        if (lg->inflight_view &&
            now - lg->inflight_since > 2 * kHwgJoinGiveUpUs) {
          // The in-flight view never installed (lost to an HWG reshuffle):
          // unblock membership processing.
          lg->inflight_view.reset();
          maybe_install_next_view(*lg);
        }
        if (lg->has_view && !vsync_.is_member(lg->hwg)) {
          // Our HWG endpoint died under us (excluded while wedged): rejoin.
          PLWG_INFO("lwg", "p", self(), " lwg ", id,
                    " lost its hwg endpoint, re-resolving");
          note_lwg_reset(id);
          lg->stale_views.push_back(lg->view.id);
          lg->has_view = false;
          set_phase(*lg, Phase::kResolving);
          resolve_mapping(id);
        }
        break;
      case Phase::kLeaving:
        if (now - lg->phase_since > kHwgJoinGiveUpUs) {
          finalize_leave(id);  // give up waiting for the excluding view
        }
        break;
    }
  }

  if (config_.mode == MappingMode::kDynamic &&
      now - last_policy_run_ >= config_.policy_period_us) {
    run_policies();
  }
  // The shrink timer must run in the baselines too (they skip the policies)
  // so they do not leak HWGs; it is cheap and purely local.
  run_shrink_rule();

  vsync_.node().after(kTickUs, [this] { tick(); });
}

namespace {
const char* phase_name(int phase) {
  switch (phase) {
    case 0: return "resolving";
    case 1: return "joining-hwg";
    case 2: return "announced";
    case 3: return "active";
    case 4: return "leaving";
  }
  return "?";
}
}  // namespace

std::string LwgService::debug_dump() const {
  std::ostringstream os;
  os << "LwgService p" << vsync_.self() << " mode="
     << (config_.mode == MappingMode::kDynamic        ? "dynamic"
         : config_.mode == MappingMode::kStaticSingle ? "static"
                                                      : "per-group")
     << "\n";
  for (const auto& [lwg, lg] : groups_) {
    os << "  lwg " << lwg << ": phase=" << phase_name(static_cast<int>(lg.phase));
    if (lg.has_view) os << " view=" << lg.view;
    if (lg.switching) os << " switching->" << lg.switching->to_hwg;
    if (lg.collect) {
      os << " collecting(" << lg.collect->ready.size() << "/"
         << lg.view.members.size() << ")";
    }
    if (!lg.queued_sends.empty()) os << " queued=" << lg.queued_sends.size();
    os << "\n";
  }
  for (const auto& [gid, hs] : hwgs_) {
    if (hs.forwards.empty() && !hs.merge_requested) continue;
    os << "  hwg " << gid << ":";
    if (hs.merge_requested) os << " merge-round-open";
    for (const auto& [lwg, fwd] : hs.forwards) {
      os << " fwd(lwg" << lwg << "->" << fwd.first << ")";
    }
    os << "\n";
  }
  os << "  member of " << vsync_.groups().size() << " hwg(s)\n";
  return os.str();
}

void LwgService::run_policies() {
  last_policy_run_ = vsync_.node().now();
  if (config_.mode != MappingMode::kDynamic) {
    return;
  }
  run_share_rule();
  run_interference_rule();
  run_shrink_rule();
}

}  // namespace plwg::lwg
