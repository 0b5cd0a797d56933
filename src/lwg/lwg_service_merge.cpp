// LwgService partition healing: HWG view-change handling, local peer
// discovery, and the merge-views protocol of paper Fig. 5.
//
// The merge is decentralized and deterministic: the ANNOUNCEs ordered in an
// HWG view are the collected set, and MERGE-VIEWS only asks the HWG
// coordinator to force the flush that ends the view. Virtual synchrony
// guarantees everyone that installs the next HWG view collected the
// identical set, so each member independently computes the same merged
// LWG views. A view that misses the set (an ANNOUNCE past the flush cut, a
// VIEW installed inside the view) is announced again in the next view.
#include "lwg/lwg_service.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace plwg::lwg {

namespace {

/// FNV-1a over the sorted constituent ids *and the HWG view the merge was
/// computed in*: the disambiguator that makes the deterministically
/// computed merged view id globally fresh. The HWG view id must be part of
/// the hash: a partition can strike mid-merge, leaving two concurrent HWG
/// views whose members collected the identical constituent set but
/// intersect it with different HWG memberships — without it both sides
/// would mint the same id for different merged views.
std::uint32_t hash_constituents(const std::vector<ViewId>& ids,
                                const ViewId& hwg_view) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const ViewId& id : ids) {
    mix(id.coordinator.value());
    mix(id.seq);
    mix(id.disambig);
  }
  mix(hwg_view.coordinator.value());
  mix(hwg_view.seq);
  mix(hwg_view.disambig);
  std::uint32_t out = static_cast<std::uint32_t>(h ^ (h >> 32));
  return out == 0 ? 1 : out;  // 0 is reserved for locally minted ids
}

}  // namespace

void LwgService::trigger_merge_views(HwgId gid) {
  HwgState& hs = hwg_state(gid);
  if (hs.merge_requested) return;  // this view's flush is already requested
  hs.merge_requested = true;
  stats_.merges_triggered++;
  PLWG_DEBUG("lwg", "p", self(), " triggers MERGE-VIEWS on hwg ", gid);
  send_lwg_msg(gid, MergeViewsMsg{});
}

void LwgService::handle_merge_views(HwgId gid) {
  HwgState& hs = hwg_state(gid);
  hs.merge_requested = true;  // suppress duplicate triggers this view
  // Fig. 5 lines 110-111: the HWG coordinator forces the flush that ends
  // this view, once per view; repeated MERGE-VIEWS add nothing. A short
  // gather window first lets ANNOUNCEs still in flight reach the sequencer.
  // A timer that outlives its view must not flush the next one.
  const vsync::View* hv = vsync_.view_of(gid);
  if (hv == nullptr || hv->coordinator() != self() ||
      hs.flush_scheduled_in == hv->id) {
    return;
  }
  hs.flush_scheduled_in = hv->id;
  vsync_.node().after(kMergeGatherUs, [this, gid, vid = hv->id] {
    const vsync::View* current = vsync_.view_of(gid);
    if (current != nullptr && current->id == vid) vsync_.force_flush(gid);
  });
}

void LwgService::handle_announce(HwgId gid, const AnnounceMsg& msg) {
  HwgState& hs = hwg_state(gid);
  bool concurrent = false;
  for (const LwgViewInfo& info : msg.views) {
    HwgState::CollectedView collected;
    collected.view = info.view;
    collected.ancestors.insert(info.ancestors.begin(), info.ancestors.end());
    hs.all_views[info.lwg][info.view.id] = std::move(collected);
    // Step 3 discovery: a concurrent view of a local group on this HWG. The
    // *trigger* may use local ancestry (a local heuristic); the merge
    // decision itself uses only the collected evidence.
    LocalGroup* lg = find_group(info.lwg);
    if (lg != nullptr && lg->has_view && lg->hwg == gid &&
        info.view.id != lg->view.id && !lg->ancestors.contains(info.view.id)) {
      concurrent = true;
    }
  }
  if (concurrent) trigger_merge_views(gid);
}

void LwgService::process_pending_merges(HwgId gid,
                                        const vsync::View& new_hwg_view) {
  HwgState& hs = hwg_state(gid);
  for (auto& [lwg, views] : hs.all_views) {
    LocalGroup* lg = find_group(lwg);
    if (lg == nullptr || !lg->has_view || lg->hwg != gid) continue;
    // Canonical supersession: a collected view that appears in another
    // collected view's advertised ancestry is obsolete. This is decided
    // from the collected evidence alone, so every member (stale straggler
    // or already merged) reaches the same verdict.
    std::set<ViewId> superseded;
    for (const auto& [vid, collected] : views) {
      superseded.insert(collected.ancestors.begin(),
                        collected.ancestors.end());
    }
    for (auto it = views.begin(); it != views.end();) {
      if (superseded.contains(it->first)) {
        it = views.erase(it);
      } else {
        ++it;
      }
    }
    if (views.empty()) continue;
    if (superseded.contains(lg->view.id)) {
      // Our own view is obsolete (we missed the change that superseded it,
      // e.g. while partitioned). Adopt the superseding survivor if it
      // includes us; if it dropped us, re-resolve and rejoin from scratch.
      const HwgState::CollectedView* successor = nullptr;
      for (const auto& [vid, collected] : views) {
        if (collected.ancestors.contains(lg->view.id) &&
            (successor == nullptr || vid > successor->view.id)) {
          successor = &collected;
        }
      }
      if (successor != nullptr && successor->view.members.contains(self())) {
        PLWG_INFO("lwg", "p", self(), " adopts superseding view ",
                  successor->view.id, " of lwg ", lwg);
        // Adopting knowingly skips the history between our view and the
        // successor, so this is an epoch break, not a consecutive install.
        note_lwg_reset(lwg);
        install_lwg_view(*lg, successor->view, {lg->view.id});
      } else {
        PLWG_INFO("lwg", "p", self(), " dropped from lwg ", lwg,
                  " while away; re-resolving");
        note_lwg_reset(lwg);
        lg->stale_views.push_back(lg->view.id);
        lg->has_view = false;
        set_phase(*lg, Phase::kResolving);
        resolve_mapping(lwg);
      }
      continue;
    }
    if (views.size() < 2) continue;
    if (!views.contains(lg->view.id)) continue;

    std::vector<ViewId> constituents;
    std::vector<LwgView> constituent_views;
    MemberSet merged_members;
    std::uint32_t max_seq = 0;
    for (const auto& [vid, collected] : views) {
      constituents.push_back(vid);
      constituent_views.push_back(collected.view);
      merged_members = merged_members.set_union(collected.view.members);
      max_seq = std::max(max_seq, vid.seq);
    }
    merged_members = merged_members.set_intersection(new_hwg_view.members);
    if (!merged_members.contains(self())) continue;

    LwgView merged;
    merged.id = ViewId{merged_members.min_member(), max_seq + 1,
                       hash_constituents(constituents, new_hwg_view.id)};
    merged.members = merged_members;
    merged.hwg = gid;
    stats_.lwg_merges++;
    PLWG_INFO("lwg", "p", self(), " merges ", views.size(),
              " concurrent views of lwg ", lwg, " -> ", merged.id,
              merged.members);
    // Supersede the collected *ancestry* too, not just the direct
    // constituents: if an intermediate view's registration was lost in a
    // partition, the genealogy chain at the naming service has a gap that
    // no later direct-predecessor registration would ever close, and the
    // orphaned row would stay alive forever (Table 4 GC relies on the
    // chain being complete). Every member advertised its full ancestor set
    // in its ANNOUNCE, so the union is the same at every merger.
    std::vector<ViewId> obsolete = constituents;
    obsolete.insert(obsolete.end(), superseded.begin(), superseded.end());
    // Install first: anything the application multicasts from the merge
    // hook is then tagged with the *merged* view and reaches every member
    // (state sent under a constituent view would be dropped as stale).
    install_lwg_view(*lg, merged, obsolete);
    lg->user->on_lwg_merge(lwg, constituent_views, merged);
  }
}

void LwgService::handle_hwg_membership_change(HwgId gid,
                                              const vsync::View& new_view) {
  for (auto& [lwg, lg] : groups_) {
    if (!lg.has_view || lg.hwg != gid || lg.switching) continue;
    const MemberSet survivors =
        lg.view.members.set_intersection(new_view.members);
    if (survivors == lg.view.members) {
      // Unaffected membership; the coordinator refreshes the mapping so the
      // naming service tracks the new HWG view (paper Table 4, stage 2).
      if (lg.view.coordinator() == self()) ns_register(lg, {});
      continue;
    }
    if (survivors.empty() || !survivors.contains(self())) continue;
    if (survivors.min_member() != self()) continue;  // surviving coordinator
    LwgView next;
    next.id = mint_view_id();
    next.members = survivors;
    next.hwg = gid;
    send_lwg_msg(gid, ViewMsg{lwg, next, {lg.view.id}});
  }
}

}  // namespace plwg::lwg
