// LwgService — the paper's light-weight group service, partitionable
// edition, plus (via MappingMode) the two baselines of the Fig. 2
// evaluation.
//
// Responsibilities (paper Sect. 3):
//   (i)   preserve the virtually synchronous Table 1 interface per LWG while
//         multiplexing many LWGs onto few HWGs;
//   (ii)  mapping & switching policies (Fig. 1 share / interference / shrink
//         rules with parameters k_m, k_c, run periodically, enacted only by
//         each LWG's coordinator);
//   (iii) the switching protocol that re-maps an LWG between HWGs at run
//         time (with forward pointers for stale naming-service readers).
//
// Partitionable extensions (paper Sects. 4-6):
//   Step 1  global peer discovery — the naming service pushes
//           MULTIPLE-MAPPINGS callbacks after reconciling its replicas;
//   Step 2  mapping reconciliation — coordinators of concurrent LWG views
//           switch deterministically to the HWG with the highest group id;
//   Step 3  local peer discovery — DATA carries the sender's LWG view id;
//           a message for a concurrent view of a local group (or a view
//           announce after an HWG merge) reveals the co-mapped peer view;
//   Step 4  merge-views — one HWG flush merges all concurrent LWG views
//           mapped on that HWG at once, deterministically (Fig. 5).
//
// Protocol-design note: the HWG layer delivers totally ordered multicasts,
// so every LWG control message (JOIN/LEAVE/VIEW/SWITCH) is itself the flush
// barrier for the view it closes — data sent in an LWG view is ordered
// before the message that ends the view.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "durable/store.hpp"
#include "lwg/config.hpp"
#include "lwg/lwg_user.hpp"
#include "lwg/lwg_view.hpp"
#include "lwg/messages.hpp"
#include "lwg/observer.hpp"
#include "lwg/policy.hpp"
#include "names/naming_agent.hpp"
#include "util/types.hpp"
#include "vsync/vsync_host.hpp"

namespace plwg::lwg {

class LwgService : public GroupService,
                   public vsync::GroupUser,
                   public names::ConflictListener {
 public:
  struct Stats {
    std::uint64_t lwg_views_installed = 0;
    std::uint64_t data_sent = 0;
    std::uint64_t data_delivered = 0;
    std::uint64_t data_filtered = 0;    // traffic for LWGs without a local member
    std::uint64_t data_superseded = 0;  // stale-view copies discarded on arrival
    std::uint64_t data_resent = 0;      // own copies that missed their view, re-sent
    std::uint64_t switches_started = 0;
    std::uint64_t switches_completed = 0;
    std::uint64_t merges_triggered = 0; // MERGE-VIEWS rounds initiated here
    std::uint64_t lwg_merges = 0;       // concurrent LWG views folded locally
    std::uint64_t conflict_callbacks = 0;
    std::uint64_t hwgs_created = 0;
    std::uint64_t hwgs_left = 0;        // shrink rule departures
    std::uint64_t decode_errors = 0;    // malformed LWG messages dropped
  };

  /// `store` persists the view-id counter and the set of joined LWGs
  /// across a crash–restart of this process (see durable/store.hpp).
  LwgService(vsync::VsyncHost& vsync, names::NamingAgent& names,
             LwgConfig config, durable::ProcessStore& store);
  ~LwgService() override;
  LwgService(const LwgService&) = delete;
  LwgService& operator=(const LwgService&) = delete;

  // --- GroupService (user downcalls) -------------------------------------
  void join(LwgId lwg, LwgUser& user) override;
  void leave(LwgId lwg) override;
  void send(LwgId lwg, std::vector<std::uint8_t> data) override;

  /// Graceful departure from every joined LWG (and, via the shrink rule,
  /// from the underlying HWGs). The inverse of a crash: peers see clean
  /// leave views instead of failure detection.
  void shutdown();

  // --- introspection ------------------------------------------------------
  [[nodiscard]] ProcessId self() const { return vsync_.self(); }
  [[nodiscard]] const LwgView* view_of(LwgId lwg) const;
  [[nodiscard]] std::optional<HwgId> hwg_of(LwgId lwg) const;
  [[nodiscard]] std::vector<LwgId> local_groups() const;
  [[nodiscard]] std::vector<HwgId> member_hwgs() const {
    return vsync_.groups();
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const LwgConfig& config() const { return config_; }

  /// Protocol observer (the cross-node oracle); may be null. Not owned.
  void set_observer(LwgObserver* observer) { observer_ = observer; }

  /// Run the Fig. 1 heuristics immediately (tests/benches; normally they run
  /// every policy_period_us).
  void run_policies();

  /// Human-readable snapshot of the service state (groups, phases, views,
  /// mappings, forward pointers) for logging and operational debugging.
  [[nodiscard]] std::string debug_dump() const;

  // --- vsync::GroupUser (HWG upcalls) -------------------------------------
  void on_view(HwgId gid, const vsync::View& view) override;
  void on_data(HwgId gid, ProcessId src,
               std::span<const std::uint8_t> data) override;
  void on_stop(HwgId gid) override;

  // --- names::ConflictListener (Step 1 callback) ---------------------------
  void on_multiple_mappings(
      LwgId lwg, const std::vector<names::MappingEntry>& entries) override;

 private:
  // -- fixed protocol timings (docs/TUNING.md "Fixed protocol constants") --
  /// Give up joining an HWG learned from a (possibly stale) naming-service
  /// entry after this long, and fall back to creating a fresh HWG. Also the
  /// patience of the other phase timeouts (announce, switch, leave).
  static constexpr Duration kHwgJoinGiveUpUs = 5'000'000;
  /// Period of the service-internal retry/housekeeping tick.
  static constexpr Duration kTickUs = 200'000;
  /// Gather window between the first MERGE-VIEWS of an HWG view and the
  /// flush it forces: room for ANNOUNCEs still in flight (across a slow
  /// uplink) to join the flushing view, so one flush merges everything —
  /// the resource-sharing point of paper Sect. 6.4. A late ANNOUNCE only
  /// costs the next view's flush: a performance constant, not correctness.
  static constexpr Duration kMergeGatherUs = 50'000;
  /// How long a naming-service row may keep listing this process as member
  /// of an LWG view it does not hold before the process disavows the row
  /// (writes its supersession). Such a row is normally a concurrent view
  /// the merge protocol folds, or our own registration whose install is
  /// still in flight — the grace period lets both resolve. A row that
  /// outlives it is a ghost: every process that held its view died without
  /// superseding it, and the listed survivors are the only ones left who
  /// may retire it.
  static constexpr Duration kGhostDisavowGraceUs = 10'000'000;

  enum class Phase {
    kResolving,   // naming-service lookup in flight
    kJoiningHwg,  // joining the mapped HWG
    kAnnounced,   // LWG JOIN multicast on the HWG, awaiting an LWG view
    kActive,
    kLeaving,     // LEAVE multicast, awaiting the view that excludes us
  };

  struct SwitchCollect {   // coordinator side of the switch protocol
    HwgId to_hwg;
    MemberSet contacts;
    ViewId old_view;
    MemberSet ready;
  };

  struct LocalGroup {
    LwgId lwg;
    LwgUser* user = nullptr;
    Phase phase = Phase::kResolving;
    Time phase_since = 0;
    int announce_attempts = 0;
    HwgId hwg;               // current mapping (valid from kJoiningHwg on)
    MemberSet contacts;      // HWG join contacts
    bool has_view = false;
    LwgView view;
    std::set<ViewId> ancestors;  // our own view history (stale filtering)
    std::uint64_t ns_stamp = 0;
    std::vector<ViewId> stale_views;  // superseded if we re-map from scratch
    /// Alive naming rows listing us as member of a view we don't hold, and
    /// when each was first reported; disavowed once older than
    /// kGhostDisavowGraceUs (see on_multiple_mappings).
    std::map<ViewId, Time> ghost_candidates;
    // Member side of an in-progress switch: sends freeze until the view on
    // the target HWG installs.
    std::optional<SwitchMsg> switching;
    Time switching_since = 0;
    // Coordinator side.
    std::optional<SwitchCollect> collect;
    std::deque<std::vector<std::uint8_t>> queued_sends;
    // Membership changes requested via JOIN/LEAVE messages. Every member
    // tracks them (the coordinator may change); the current coordinator
    // folds them into the next view, one in-flight view at a time — this is
    // what keeps concurrent joins/leaves from minting sibling views off the
    // same predecessor.
    MemberSet pending_add;
    MemberSet pending_remove;
    std::optional<ViewId> inflight_view;
    Time inflight_since = 0;
  };

  struct HwgState {
    HwgId gid;
    /// Forward pointers left behind by switches (paper Sect. 3.1).
    std::map<LwgId, std::pair<HwgId, MemberSet>> forwards;
    /// Merge-views state of the current HWG view (paper Fig. 5): AV_p(hwg),
    /// from its ANNOUNCEs, with each collected view's advertised ancestry.
    struct CollectedView {
      LwgView view;
      std::set<ViewId> ancestors;
    };
    bool merge_requested = false;  // MERGE-VIEWS sent or seen in this view
    std::map<LwgId, std::map<ViewId, CollectedView>> all_views;
    /// HWG view whose flush this process (its coordinator) has scheduled.
    ViewId flush_scheduled_in;
    Time no_local_lwg_since = -1;  // shrink rule timer
  };

  // -- lwg_service.cpp: core plumbing --
  void set_phase(LocalGroup& lg, Phase phase);
  [[nodiscard]] LocalGroup* find_group(LwgId lwg);
  [[nodiscard]] HwgState& hwg_state(HwgId gid);
  /// Multicast `msg` on `hwg`, in its envelope.
  template <class M>
  void send_lwg_msg(HwgId hwg, const M& msg) {
    vsync_.send(hwg, encode_envelope(msg));
  }
  /// Multicast `data` as DATA of `lg`'s current view (can_send holds).
  void send_data(const LocalGroup& lg, std::span<const std::uint8_t> data);
  /// Next LWG view id minted here. Its counter lives in the durable store:
  /// it must survive restart (see durable/store.hpp).
  [[nodiscard]] ViewId mint_view_id();
  /// Tell the oracle this process's delivery epoch for `lwg` ended (view
  /// dropped without a successor: leave, re-resolve, lost endpoint, or
  /// knowingly skipped history). A later view must not pair with the old.
  void note_lwg_reset(LwgId lwg);
  void tick();
  void install_lwg_view(LocalGroup& lg, const LwgView& view,
                        const std::vector<ViewId>& predecessors);
  void finalize_leave(LwgId lwg);
  /// True when a send on `lg` may go out now; otherwise it waits in
  /// queued_sends. An HWG eject (GroupEndpoint::become_defunct) drops the
  /// endpoint without an upcall, so an active LWG can outlive its HWG
  /// membership.
  [[nodiscard]] bool can_send(const LocalGroup& lg) const;
  void drain_queued_sends(LocalGroup& lg);
  [[nodiscard]] static LwgViewInfo view_info(const LocalGroup& lg);
  [[nodiscard]] std::vector<LwgViewInfo> local_views_on(HwgId gid) const;
  /// Multicast ANNOUNCE(views) on `gid` (reconciliation Steps 3-4).
  void announce(HwgId gid, const std::vector<LwgViewInfo>& views);
  [[nodiscard]] names::MappingEntry make_entry(const LocalGroup& lg,
                                               std::uint64_t stamp) const;
  void ns_register(LocalGroup& lg, const std::vector<ViewId>& predecessors);

  // -- lwg_service_map.cpp: mapping, joins, switching, reconciliation --
  void resolve_mapping(LwgId lwg);
  void on_mapping_read(LwgId lwg, const std::vector<names::MappingEntry>& entries);
  /// Claim a fresh mapping for `lg`. With `force`, skip the testset and
  /// overwrite the naming-service row outright — used when the alive row is
  /// a corpse that a testset could never beat (see adopt_mapping).
  void establish_new_mapping(LocalGroup& lg, bool force = false);
  void adopt_mapping(LocalGroup& lg, const names::MappingEntry& entry);
  /// Supersede alive rows that list us as member of a view we have not held
  /// for longer than kGhostDisavowGraceUs (ghost-row retirement; called
  /// from on_multiple_mappings).
  void disavow_ghost_rows(LocalGroup& lg,
                          const std::vector<names::MappingEntry>& entries);
  void announce_join(LocalGroup& lg);
  void start_switch(LocalGroup& lg, HwgId to_hwg, const MemberSet& contacts);
  void abort_switch(LocalGroup& lg);
  void handle_join(HwgId gid, const JoinMsg& msg);
  void handle_leave(HwgId gid, const LeaveMsg& msg);
  void handle_view(HwgId gid, const ViewMsg& msg);
  void handle_switch(HwgId gid, const SwitchMsg& msg);
  void handle_switch_ready(HwgId gid, const SwitchReadyMsg& msg);
  void handle_switched(HwgId gid, const SwitchedMsg& msg);
  void handle_redirect(HwgId gid, const RedirectMsg& msg);
  /// Decodes one whole LWG message; a malformed one is counted in
  /// stats_.decode_errors and yields nullopt.
  template <class Msg>
  std::optional<Msg> decode(Decoder& dec);
  void handle_data(HwgId gid, ProcessId src, const DataMsg& msg);
  void resend_missed_view_copy(const DataMsg& msg);
  void maybe_send_switch_ready(LocalGroup& lg);
  /// Coordinator: fold pending adds/removes into the next LWG view if no
  /// view installation is already in flight.
  void maybe_install_next_view(LocalGroup& lg);

  // -- lwg_service_merge.cpp: hwg view changes + merge-views (Fig. 5) --
  void trigger_merge_views(HwgId gid);
  void handle_merge_views(HwgId gid);
  void handle_announce(HwgId gid, const AnnounceMsg& msg);
  void process_pending_merges(HwgId gid, const vsync::View& new_hwg_view);
  void handle_hwg_membership_change(HwgId gid, const vsync::View& new_view);

  // -- lwg_service_policy.cpp: Fig. 1 rules --
  void run_share_rule();
  void run_interference_rule();
  void run_shrink_rule();
  [[nodiscard]] std::vector<policy::HwgCandidate> hwg_candidates() const;
  [[nodiscard]] std::size_t lwgs_using_hwg(HwgId gid) const;

  vsync::VsyncHost& vsync_;
  names::NamingAgent& names_;
  LwgConfig config_;
  durable::ProcessStore& store_;  // not owned
  std::map<LwgId, LocalGroup> groups_;
  std::map<HwgId, HwgState> hwgs_;
  /// A freshly allocated HWG id whose creation is deferred until a testset
  /// win; concurrent establishes reuse it so simultaneous group creations
  /// at one process land on one HWG instead of one each.
  std::optional<HwgId> provisional_hwg_;
  LwgObserver* observer_ = nullptr;  // not owned
  Time last_policy_run_ = 0;
  Stats stats_;
};

}  // namespace plwg::lwg
