#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <type_traits>
#include <unordered_map>

#include "tracer.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace perfbench {

using plwg::Decoder;
using plwg::Duration;
using plwg::Encoder;
using plwg::LwgId;
using plwg::ProcessId;
using plwg::Time;
using plwg::harness::SimWorld;

namespace {

constexpr std::size_t kPayloadBytes = 64;
/// Per-delivery network jitter, drawn from the seed's RNG streams. It is
/// what makes two seeds' simulated figures differ without changing any
/// workload's regime (who founds, who sends, which HWG sequences).
constexpr Duration kJitterUs = 20;
constexpr Duration kSampleEvery = 100'000;  // availability sample period
/// Latency limit: a multicast delivered back to its sender later than this
/// has failed (it counts in `failed`). Far above every steady-state latency
/// of the workloads. In the latency sample every failure reads above it.
constexpr Duration kLatencyLimitUs = 1'000'000;

const std::vector<std::string> kWorkloads = {"fig2-dynamic", "wan1000",
                                             "heal-cycles"};

// ---------------------------------------------------------------------------
// Traced wrappers: every call into the system goes through one of these.

void run_for(SimWorld& w, Duration us) {
  Span s("engine.run");
  w.run_for(us);
}

bool run_until(SimWorld& w, const std::function<bool()>& pred,
               Duration timeout_us) {
  Span s("engine.run");
  return w.run_until(pred, timeout_us);
}

bool converged(SimWorld& w) {
  Span s("oracle.check");
  return w.convergence_failure().empty();
}

void join(SimWorld& w, std::size_t proc, LwgId lwg, plwg::lwg::LwgUser& u) {
  Span s("lwg.join");
  w.lwg(proc).join(lwg, u);
}

// Channel = (lwg index, sending process): sequence numbers are per channel.
[[nodiscard]] std::uint64_t channel(std::size_t lwg_idx, std::size_t sender) {
  return (static_cast<std::uint64_t>(lwg_idx) << 32) | sender;
}

/// The measured window: sends stamped inside it are the ones whose
/// latency, delivery and failure the metrics count.
struct Window {
  Time start = plwg::kTimeMax;
  Time end = plwg::kTimeMax;
  [[nodiscard]] bool contains(Time t) const { return t >= start && t < end; }
};

/// The application at one process. Runs on that process's engine site
/// thread; the benchmark's main thread reads it only while the engine is
/// idle.
class ProbeUser : public plwg::lwg::LwgUser {
 public:
  ProbeUser(SimWorld& world, std::size_t self, bool strict,
            const Window& window)
      : world_(world), self_(self), strict_(strict), window_(window) {}

  void on_lwg_view(LwgId, const plwg::lwg::LwgView&) override {
    last_view_at = world_.vsync(self_).node().now();
  }

  void on_lwg_data(LwgId, ProcessId,
                   std::span<const std::uint8_t> data) override {
    Decoder dec(data);
    const Time sent = dec.get_i64();
    const std::uint64_t ch = dec.get_u64();
    const std::uint64_t seq = dec.get_u64();
    const bool measured = window_.contains(sent);
    const Duration latency = world_.vsync(self_).node().now() - sent;
    const bool on_time = latency <= kLatencyLimitUs;
    if (measured) {
      if (on_time) {
        latencies.push_back(latency);
      } else {
        late.push_back({ch, seq, sent, latency});
      }
      ++deliveries;
    }
    if (strict_) {
      // Exactly once, in sender order, at every member of the stable view.
      std::uint64_t& next = next_[ch];
      if (seq != next) {
        if (errors++ == 0) {
          std::ostringstream os;
          os << "process " << self_ << " channel " << (ch >> 32) << "/"
             << (ch & 0xFFFFFFFF) << " got seq " << seq << ", expected "
             << next;
          first_error = os.str();
        }
      } else {
        ++next;
      }
    }
    if ((ch & 0xFFFFFFFF) == self_) {
      std::vector<Duration>& seen = own_[ch];
      if (seen.size() <= seq) seen.resize(seq + 1, kNever);
      if (seen[seq] == kNever) {
        seen[seq] = latency;
        if (measured && on_time) ++own_measured;
      }
    }
  }

  static constexpr Duration kNever = plwg::kTimeMax;
  /// How long own message `seq` on `ch` took to first come back to this
  /// sender; kNever if it did not.
  [[nodiscard]] Duration own_latency(std::uint64_t ch, std::uint64_t seq) const {
    auto it = own_.find(ch);
    if (it == own_.end() || seq >= it->second.size()) return kNever;
    return it->second[seq];
  }
  [[nodiscard]] std::uint64_t received(std::uint64_t ch) const {
    auto it = next_.find(ch);
    return it == next_.end() ? 0 : it->second;
  }

  struct Late {
    std::uint64_t ch;
    std::uint64_t seq;
    Time sent;
    Duration latency;
  };
  std::vector<std::int64_t> latencies;  // measured, within the limit
  std::vector<Late> late;               // measured, past the limit
  Time last_view_at = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t own_measured = 0;
  std::uint64_t errors = 0;
  std::string first_error;

 private:
  SimWorld& world_;
  std::size_t self_;
  bool strict_;
  const Window& window_;
  std::unordered_map<std::uint64_t, std::uint64_t> next_;
  std::unordered_map<std::uint64_t, std::vector<Duration>> own_;
};

Counters read_counters(SimWorld& w) {
  Counters c{};
  const plwg::sim::Engine& engine = w.engine();
  for (std::size_t i = 0; i < engine.num_sites(); ++i)
    c[kEngineEvents] += engine.site_events_run(i);
  const plwg::sim::NetworkStats& net = w.network().stats();
  c[kNetFrames] = net.frames_sent;
  c[kNetMessages] = net.messages_sent;
  c[kNetDeliveries] = net.deliveries;
  c[kNetBytesOnWire] = net.bytes_on_wire;
  c[kNetDrops] = net.drops;
  c[kNetLinkBlocked] = net.link_blocked;
  c[kNetStaleEpochDrops] = net.stale_epoch_drops;
  c[kNetBusBusyUs] = static_cast<std::uint64_t>(net.bus_busy_us);
  for (std::size_t i = 0; i < w.num_processes(); ++i) {
    const auto& t = w.vsync(i).node().stats();
    c[kTransportFrames] += t.frames_sent;
    c[kTransportMessages] += t.messages_sent;
    c[kTransportPiggybackedAcks] += t.piggybacked_acks;
    c[kTransportBackpressureHeld] += t.backpressure_held;
    c[kTransportMalformedFrames] += t.malformed_frames;
    c[kTransportDecodeErrors] += t.decode_errors;
    for (const auto& [gid, ep] : w.vsync(i).endpoints()) {
      const auto& v = ep->stats();
      c[kVsyncMsgsDelivered] += v.msgs_delivered;
      c[kVsyncViewsInstalled] += v.views_installed;
      c[kVsyncFlushesStarted] += v.flushes_started;
      c[kVsyncMergesLed] += v.merges_led;
      c[kVsyncNacksSent] += v.nacks_sent;
    }
    const auto& l = w.lwg(i).stats();
    c[kLwgDataDelivered] += l.data_delivered;
    c[kLwgDataFiltered] += l.data_filtered;
    c[kLwgDataSuperseded] += l.data_superseded;
    c[kLwgDataResent] += l.data_resent;
    c[kLwgSwitchesCompleted] += l.switches_completed;
    c[kLwgMerges] += l.lwg_merges;
    c[kLwgConflictCallbacks] += l.conflict_callbacks;
    c[kLwgViewsInstalled] += l.lwg_views_installed;
    const auto& n = w.naming(i).stats();
    c[kNamesRequests] += n.set_requests + n.read_requests + n.testset_requests;
  }
  for (std::size_t j = 0; j < w.num_servers(); ++j) {
    const auto& n = w.server(j).stats();
    c[kNamesRequests] += n.set_requests + n.read_requests + n.testset_requests;
    c[kNamesSyncsSent] += n.syncs_sent;
    c[kNamesFullSyncs] += n.full_syncs_sent;
    c[kNamesDeltaSyncs] += n.delta_syncs_sent;
    c[kNamesCallbacksSent] += n.callbacks_sent;
  }
  return c;
}

std::uint64_t fingerprint(const SimTally& t) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t v :
       {t.sends_attempted, t.sends_skipped, t.sends_refused, t.heals,
        t.heals_failed, t.restarts, t.fault_calls, t.avail_samples,
        t.avail_hits, static_cast<std::uint64_t>(t.recoveries_us.size())}) {
    h = (h ^ v) * 1099511628211ull;
  }
  for (std::int64_t r : t.recoveries_us)
    h = (h ^ static_cast<std::uint64_t>(r)) * 1099511628211ull;
  return h;
}

/// Shared machinery of a one-world workload: the world, one ProbeUser per
/// process, group membership bookkeeping, probe sends and availability
/// sampling.
class Base : public Workload {
 public:
  Counters counters() override { return read_counters(*world_); }

  WorldProbe probe() override {
    WorldProbe p;
    p.digest = world_->trace_digest();
    p.sites = world_->engine().num_sites();
    for (std::size_t i = 0; i < world_->num_processes(); ++i) {
      if (!world_->crashed(i)) p.hwg_memberships += world_->vsync(i).endpoints().size();
    }
    for (std::size_t j = 0; j < world_->num_servers(); ++j) {
      p.db_bytes = std::max<std::uint64_t>(
          p.db_bytes, world_->server(j).database().encoded_size());
    }
    return p;
  }

  SimTally tally() override { return tally_; }
  std::uint64_t tally_fingerprint() const override { return fingerprint(tally_); }

  Duration run_slice(std::size_t k) override {
    const Time t0 = world_->simulator().now();
    slice(k);
    return world_->simulator().now() - t0;
  }

 protected:
  Base(const Params& p, bool strict) : params_(p), rng_(p.seed), strict_(strict) {}

  virtual void slice(std::size_t k) = 0;

  void make_world(plwg::harness::WorldConfig cfg) {
    cfg.net.seed = params_.seed;
    cfg.net.jitter_us = kJitterUs;
    cfg.sim_threads = params_.threads;
    cfg.oracle = params_.oracle;
    world_ = std::make_unique<SimWorld>(std::move(cfg));
    for (std::size_t i = 0; i < world_->num_processes(); ++i) {
      users_.push_back(
          std::make_unique<ProbeUser>(*world_, i, strict_, window_));
    }
  }

  /// Simulated time from `since` to the last LWG view installation at any
  /// process: when a membership disturbance (formation, heal) ended, at
  /// microsecond resolution rather than the resolution of the polls that
  /// confirmed convergence.
  [[nodiscard]] Duration settled_since(Time since) const {
    Time last = since;
    for (const auto& u : users_) last = std::max(last, u->last_view_at);
    return last - since;
  }

  /// Group `idx` with id `id` and its member processes.
  void add_group(LwgId id, std::vector<std::size_t> members) {
    for (std::size_t m : members) member_of_[m].push_back(groups_.size());
    groups_.push_back({id, std::move(members)});
  }

  [[nodiscard]] bool all_views_full() {
    for (const Group& g : groups_) {
      for (std::size_t m : g.members) {
        const plwg::lwg::LwgView* v = world_->lwg(m).view_of(g.id);
        if (v == nullptr || v->members.size() != g.members.size()) return false;
      }
    }
    return true;
  }

  /// Join every group's founder (member `founder_slot[idx]`) in one wave,
  /// then every other member in a second wave, and run until every view is
  /// full and the oracle's convergence checks pass.
  bool form_groups(const std::vector<std::size_t>& founder_slot,
                   Duration timeout_us) {
    const Time start = world_->simulator().now();
    for (std::size_t idx = 0; idx < groups_.size(); ++idx) {
      const Group& g = groups_[idx];
      const std::size_t f = g.members[founder_slot[idx]];
      join(*world_, f, g.id, *users_[f]);
    }
    if (!run_until(
            *world_,
            [&] {
              for (std::size_t idx = 0; idx < groups_.size(); ++idx) {
                const Group& g = groups_[idx];
                if (world_->lwg(g.members[founder_slot[idx]]).view_of(g.id) ==
                    nullptr)
                  return false;
              }
              return true;
            },
            timeout_us))
      return false;
    for (std::size_t idx = 0; idx < groups_.size(); ++idx) {
      const Group& g = groups_[idx];
      for (std::size_t k = 0; k < g.members.size(); ++k) {
        if (k == founder_slot[idx]) continue;
        join(*world_, g.members[k], g.id, *users_[g.members[k]]);
      }
    }
    if (!run_until(*world_, [&] { return all_views_full(); }, timeout_us))
      return false;
    if (!run_until(*world_, [&] { return converged(*world_); }, timeout_us))
      return false;
    tally_.recoveries_us.push_back(settled_since(start));
    return true;
  }

  /// Send one 64 B probe from `proc` to group `idx`, or count it skipped
  /// when the sender holds no view. Measured sends are tallied.
  void send_probe(std::size_t idx, std::size_t proc) {
    const Time now = world_->simulator().now();
    const bool measured = window_.contains(now);
    const Group& g = groups_[idx];
    if (measured) ++tally_.sends_attempted;
    if (world_->crashed(proc) || world_->lwg(proc).view_of(g.id) == nullptr) {
      if (measured) {
        ++tally_.sends_skipped;
        unsent_.push_back(now);
      }
      return;
    }
    // Known defect: after some heals a process holds an LWG view whose HWG
    // it is no longer a member of, and LwgService::send then aborts the
    // process (VsyncHost::send asserts membership). Such a send is refused
    // here and counted as failed, so the defect shows in `failed` and in
    // sends_refused instead of ending the run.
    const std::optional<plwg::HwgId> hwg = world_->lwg(proc).hwg_of(g.id);
    if (!hwg || !world_->vsync(proc).is_member(*hwg)) {
      if (measured) {
        ++tally_.sends_refused;
        unsent_.push_back(now);
      }
      return;
    }
    const std::uint64_t ch = channel(idx, proc);
    std::uint64_t& seq = sent_[ch];
    Encoder enc;
    enc.put_i64(now);
    enc.put_u64(ch);
    enc.put_u64(seq);
    std::vector<std::uint8_t> payload = enc.take();
    payload.resize(kPayloadBytes, 0);
    if (measured) measured_sends_.push_back({ch, seq, now});
    ++seq;
    Span s("lwg.send");
    world_->lwg(proc).send(g.id, std::move(payload));
  }

  void maybe_sample_availability() {
    const Time now = world_->simulator().now();
    if (!window_.contains(now) || now < next_sample_) return;
    next_sample_ = now + kSampleEvery;
    for (std::size_t p = 0; p < users_.size(); ++p) {
      if (world_->crashed(p)) continue;
      for (std::size_t idx : member_of_[p]) {
        ++tally_.avail_samples;
        if (world_->lwg(p).view_of(groups_[idx].id) != nullptr)
          ++tally_.avail_hits;
      }
    }
  }

  void open_window(Duration length) {
    window_.start = world_->simulator().now();
    window_.end = window_.start + length;
    next_sample_ = window_.start;
  }

  /// The end of the observation of a send made at `sent`: what happens to
  /// it later is not seen. By default the end of the drain.
  [[nodiscard]] virtual Time observed_until(Time /*sent*/) const {
    return world_->simulator().now();
  }

  /// The latency sample's value for a delivery that missed the limit, or
  /// for one that never happened (`latency` = ProbeUser::kNever): how long
  /// it was seen missing, cut at the end of its observation and never below
  /// the limit. Failures so count against the latency, not only in `failed`.
  [[nodiscard]] std::int64_t missed(Time sent, Duration latency) const {
    const Duration seen = std::min(latency, observed_until(sent) - sent);
    return std::max(seen, kLatencyLimitUs + 1);
  }

  /// After the drain: fold the users' observations into the tally, and in
  /// strict mode check delivery conservation. The latency sample holds the
  /// measured deliveries within the limit and one sample at missed() per
  /// measured send that failed (skipped, refused, lost, or back at its
  /// sender late). A late delivery of a send that did not fail counts at
  /// missed() too; one of a failed send is covered by the send's sample.
  void collect() {
    auto failed = [&](std::uint64_t ch, std::uint64_t seq) {
      return users_[ch & 0xFFFFFFFF]->own_latency(ch, seq) > kLatencyLimitUs;
    };
    for (const auto& [ch, seq, sent] : measured_sends_) {
      const Duration back = users_[ch & 0xFFFFFFFF]->own_latency(ch, seq);
      if (back <= kLatencyLimitUs) continue;
      ++(back == ProbeUser::kNever ? tally_.sends_lost : tally_.sends_late);
      tally_.latencies_us.push_back(missed(sent, back));
    }
    for (Time sent : unsent_)
      tally_.latencies_us.push_back(missed(sent, ProbeUser::kNever));
    for (const auto& u : users_) {
      tally_.latencies_us.insert(tally_.latencies_us.end(),
                                 u->latencies.begin(), u->latencies.end());
      for (const ProbeUser::Late& l : u->late) {
        if (!failed(l.ch, l.seq))
          tally_.latencies_us.push_back(missed(l.sent, l.latency));
      }
    }
    for (const auto& u : users_) {
      tally_.app_deliveries += u->deliveries;
      tally_.multicasts += u->own_measured;
      tally_.conservation_errors += u->errors;
      if (tally_.first_conservation_error.empty() && u->errors > 0)
        tally_.first_conservation_error = u->first_error;
    }
    if (strict_) {
      for (const auto& [ch, n] : sent_) {
        for (std::size_t m : groups_[ch >> 32].members) {
          if (users_[m]->received(ch) == n) continue;
          if (tally_.conservation_errors++ == 0) {
            std::ostringstream os;
            os << "process " << m << " received " << users_[m]->received(ch)
               << " of " << n << " messages on channel " << (ch >> 32) << "/"
               << (ch & 0xFFFFFFFF);
            tally_.first_conservation_error = os.str();
          }
        }
      }
    }
    tally_.measured_sim_us = window_.end - window_.start;
  }

  struct Group {
    LwgId id;
    std::vector<std::size_t> members;
  };

  Params params_;
  plwg::Rng rng_;
  bool strict_;
  SimTally tally_;
  Window window_;
  // Users before the world: the world (and its node stacks) is torn down
  // first, so no callback can reach a destroyed user.
  std::vector<std::unique_ptr<ProbeUser>> users_;
  std::unique_ptr<SimWorld> world_;
  std::vector<Group> groups_;
  std::unordered_map<std::size_t, std::vector<std::size_t>> member_of_;
  std::unordered_map<std::uint64_t, std::uint64_t> sent_;  // channel -> next seq
  struct MeasuredSend {
    std::uint64_t ch;
    std::uint64_t seq;
    Time sent;
  };
  std::vector<MeasuredSend> measured_sends_;
  std::vector<Time> unsent_;  // measured sends skipped or refused
  Time next_sample_ = 0;
};

// ---------------------------------------------------------------------------
// fig2-dynamic: the paper's Fig. 2 throughput world. One 10 Mbps LAN, 8
// processes, 2 x 16 LWGs of 4 members on two disjoint HWGs, closed loop of
// 8 in-flight 64 B probes per group, each group's first member sending
// (processes 0 and 4, as in the paper). The seed picks the group join
// order.

class Fig2 : public Base {
 public:
  explicit Fig2(const Params& p)
      : Base(p, /*strict=*/true),
        per_set_(p.size == Size::kTiny ? 2 : 16),
        slices_(p.size == Size::kTiny ? 4 : 20) {}

  void build() override {
    plwg::harness::WorldConfig cfg;
    cfg.num_processes = 8;
    cfg.num_name_servers = 1;
    cfg.net.bandwidth_bps = 10e6;
    cfg.net.node_process_cost_us = 300;
    cfg.vsync.membership_msg_cost_us = 5'000;
    cfg.lwg.mode = plwg::lwg::MappingMode::kDynamic;
    cfg.lwg.policy_period_us = 60'000'000;
    make_world(cfg);
    for (std::size_t g = 0; g < per_set_; ++g)
      add_group(LwgId{0x0A00 + g}, {0, 1, 2, 3});
    for (std::size_t g = 0; g < per_set_; ++g)
      add_group(LwgId{0x0B00 + g}, {4, 5, 6, 7});
  }

  bool form() override {
    // Groups join one at a time (founder, then the rest) so the dynamic
    // mapping lands each set on its own HWG; the seed shuffles the order.
    std::vector<std::size_t> order(groups_.size());
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng_.next_below(i)]);
    const Time start = world_->simulator().now();
    for (std::size_t idx : order) {
      const Group& g = groups_[idx];
      join(*world_, g.members[0], g.id, *users_[g.members[0]]);
      if (!run_until(
              *world_,
              [&] { return world_->lwg(g.members[0]).view_of(g.id) != nullptr; },
              20'000'000))
        return false;
      for (std::size_t k = 1; k < g.members.size(); ++k)
        join(*world_, g.members[k], g.id, *users_[g.members[k]]);
      if (!run_until(
              *world_,
              [&] {
                for (std::size_t m : g.members) {
                  const plwg::lwg::LwgView* v = world_->lwg(m).view_of(g.id);
                  if (v == nullptr || v->members.size() != g.members.size())
                    return false;
                }
                return true;
              },
              30'000'000))
        return false;
    }
    if (!run_until(*world_, [&] { return converged(*world_); }, 30'000'000))
      return false;
    tally_.recoveries_us.push_back(settled_since(start));
    return true;
  }

  void warmup() override { pump_for(1'000'000); }
  std::size_t num_slices() const override { return slices_; }

  void slice(std::size_t k) override {
    if (k == 0) open_window(static_cast<Duration>(slices_) * kSlice);
    pump_for(kSlice);
  }

  void finish() override {
    run_for(*world_, 2'000'000);  // drain: no new sends
    collect();
  }

 private:
  static constexpr Duration kSlice = 500'000;
  static constexpr Duration kTick = 2'000;
  static constexpr std::uint64_t kWindow = 8;

  void pump_for(Duration us) {
    const Time end = world_->simulator().now() + us;
    while (world_->simulator().now() < end) {
      for (std::size_t i = 0; i < groups_.size(); ++i) {
        // The window closes on the slowest member, so no receiver's
        // backlog can grow without bound.
        const std::size_t sender = groups_[i].members[0];
        const std::uint64_t ch = channel(i, sender);
        std::uint64_t done = UINT64_MAX;
        for (std::size_t m : groups_[i].members)
          done = std::min(done, users_[m]->received(ch));
        while (sent_[ch] < done + kWindow) send_probe(i, sender);
      }
      maybe_sample_availability();
      run_for(*world_, kTick);
    }
  }

  std::size_t per_set_;
  std::size_t slices_;
};

// ---------------------------------------------------------------------------
// wan1000 (and the 16-segment world of the thread check): N segments x 3
// processes, one local LWG per segment, every process sends one 64 B probe
// per period. Each segment's first process founds its group; the seed
// picks the order the processes send in each tick.

class Wan : public Base {
 public:
  Wan(const Params& p, std::size_t segments, Duration period, Duration slice,
      std::size_t slices)
      : Base(p, /*strict=*/true),
        segments_(segments),
        period_(period),
        slice_(slice),
        slices_(slices) {}

  void build() override {
    plwg::harness::WorldConfig cfg;
    cfg.num_processes = segments_ * kPerSegment;
    cfg.num_name_servers = 2;
    for (std::size_t s = 0; s < segments_; ++s) {
      std::vector<std::size_t> seg;
      for (std::size_t i = 0; i < kPerSegment; ++i)
        seg.push_back(s * kPerSegment + i);
      cfg.segments.push_back(seg);
    }
    make_world(cfg);
    for (std::size_t s = 0; s < segments_; ++s)
      add_group(LwgId{s + 1}, cfg.segments[s]);
    send_order_.resize(cfg.num_processes);
    std::iota(send_order_.begin(), send_order_.end(), 0);
    for (std::size_t i = send_order_.size(); i > 1; --i)
      std::swap(send_order_[i - 1], send_order_[rng_.next_below(i)]);
  }

  bool form() override {
    return form_groups(std::vector<std::size_t>(groups_.size(), 0),
                       120'000'000);
  }

  void warmup() override { drive(200'000); }
  std::size_t num_slices() const override { return slices_; }

  void slice(std::size_t k) override {
    if (k == 0) open_window(static_cast<Duration>(slices_) * slice_);
    drive(slice_);
  }

  void finish() override {
    run_for(*world_, 200'000);  // drain: no new sends
    collect();
  }

 private:
  static constexpr std::size_t kPerSegment = 3;

  void drive(Duration us) {
    const Time end = world_->simulator().now() + us;
    while (world_->simulator().now() < end) {
      for (std::size_t p : send_order_) send_probe(p / kPerSegment, p);
      maybe_sample_availability();
      run_for(*world_, period_);
    }
  }

  std::size_t segments_;
  Duration period_;
  Duration slice_;
  std::size_t slices_;
  std::vector<std::size_t> send_order_;
};

// ---------------------------------------------------------------------------
// heal-cycles: 8 processes on 2 LANs (4 + 4), 8 LWGs spanning all 8,
// oracle on. An open-loop schedule from the seed cuts the WAN, heals it,
// and observes reconciliation until the next cut; every 4th cut also
// crashes a process and restarts it before the heal. Light data: one probe
// per LWG per 100 ms from a round-robin sender.

class HealWorld : public Base {
 public:
  HealWorld(const Params& p, std::size_t cycles)
      : Base(p, /*strict=*/false), cycles_(cycles) {}

  void build() override {
    plwg::harness::WorldConfig cfg;
    cfg.num_processes = 8;
    cfg.num_name_servers = 2;
    cfg.segments = {{0, 1, 2, 3}, {4, 5, 6, 7}};
    cfg.lwg.mode = plwg::lwg::MappingMode::kDynamic;
    make_world(cfg);
    for (std::size_t k = 0; k < kGroups; ++k)
      add_group(LwgId{0x4800 + k}, {0, 1, 2, 3, 4, 5, 6, 7});
    for (std::size_t c = 0; c < cycles_; ++c) {
      Cycle cy;
      cy.cut_us = 2'000'000 + static_cast<Duration>(rng_.next_below(2'000'001));
      cy.gap_us = 6'000'000 + static_cast<Duration>(rng_.next_below(2'000'001));
      if (c % 4 == 3) {
        cy.victim = static_cast<int>(rng_.next_below(8));
        cy.crash_at = 200'000 + static_cast<Duration>(rng_.next_below(600'001));
        cy.restart_at =
            cy.cut_us - 300'000 - static_cast<Duration>(rng_.next_below(300'001));
      }
      schedule_.push_back(cy);
    }
  }

  bool form() override {
    // LWG k is founded by process k.
    std::vector<std::size_t> slot(kGroups);
    std::iota(slot.begin(), slot.end(), 0);
    return form_groups(slot, 60'000'000);
  }

  void warmup() override { step_for(1'000'000, nullptr); }
  std::size_t num_slices() const override { return cycles_; }

  void slice(std::size_t k) override {
    if (k == 0) {
      Duration total = 0;
      for (const Cycle& c : schedule_) total += c.cut_us + c.gap_us;
      open_window(total);
      tally_.recoveries_us.clear();  // formation is not a heal here
    }
    const Cycle& cy = schedule_[k];
    const Time cut_at = world_->simulator().now();
    cut_times_.push_back(cut_at);
    fault([&] { world_->cut_wan(); });
    step_for(cy.cut_us, [&](Time now) {
      if (cy.victim < 0) return;
      const auto v = static_cast<std::size_t>(cy.victim);
      if (!world_->crashed(v) && now - cut_at >= cy.crash_at &&
          now - cut_at < cy.restart_at) {
        fault([&] { world_->crash(v); });
      } else if (world_->crashed(v) && now - cut_at >= cy.restart_at) {
        fault([&] { world_->restart(v); });
        ++tally_.restarts;
      }
    });
    fault([&] { world_->heal(); });
    ++tally_.heals;
    const Time heal_at = world_->simulator().now();
    bool recovered = false;
    step_for(cy.gap_us, [&](Time now) {
      if (recovered || now == heal_at) return;
      if (converged(*world_)) {
        recovered = true;
        const Duration settled = settled_since(heal_at);
        tally_.recoveries_us.push_back(settled > 0 ? settled : now - heal_at);
      }
    });
    if (!recovered) {
      ++tally_.heals_failed;
      tally_.recoveries_us.push_back(cy.gap_us);
      if (tally_.first_failed_heal < 0) {
        tally_.first_failed_heal = static_cast<int>(k);
        std::string report = world_->convergence_failure();
        report += "\n" + world_->liveness_report();
        tally_.first_failed_heal_report = report;
      }
    }
  }

  void finish() override {
    run_for(*world_, 3'000'000);
    collect();
    if (world_->oracle_enabled()) {
      tally_.oracle_violations = world_->oracle().total_violations();
      // Counted, not fatal: acknowledge so teardown does not abort.
      world_->oracle().clear();
    }
  }

  /// A send is observed until the next cut, as a heal is: the cycle it
  /// was made in is its observation window.
  [[nodiscard]] Time observed_until(Time sent) const override {
    auto it = std::upper_bound(cut_times_.begin(), cut_times_.end(), sent);
    return it == cut_times_.end() ? window_.end : *it;
  }

  ~HealWorld() override {
    // A traced or partial episode may end before finish(); the oracle's
    // teardown backstop must not turn counted violations into an abort.
    if (world_ && world_->oracle_enabled()) world_->oracle().clear();
  }

 private:
  static constexpr std::size_t kGroups = 8;
  static constexpr Duration kStep = 20'000;
  static constexpr Duration kSendEvery = 100'000;

  struct Cycle {
    Duration cut_us = 0;
    Duration gap_us = 0;
    int victim = -1;
    Duration crash_at = 0;    // after the cut
    Duration restart_at = 0;  // after the cut, before the heal
  };

  template <class F>
  void fault(F&& f) {
    Span s("harness.fault");
    ++tally_.fault_calls;
    f();
  }

  /// Advance `us` in 20 ms steps: round-robin sends every 100 ms,
  /// availability samples, and `each(now)` before every step.
  template <class F>
  void step_for(Duration us, F&& each) {
    const Time end = world_->simulator().now() + us;
    while (world_->simulator().now() < end) {
      const Time now = world_->simulator().now();
      if constexpr (!std::is_same_v<std::decay_t<F>, std::nullptr_t>) each(now);
      if (now >= next_send_) {
        next_send_ = now + kSendEvery;
        for (std::size_t k = 0; k < groups_.size(); ++k)
          send_probe(k, (send_tick_ + k) % 8);
        ++send_tick_;
      }
      maybe_sample_availability();
      run_for(*world_, std::min(kStep, end - now));
    }
  }

  std::size_t cycles_;
  std::vector<Cycle> schedule_;
  std::vector<Time> cut_times_;
  Time next_send_ = 0;
  std::uint64_t send_tick_ = 0;
};


/// heal-cycles as a whole: independent HealWorlds, one after another. The
/// wedge makes a single world's simulated figures swing with the moment it
/// sets in. The run pools several worlds' outcomes so a seed's figures
/// settle. World 0 runs on the seed itself; world j on a seed derived
/// from it.
class HealCycles : public Workload {
 public:
  explicit HealCycles(const Params& p)
      : cycles_(p.size == Size::kTiny ? 2 : kCyclesPerWorld) {
    const std::size_t n = p.size == Size::kTiny ? 2 : kWorlds;
    for (std::size_t j = 0; j < n; ++j) {
      Params q = p;
      if (j > 0) q.seed = plwg::Rng(p.seed + j * 0x9E3779B97F4A7C15ull).next_u64();
      worlds_.push_back(std::make_unique<HealWorld>(q, cycles_));
    }
  }

  void build() override {
    for (auto& w : worlds_) w->build();
  }
  bool form() override {
    for (auto& w : worlds_) {
      if (!w->form()) return false;
    }
    return true;
  }
  void warmup() override {
    for (auto& w : worlds_) w->warmup();
  }
  std::size_t num_slices() const override { return worlds_.size() * cycles_; }
  Duration run_slice(std::size_t k) override {
    return worlds_[k / cycles_]->run_slice(k % cycles_);
  }
  void finish() override {
    for (auto& w : worlds_) w->finish();
  }

  Counters counters() override {
    Counters sum{};
    for (auto& w : worlds_) {
      const Counters c = w->counters();
      for (std::size_t i = 0; i < kCounterCount; ++i) sum[i] += c[i];
    }
    return sum;
  }

  WorldProbe probe() override {
    WorldProbe sum;
    std::uint64_t h = 1469598103934665603ull;
    for (auto& w : worlds_) {
      const WorldProbe p = w->probe();
      h = (h ^ p.digest) * 1099511628211ull;
      sum.sites += p.sites;
      sum.hwg_memberships += p.hwg_memberships;
      sum.db_bytes = std::max(sum.db_bytes, p.db_bytes);
    }
    sum.digest = h;
    return sum;
  }

  SimTally tally() override {
    SimTally t;
    for (std::size_t j = 0; j < worlds_.size(); ++j) {
      const SimTally w = worlds_[j]->tally();
      t.sends_attempted += w.sends_attempted;
      t.sends_skipped += w.sends_skipped;
      t.sends_refused += w.sends_refused;
      t.sends_lost += w.sends_lost;
      t.sends_late += w.sends_late;
      t.heals += w.heals;
      t.heals_failed += w.heals_failed;
      t.multicasts += w.multicasts;
      t.app_deliveries += w.app_deliveries;
      t.latencies_us.insert(t.latencies_us.end(), w.latencies_us.begin(),
                            w.latencies_us.end());
      t.recoveries_us.insert(t.recoveries_us.end(), w.recoveries_us.begin(),
                             w.recoveries_us.end());
      t.avail_samples += w.avail_samples;
      t.avail_hits += w.avail_hits;
      t.measured_sim_us += w.measured_sim_us;
      t.restarts += w.restarts;
      t.fault_calls += w.fault_calls;
      t.oracle_violations += w.oracle_violations;
      if (t.first_failed_heal < 0 && w.first_failed_heal >= 0) {
        t.first_failed_heal = static_cast<int>(j * cycles_) + w.first_failed_heal;
        t.first_failed_heal_report = "world " + std::to_string(j) + ", cycle " +
                                     std::to_string(w.first_failed_heal) +
                                     ":\n" + w.first_failed_heal_report;
      }
    }
    return t;
  }

  std::uint64_t tally_fingerprint() const override {
    std::uint64_t h = 1469598103934665603ull;
    for (const auto& w : worlds_) h = (h ^ w->tally_fingerprint()) * 1099511628211ull;
    return h;
  }

 private:
  static constexpr std::size_t kWorlds = 8;
  static constexpr std::size_t kCyclesPerWorld = 16;

  std::size_t cycles_;
  std::vector<std::unique_ptr<HealWorld>> worlds_;
};

}  // namespace

bool default_oracle(const std::string& workload) {
  return workload == "heal-cycles";
}

bool known_workload(const std::string& workload) {
  return std::find(kWorkloads.begin(), kWorkloads.end(), workload) !=
         kWorkloads.end();
}

std::unique_ptr<Workload> make_workload(const Params& p) {
  const bool tiny = p.size == Size::kTiny;
  if (p.workload == "fig2-dynamic") return std::make_unique<Fig2>(p);
  if (p.workload == "wan1000")
    return std::make_unique<Wan>(p, tiny ? 20 : 1'000, 10'000, 100'000,
                                 tiny ? 3 : 20);
  if (p.workload == "heal-cycles") return std::make_unique<HealCycles>(p);
  return nullptr;
}

std::unique_ptr<Workload> make_thread_check_world(const Params& p) {
  const bool tiny = p.size == Size::kTiny;
  return std::make_unique<Wan>(p, tiny ? 4 : 16, 2'000, 250'000, tiny ? 2 : 4);
}

}  // namespace perfbench
