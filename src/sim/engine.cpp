#include "sim/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace plwg::sim {

namespace {

thread_local int tl_current_site = -1;
thread_local const Simulator* tl_current_sim = nullptr;

std::size_t threads_from_env() {
  const char* value = std::getenv("PLWG_SIM_THREADS");
  if (value == nullptr || *value == '\0') return 1;
  const long parsed = std::strtol(value, nullptr, 10);
  return parsed < 1 ? 1 : static_cast<std::size_t>(parsed);
}

/// RAII guard marking the calling thread as executing site `i`.
struct SiteScope {
  SiteScope(int i, const Simulator* sim) {
    tl_current_site = i;
    tl_current_sim = sim;
  }
  ~SiteScope() {
    tl_current_site = -1;
    tl_current_sim = nullptr;
  }
};

}  // namespace

Engine::Engine(std::size_t num_sites) : Engine(num_sites, Config{}) {}

Engine::Engine(std::size_t num_sites, Config config)
    : planner_(config.planner) {
  PLWG_ASSERT(num_sites >= 1);
  sites_.reserve(num_sites);
  for (std::size_t i = 0; i < num_sites; ++i) {
    sites_.push_back(std::make_unique<Simulator>());
  }
  outbox_.resize(num_sites);
  site_class_.assign(num_sites, 0);
  replan_base_.assign(num_sites, 0);
  window_base_.assign(num_sites, 0);
  const std::size_t requested =
      config.threads == 0 ? threads_from_env() : config.threads;
  threads_ = std::min(requested, num_sites);
  if (threads_ < 1) threads_ = 1;
  plan_ = planner_.enabled
              ? ShardPlanner::pack(std::vector<std::uint64_t>(num_sites, 1),
                                   site_class_, threads_)
              : ShardPlan::identity(num_sites);
  if (threads_ > 1) {
    workers_.reserve(threads_);
    for (std::size_t w = 0; w < threads_; ++w) {
      workers_.emplace_back([this, w] { worker_main(w); });
    }
    PLWG_INFO("engine", "sharded engine: ", num_sites, " sites in ",
              plan_.num_shards(), " shards on ", threads_, " threads",
              planner_.enabled ? "" : " (identity placement)");
  }
}

Engine::~Engine() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      pool_stop_ = true;
    }
    pool_work_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
}

void Engine::set_lookahead(Duration us) {
  PLWG_ASSERT_MSG(!running(), "lookahead change while the engine is running");
  PLWG_ASSERT(us >= 0);
  lookahead_ = us;
}

void Engine::add_barrier_hook(std::function<void()> hook) {
  PLWG_ASSERT(!running());
  barrier_hooks_.push_back(std::move(hook));
}

int Engine::current_site() { return tl_current_site; }

Time Engine::log_now() const {
  if (tl_current_sim != nullptr) return tl_current_sim->now();
  return now();
}

std::uint64_t Engine::shard_events_run(std::size_t s) const {
  std::uint64_t total = 0;
  for (std::size_t i : plan_.shard_sites[s]) {
    total += sites_[i]->total_events_run();
  }
  return total;
}

void Engine::begin_event_window() {
  PLWG_ASSERT(!running());
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    window_base_[i] = sites_[i]->total_events_run();
  }
}

std::uint64_t Engine::site_events_in_window(std::size_t i) const {
  return sites_[i]->total_events_run() - window_base_[i];
}

std::uint64_t Engine::shard_events_in_window(std::size_t s) const {
  std::uint64_t total = 0;
  for (std::size_t i : plan_.shard_sites[s]) total += site_events_in_window(i);
  return total;
}

void Engine::set_site_weights(const std::vector<std::uint64_t>& weights) {
  PLWG_ASSERT(!running());
  PLWG_ASSERT(weights.size() == sites_.size());
  if (!planner_.enabled) return;
  // Topology (re)definition: pack fresh from the static estimate. Not
  // counted as a replan — this is setup, not a load-driven move.
  plan_ = ShardPlanner::pack(weights, site_class_, threads_);
}

void Engine::set_site_classes(const std::vector<int>& classes) {
  PLWG_ASSERT(!running());
  PLWG_ASSERT(classes.size() == sites_.size());
  site_class_ = classes;
  if (!planner_.enabled) return;
  std::vector<std::uint64_t> weights(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    weights[i] = sites_[i]->total_events_run() - replan_base_[i];
  }
  bool changed = false;
  plan_ = ShardPlanner::retag(plan_, weights, site_class_, threads_, &changed);
  if (changed) {
    ++replan_count_;
    PLWG_DEBUG("engine", "reachability change split a shard: repacked into ",
               plan_.num_shards(), " shards");
  }
}

void Engine::maybe_replan() {
  if (!planner_.enabled || sites_.size() < 2) return;
  const Time t = now();
  if (t - last_replan_at_ < planner_.replan_interval_us) return;
  // Replan inputs are simulated-time facts only: per-site event counts over
  // the elapsed simulated interval. Identical at any thread count.
  std::vector<std::uint64_t> weights(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    weights[i] = sites_[i]->total_events_run() - replan_base_[i];
    replan_base_[i] = sites_[i]->total_events_run();
  }
  last_replan_at_ = t;
  bool changed = false;
  plan_ = ShardPlanner::replan(plan_, weights, site_class_, threads_,
                               planner_.imbalance_threshold, &changed);
  if (changed) {
    ++replan_count_;
    PLWG_DEBUG("engine", "replan #", replan_count_, " at t=", t, ": ",
               plan_.num_shards(), " shards");
  }
}

void Engine::post(std::size_t dst, Time t, UniqueFunction fn) {
  PLWG_ASSERT(dst < sites_.size());
  const int src = tl_current_site;
  if (src < 0) {
    // Driver thread, engine idle: inject directly.
    PLWG_ASSERT_MSG(!running(), "cross-site post from a non-site thread "
                                "while the engine is running");
    sites_[dst]->schedule_at(t, std::move(fn));
    return;
  }
  outbox_[static_cast<std::size_t>(src)].push_back(
      Posted{dst, t, std::move(fn)});
}

void Engine::drain_outboxes() {
  // Fixed (source site, post order) injection order — part of the
  // determinism contract (outboxes of sites that ran as islands are already
  // empty: their worker drained them in the same source order). Injections
  // are timestamped at or after the new horizon (the conservative-lookahead
  // guarantee), asserted here.
  const Time horizon = now();
  for (std::vector<Posted>& cell : outbox_) {
    for (Posted& p : cell) {
      PLWG_ASSERT_MSG(p.t >= horizon,
                      "cross-site event inside the closed window "
                      "(lookahead too large for the topology)");
      sites_[p.dst]->schedule_at(p.t, std::move(p.fn));
    }
    cell.clear();
  }
}

void Engine::drain_island_outboxes(std::size_t shard, Time window_end) {
  // Thread-local drain inside an island job: every destination must be a
  // site of the same shard (class purity guarantees no packet ever leaves a
  // reachability class), so the owning worker injects without any barrier.
  // Same (source site, post order) order as the driver's drain.
  for (std::size_t src : plan_.shard_sites[shard]) {
    std::vector<Posted>& cell = outbox_[src];
    for (Posted& p : cell) {
      PLWG_ASSERT_MSG(plan_.site_shard[p.dst] == shard,
                      "island leaked a packet outside its shard");
      PLWG_ASSERT_MSG(p.t >= window_end,
                      "cross-site event inside the closed island sub-window");
      sites_[p.dst]->schedule_at(p.t, std::move(p.fn));
    }
    cell.clear();
  }
}

std::size_t Engine::run_job(const Job& job) {
  const std::vector<std::size_t>& shard_sites = plan_.shard_sites[job.shard];
  std::size_t events = 0;
  if (!job.island) {
    // One lockstep window: the driver drains outboxes at the barrier.
    for (std::size_t i : shard_sites) {
      SiteScope scope(static_cast<int>(i), sites_[i].get());
      events += sites_[i]->run_until(job.end);
    }
    return events;
  }
  // Island: the whole reachability class is this one shard, so it owes the
  // rest of the world nothing and runs straight to the target. A multi-site
  // island still sub-windows at lookahead granularity — on the same window
  // grid a lockstep run would use, so injection times and orders (and hence
  // digests) are identical — but the "barriers" are thread-local drains.
  // A single-site island has no cross-site traffic at all: one plain run.
  const bool multi = shard_sites.size() > 1;
  Time local = job.start;
  bool ran = false;
  while (local < job.end || !ran) {
    const Time wend =
        multi ? std::min<Time>(job.end, local + lookahead_) : job.end;
    for (std::size_t i : shard_sites) {
      SiteScope scope(static_cast<int>(i), sites_[i].get());
      events += sites_[i]->run_until(wend);
    }
    local = wend;
    ran = true;
    drain_island_outboxes(job.shard, local);
    if (wend >= job.end) break;
  }
  return events;
}

std::size_t Engine::run_jobs_sequential() {
  std::size_t events = 0;
  for (const Job& job : jobs_) events += run_job(job);
  return events;
}

void Engine::worker_main(std::size_t w) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pool_mutex_);
      pool_work_.wait(lock,
                      [&] { return pool_stop_ || pool_generation_ != seen; });
      if (pool_stop_) return;
      seen = pool_generation_;
    }
    std::size_t events = 0;
    // Static strided job assignment: worker w runs jobs w, w+T, w+2T, …
    // Deterministic and analyzable — per-worker load is a pure function of
    // the plan and the jobs, which is what lets bench_shard_scaling compute
    // the achievable parallelism bound without trusting wall clocks.
    for (std::size_t j = w; j < jobs_.size(); j += threads_) {
      events += run_job(jobs_[j]);
    }
    {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      pool_events_ += events;
      if (--pool_pending_ == 0) pool_done_.notify_one();
    }
  }
}

std::size_t Engine::run_jobs_parallel() {
  std::size_t events = 0;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    pool_pending_ = threads_;
    pool_events_ = 0;
    ++pool_generation_;
  }
  pool_work_.notify_all();
  {
    std::unique_lock<std::mutex> lock(pool_mutex_);
    pool_done_.wait(lock, [&] { return pool_pending_ == 0; });
    events = pool_events_;
  }
  return events;
}

std::size_t Engine::run_until(Time target) {
  PLWG_ASSERT_MSG(!running(), "re-entrant Engine::run_until");
  if (target < now()) target = now();
  PLWG_ASSERT_MSG(sites_.size() == 1 || lookahead_ > 0,
                  "multi-site engine needs a positive lookahead "
                  "(set by sim::Network::set_segments)");
  running_.store(true, std::memory_order_relaxed);
  maybe_replan();

  // Split the plan's shards by scheduling mode: a shard that is its class's
  // only shard is an island (runs to `target` in one job); shards sharing a
  // class must lockstep in conservative windows.
  std::vector<std::size_t> islands;
  std::vector<std::size_t> lockstep;
  {
    std::map<int, std::size_t> class_shards;
    for (int cls : plan_.shard_class) ++class_shards[cls];
    for (std::size_t s = 0; s < plan_.num_shards(); ++s) {
      (class_shards[plan_.shard_class[s]] == 1 ? islands : lockstep)
          .push_back(s);
    }
  }

  std::size_t events = 0;
  bool first = true;
  bool ran_any = false;
  while (now() < target || !ran_any) {
    const Time window_end =
        lockstep.empty() ? target
                         : std::min<Time>(target, now() + lookahead_);
    jobs_.clear();
    if (first) {
      // Islands ride the first dispatch and run clear to the target; they
      // are listed first so the long jobs spread across workers.
      for (std::size_t s : islands) {
        jobs_.push_back(Job{s, now(), target, true});
      }
    }
    for (std::size_t s : lockstep) {
      jobs_.push_back(Job{s, now(), window_end, false});
    }
    events += (threads_ > 1 && jobs_.size() > 1) ? run_jobs_parallel()
                                                 : run_jobs_sequential();
    horizon_.store(window_end, std::memory_order_relaxed);
    drain_outboxes();
    first = false;
    ran_any = true;
    if (window_end >= target) break;
  }
  for (const auto& hook : barrier_hooks_) hook();
  running_.store(false, std::memory_order_relaxed);
  return events;
}

}  // namespace plwg::sim
