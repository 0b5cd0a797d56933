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

Engine::Engine(std::size_t num_sites, std::size_t threads) {
  PLWG_ASSERT(num_sites >= 1);
  sites_.reserve(num_sites);
  for (std::size_t i = 0; i < num_sites; ++i) {
    sites_.push_back(std::make_unique<Simulator>());
  }
  outbox_.resize(num_sites);
  set_site_classes(std::vector<int>(num_sites, 0));
  const std::size_t requested = threads == 0 ? threads_from_env() : threads;
  threads_ = std::clamp<std::size_t>(requested, 1, num_sites);
  if (threads_ > 1) {
    workers_.reserve(threads_);
    for (std::size_t w = 0; w < threads_; ++w) {
      workers_.emplace_back([this, w] { worker_main(w); });
    }
    PLWG_INFO("engine", "multi-site engine: ", num_sites, " sites on ",
              threads_, " threads");
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

void Engine::set_site_classes(const std::vector<int>& classes) {
  PLWG_ASSERT(!running());
  PLWG_ASSERT(classes.size() == sites_.size());
  site_class_ = classes;
  std::map<int, std::vector<std::size_t>> by_label;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    by_label[classes[i]].push_back(i);
  }
  class_sites_.clear();
  for (auto& [label, sites] : by_label) class_sites_.push_back(std::move(sites));
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

void Engine::drain_class_outboxes(std::size_t c, Time window_end) {
  // Every destination must be a site of the same class (the network never
  // addresses a packet outside the sender's class), so the job injects
  // without any barrier, in fixed (source site, post order) order — part of
  // the determinism contract.
  for (std::size_t src : class_sites_[c]) {
    std::vector<Posted>& cell = outbox_[src];
    for (Posted& p : cell) {
      PLWG_ASSERT_MSG(site_class_[p.dst] == site_class_[src],
                      "class job leaked a packet outside its class");
      PLWG_ASSERT_MSG(p.t >= window_end,
                      "cross-site event inside the closed sub-window "
                      "(lookahead too large for the topology)");
      sites_[p.dst]->schedule_at(p.t, std::move(p.fn));
    }
    cell.clear();
  }
}

std::size_t Engine::run_class(std::size_t c) {
  // The class owes the rest of the world nothing and runs straight to the
  // target. A multi-site class sub-windows at lookahead granularity from the
  // horizon, draining its own outboxes after each sub-window; a single-site
  // class has no cross-site traffic at all: one plain run.
  const std::vector<std::size_t>& class_sites = class_sites_[c];
  const bool multi = class_sites.size() > 1;
  std::size_t events = 0;
  Time local = now();
  do {
    const Time wend =
        multi ? std::min<Time>(target_, local + lookahead_) : target_;
    for (std::size_t i : class_sites) {
      SiteScope scope(static_cast<int>(i), sites_[i].get());
      events += sites_[i]->run_until(wend);
    }
    drain_class_outboxes(c, wend);
    local = wend;
  } while (local < target_);
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
    // Static strided assignment: worker w runs classes w, w+T, w+2T, …
    std::size_t events = 0;
    for (std::size_t c = w; c < class_sites_.size(); c += threads_) {
      events += run_class(c);
    }
    {
      std::lock_guard<std::mutex> lock(pool_mutex_);
      pool_events_ += events;
      if (--pool_pending_ == 0) pool_done_.notify_one();
    }
  }
}

std::size_t Engine::run_classes_parallel() {
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    pool_pending_ = threads_;
    pool_events_ = 0;
    ++pool_generation_;
  }
  pool_work_.notify_all();
  std::unique_lock<std::mutex> lock(pool_mutex_);
  pool_done_.wait(lock, [&] { return pool_pending_ == 0; });
  return pool_events_;
}

std::size_t Engine::run_until(Time target) {
  PLWG_ASSERT_MSG(!running(), "re-entrant Engine::run_until");
  if (target < now()) target = now();
  PLWG_ASSERT_MSG(sites_.size() == 1 || lookahead_ > 0,
                  "multi-site engine needs a positive lookahead "
                  "(set by sim::Network::set_segments)");
  running_.store(true, std::memory_order_relaxed);
  target_ = target;
  std::size_t events = 0;
  if (threads_ > 1 && class_sites_.size() > 1) {
    events = run_classes_parallel();
  } else {
    for (std::size_t c = 0; c < class_sites_.size(); ++c) {
      events += run_class(c);
    }
  }
  horizon_.store(target, std::memory_order_relaxed);
  for (const auto& hook : barrier_hooks_) hook();
  running_.store(false, std::memory_order_relaxed);
  return events;
}

}  // namespace plwg::sim
