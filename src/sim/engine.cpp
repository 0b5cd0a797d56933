#include "sim/engine.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace plwg::sim {

Engine::Engine(std::size_t num_sites) {
  PLWG_ASSERT(num_sites >= 1);
  sites_.reserve(num_sites);
  for (std::size_t i = 0; i < num_sites; ++i) {
    sites_.push_back(std::make_unique<Simulator>());
  }
  outbox_.resize(num_sites);
}

void Engine::set_lookahead(Duration us) {
  PLWG_ASSERT_MSG(!running(), "lookahead change while the engine is running");
  PLWG_ASSERT(us >= 0);
  lookahead_ = us;
}

Time Engine::log_now() const {
  if (current_site_ >= 0) {
    return sites_[static_cast<std::size_t>(current_site_)]->now();
  }
  return now();
}

void Engine::post(std::size_t dst, Time t, UniqueFunction fn) {
  PLWG_ASSERT(dst < sites_.size());
  if (current_site_ < 0) {
    // Driver, engine idle: inject directly.
    PLWG_ASSERT_MSG(!running(), "cross-site post from outside a site's "
                                "events while the engine is running");
    sites_[dst]->schedule_at(t, std::move(fn));
    return;
  }
  outbox_[static_cast<std::size_t>(current_site_)].push_back(
      Posted{dst, t, std::move(fn)});
}

void Engine::drain_outboxes(Time window_end) {
  // Fixed (source site, post order) injection order — part of the
  // determinism contract.
  for (std::vector<Posted>& cell : outbox_) {
    for (Posted& p : cell) {
      PLWG_ASSERT_MSG(p.t >= window_end,
                      "cross-site event inside the closed sub-window "
                      "(lookahead too large for the topology)");
      sites_[p.dst]->schedule_at(p.t, std::move(p.fn));
    }
    cell.clear();
  }
}

std::size_t Engine::run_until(Time target) {
  PLWG_ASSERT_MSG(!running(), "re-entrant Engine::run_until");
  if (target < now()) target = now();
  const bool multi = sites_.size() > 1;
  PLWG_ASSERT_MSG(!multi || lookahead_ > 0,
                  "multi-site engine needs a positive lookahead "
                  "(set by sim::Network::set_segments)");
  running_ = true;
  std::size_t events = 0;
  Time local = now();
  do {
    const Time wend = multi ? std::min<Time>(target, local + lookahead_)
                            : target;
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      current_site_ = static_cast<int>(i);
      events += sites_[i]->run_until(wend);
    }
    current_site_ = -1;
    drain_outboxes(wend);
    local = wend;
  } while (local < target);
  horizon_ = target;
  running_ = false;
  return events;
}

}  // namespace plwg::sim
