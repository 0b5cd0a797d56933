// run_scenario: one deterministic adversarial episode. Build the world the
// scenario describes (oracle on), form a single LWG over every process,
// replay the scenario's fault schedule through ChaosMonkey with light
// application traffic and 100 ms availability sampling, quiesce, converge,
// and report availability / MTTR / oracle verdict.
#include <algorithm>

#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "lwg/lwg_user.hpp"

namespace plwg::harness {

ScenarioResult run_scenario(const Scenario& scenario, std::uint64_t seed) {
  ScenarioResult result;

  WorldConfig cfg;
  cfg.num_processes = scenario.processes;
  cfg.num_name_servers = scenario.name_servers;
  cfg.net.seed = seed;
  cfg.net.drop_probability = scenario.net_drop_probability;
  cfg.net.jitter_us = scenario.net_jitter_us;
  cfg.segments = scenario.segments;
  cfg.oracle = true;
  SimWorld world(cfg);
  const std::size_t n = world.num_processes();

  // Form one LWG over every process before any fault fires.
  lwg::NoopUser user;
  const LwgId id{1};
  result.formed = world.form_lwg(id, process_range(0, n), user);
  if (!result.formed) {
    result.failure = "group never formed before fault injection";
    result.digest = world.trace_digest();
    return result;
  }

  ChaosConfig chaos_cfg;
  chaos_cfg.seed = seed;
  chaos_cfg.random_faults = false;  // the scenario is the whole schedule
  ChaosMonkey chaos(world, chaos_cfg);
  chaos.load(scenario);

  // Fault phase: 100 ms sampling ticks. Each tick every alive process is
  // probed for availability (holds a view of the group) and one process
  // round-robin sends a small application message so the data path stays
  // exercised across every fault shape.
  constexpr Duration kSample = 100'000;
  std::uint64_t samples = 0, available = 0;
  std::size_t sender = 0;
  RejoinTracker rejoins(world, chaos, id);

  const Time fault_end = world.simulator().now() + scenario.run_us;
  while (world.simulator().now() < fault_end) {
    chaos.run_for(std::min<Duration>(kSample,
                                     fault_end - world.simulator().now()));
    rejoins.poll();
    for (std::size_t i = 0; i < n; ++i) {
      if (world.crashed(i)) continue;
      ++samples;
      if (world.lwg(i).view_of(id) != nullptr) ++available;
    }
    for (std::size_t tries = 0; tries < n; ++tries) {
      const std::size_t s = sender++ % n;
      if (world.crashed(s)) continue;
      if (world.lwg(s).view_of(id) != nullptr) {
        world.lwg(s).send(id, {0xAD, static_cast<std::uint8_t>(s)});
      }
      break;
    }
  }
  result.availability_pct =
      samples == 0 ? 0
                   : 100.0 * static_cast<double>(available) /
                         static_cast<double>(samples);

  // Heal everything (quiesce asserts the fault state fully drains) and
  // measure family MTTR: sim time from quiesce to global convergence.
  chaos.quiesce();
  const Time healed_at = world.simulator().now();
  result.converged = world.run_until(
      [&] { return world.convergence_failure().empty(); },
      scenario.converge_timeout_us);
  if (result.converged) {
    result.recovery_us = world.simulator().now() - healed_at;
    world.verify_convergence();
  } else {
    // The liveness oracle: a healthy post-quiesce network blowing the
    // convergence budget is a protocol wedge, not slowness. Name the stuck
    // nodes so the report is actionable.
    result.failure = "liveness: convergence timeout after quiesce ("
                     + world.convergence_failure() + ")\n"
                     + world.liveness_report();
    if (world.oracle_enabled()) {
      world.oracle().record_liveness_failure(result.failure);
    }
  }
  rejoins.poll();

  result.partitions = chaos.partitions_injected();
  result.crashes = chaos.crashes_injected();
  result.restarts = chaos.restarts_fired();
  result.link_faults = chaos.link_faults_injected();
  result.rejoins = rejoins.rejoins();
  result.mean_rejoin_ms = rejoins.mean_rejoin_ms();

  if (world.oracle_enabled()) {
    result.oracle_clean = world.oracle().clean();
    if (!result.oracle_clean && result.failure.empty()) {
      result.failure = world.oracle().report_json();
    }
    world.oracle().clear();  // reported through the result, not the backstop
  } else {
    result.oracle_clean = true;
  }
  result.digest = world.trace_digest();
  return result;
}

}  // namespace plwg::harness
