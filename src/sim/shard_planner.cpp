#include "sim/shard_planner.hpp"

#include <algorithm>
#include <map>

#include "util/assert.hpp"

namespace plwg::sim {

namespace {

std::uint64_t site_weight(const std::vector<std::uint64_t>& weights,
                          std::size_t site) {
  // A site with no measured events still needs a home and a nonzero cost
  // (running its empty window isn't free), so the floor is 1.
  return std::max<std::uint64_t>(1, weights[site]);
}

std::vector<std::uint64_t> shard_loads(const ShardPlan& plan,
                                       const std::vector<std::uint64_t>& weights) {
  std::vector<std::uint64_t> loads(plan.num_shards(), 0);
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    for (std::size_t site : plan.shard_sites[s]) {
      loads[s] += site_weight(weights, site);
    }
  }
  return loads;
}

}  // namespace

ShardPlan ShardPlan::identity(std::size_t num_sites) {
  ShardPlan plan;
  plan.shard_sites.resize(num_sites);
  plan.site_shard.resize(num_sites);
  plan.shard_class.assign(num_sites, 0);
  for (std::size_t i = 0; i < num_sites; ++i) {
    plan.shard_sites[i] = {i};
    plan.site_shard[i] = i;
  }
  return plan;
}

ShardPlan ShardPlanner::pack(const std::vector<std::uint64_t>& weights,
                             const std::vector<int>& site_class,
                             std::size_t budget) {
  const std::size_t n = weights.size();
  PLWG_ASSERT(site_class.size() == n);
  if (budget < 1) budget = 1;

  // Group sites by class. std::map keeps class iteration deterministic.
  std::map<int, std::vector<std::size_t>> classes;
  for (std::size_t i = 0; i < n; ++i) classes[site_class[i]].push_back(i);

  // Split the shard budget across classes proportionally to class weight:
  // every class gets at least one shard (an island must be runnable on its
  // own), remainders go to the heaviest classes first.
  std::uint64_t total_weight = 0;
  std::map<int, std::uint64_t> class_weight;
  for (const auto& [cls, sites] : classes) {
    std::uint64_t w = 0;
    for (std::size_t site : sites) w += site_weight(weights, site);
    class_weight[cls] = w;
    total_weight += w;
  }
  std::map<int, std::size_t> class_shards;
  std::size_t assigned = 0;
  for (const auto& [cls, sites] : classes) {
    const double share = static_cast<double>(class_weight[cls]) /
                         static_cast<double>(total_weight);
    std::size_t want = static_cast<std::size_t>(
        share * static_cast<double>(budget));
    want = std::clamp<std::size_t>(want, 1, sites.size());
    class_shards[cls] = want;
    assigned += want;
  }
  // Spend any leftover budget on the classes with the worst shard-to-weight
  // ratio (heaviest load per shard first; ties to the lower class id).
  while (assigned < budget) {
    int best_cls = 0;
    double best_load = -1.0;
    for (const auto& [cls, sites] : classes) {
      if (class_shards[cls] >= sites.size()) continue;
      const double per_shard = static_cast<double>(class_weight[cls]) /
                               static_cast<double>(class_shards[cls]);
      if (per_shard > best_load) {
        best_load = per_shard;
        best_cls = cls;
      }
    }
    if (best_load < 0) break;  // every class already one shard per site
    class_shards[best_cls]++;
    assigned++;
  }

  // LPT within each class: heaviest site first into the least-loaded shard.
  ShardPlan plan;
  plan.site_shard.assign(n, 0);
  for (const auto& [cls, sites] : classes) {
    const std::size_t base = plan.shard_sites.size();
    const std::size_t k = class_shards[cls];
    plan.shard_sites.insert(plan.shard_sites.end(), k, {});
    plan.shard_class.insert(plan.shard_class.end(), k, cls);
    std::vector<std::size_t> order = sites;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return site_weight(weights, a) > site_weight(weights, b);
                     });
    std::vector<std::uint64_t> loads(k, 0);
    for (std::size_t site : order) {
      std::size_t best = 0;
      for (std::size_t s = 1; s < k; ++s) {
        if (loads[s] < loads[best]) best = s;
      }
      loads[best] += site_weight(weights, site);
      plan.shard_sites[base + best].push_back(site);
      plan.site_shard[site] = base + best;
    }
  }
  // Ascending site order within a shard is the outbox drain order.
  for (auto& sites : plan.shard_sites) std::sort(sites.begin(), sites.end());
  return plan;
}

double ShardPlanner::imbalance(const ShardPlan& plan,
                               const std::vector<std::uint64_t>& weights) {
  if (plan.num_shards() < 2) return 1.0;
  const std::vector<std::uint64_t> loads = shard_loads(plan, weights);
  std::uint64_t sum = 0, max = 0;
  for (std::uint64_t l : loads) {
    sum += l;
    max = std::max(max, l);
  }
  if (sum == 0) return 1.0;
  const double mean = static_cast<double>(sum) /
                      static_cast<double>(loads.size());
  return static_cast<double>(max) / mean;
}

std::uint64_t ShardPlanner::max_shard_load(
    const ShardPlan& plan, const std::vector<std::uint64_t>& weights) {
  std::uint64_t max = 0;
  for (std::uint64_t l : shard_loads(plan, weights)) max = std::max(max, l);
  return max;
}

ShardPlan ShardPlanner::replan(const ShardPlan& current,
                               const std::vector<std::uint64_t>& weights,
                               const std::vector<int>& site_class,
                               std::size_t budget,
                               double imbalance_threshold, bool* changed) {
  if (changed != nullptr) *changed = false;
  if (imbalance(current, weights) <= imbalance_threshold) return current;
  ShardPlan fresh = pack(weights, site_class, budget);
  // Hysteresis: migrating sites costs every worker its cache residency, so
  // only accept a plan that strictly lowers the bottleneck.
  if (max_shard_load(fresh, weights) >= max_shard_load(current, weights)) {
    return current;
  }
  if (changed != nullptr) *changed = true;
  return fresh;
}

ShardPlan ShardPlanner::retag(const ShardPlan& current,
                              const std::vector<std::uint64_t>& weights,
                              const std::vector<int>& site_class,
                              std::size_t budget, bool* changed) {
  if (changed != nullptr) *changed = false;
  // Class-purity check under the new classes. Heals only merge classes, so
  // the grouping survives and only the tags refresh; a cut that splits a
  // shard forces a repack.
  ShardPlan retagged = current;
  for (std::size_t s = 0; s < current.num_shards(); ++s) {
    PLWG_ASSERT(!current.shard_sites[s].empty());
    const int cls = site_class[current.shard_sites[s][0]];
    for (std::size_t site : current.shard_sites[s]) {
      if (site_class[site] != cls) {
        if (changed != nullptr) *changed = true;
        return pack(weights, site_class, budget);
      }
    }
    retagged.shard_class[s] = cls;
  }
  return retagged;
}

}  // namespace plwg::sim
