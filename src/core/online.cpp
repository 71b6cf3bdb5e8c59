#include "core/online.h"

#include "core/storage_planning.h"
#include "util/timer.h"

namespace socl::core {

int placement_churn(const Placement& a, const Placement& b) {
  int churn = 0;
  const int services = std::min(a.num_microservices(), b.num_microservices());
  const int nodes = std::min(a.num_nodes(), b.num_nodes());
  for (MsId m = 0; m < services; ++m) {
    for (NodeId k = 0; k < nodes; ++k) {
      if (a.deployed(m, k) != b.deployed(m, k)) ++churn;
    }
  }
  return churn;
}

PlacementDelta placement_delta(const Placement& prev, const Placement& next) {
  PlacementDelta delta;
  const int services =
      std::min(prev.num_microservices(), next.num_microservices());
  const int nodes = std::min(prev.num_nodes(), next.num_nodes());
  for (MsId m = 0; m < services; ++m) {
    for (NodeId k = 0; k < nodes; ++k) {
      const bool before = prev.deployed(m, k);
      const bool after = next.deployed(m, k);
      if (!before && after) delta.added.emplace_back(m, k);
      if (before && !after) delta.removed.emplace_back(m, k);
    }
  }
  return delta;
}

Solution OnlineSoCL::step(const Scenario& scenario, OnlineStepStats* stats) {
  util::WallTimer timer;
  OnlineStepStats local;
  ++slot_;

  const bool periodic_resolve =
      params_.full_resolve_period > 0 &&
      (slot_ - 1) % params_.full_resolve_period == 0 && slot_ > 1;

  Solution solution{Placement(scenario), std::nullopt, {}, 0.0, {}};
  bool solved = false;

  if (previous_ && !periodic_resolve &&
      previous_->num_microservices() == scenario.num_microservices() &&
      previous_->num_nodes() == scenario.num_nodes()) {
    // Warm start: repair the carried placement for the new demand.
    Placement warm = *previous_;

    // Coverage repair: newly requested services need at least one instance;
    // services no longer requested are torn down.
    for (MsId m = 0; m < scenario.num_microservices(); ++m) {
      const bool requested = !scenario.demand_nodes(m).empty();
      if (requested && warm.instance_count(m) == 0) {
        warm.deploy(m, scenario.demand_nodes(m).front());
      } else if (!requested && warm.instance_count(m) > 0) {
        for (const NodeId k : warm.nodes_of(m)) warm.remove(m, k);
      }
    }
    plan_storage(scenario, warm);

    // Refine with the screened combiner machinery (budget-forced descent if
    // the repair pushed the cost over, then local-search polish).
    const Partitioning partitioning =
        params_.socl.use_partition
            ? initial_partition(scenario, params_.socl.partition)
            : single_group_partitioning(scenario);
    Combiner combiner(scenario, partitioning, params_.socl.combination);
    combiner.descend_to_budget(warm);
    combiner.polish(warm);

    const Evaluator evaluator(scenario);
    auto assignment = evaluator.router().route_all(warm);
    if (assignment) {
      const auto eval = evaluator.evaluate(warm, *assignment);
      if (eval.within_budget && eval.storage_ok) {
        solution.placement = warm;
        solution.assignment = std::move(assignment);
        solution.evaluation = eval;
        local.warm_start_used = true;
        solved = true;
      }
    }
  }

  if (!solved) {
    solution = SoCL(params_.socl).solve(scenario);
    local.full_resolve = true;
  }

  // Staleness guard: when the warm-started objective drifts beyond the
  // tolerance of what a fresh solve achieves, pay for the full solve and
  // keep the better decision. Periodic full re-solves bound long-run drift.
  // The guard runs on a cadence derived from full_resolve_period; period 0
  // ("never") disables it too — otherwise max(1, 0/3) would silently run a
  // fresh comparison solve on every slot, defeating the point of "never".
  // The drift comparison is strict-<, so exactly-equal objectives (a warm
  // start that converged to the fresh solution) always keep the warm
  // placement and its zero churn.
  if (local.warm_start_used && params_.resolve_threshold > 1.0 &&
      params_.full_resolve_period > 0 &&
      slot_ % std::max(1, params_.full_resolve_period / 3) == 0) {
    const Solution fresh = SoCL(params_.socl).solve(scenario);
    if (fresh.evaluation.objective * params_.resolve_threshold <
        solution.evaluation.objective) {
      solution = fresh;
      local.warm_start_used = false;
      local.full_resolve = true;
    }
  }

  if (previous_) {
    local.churn = placement_churn(*previous_, solution.placement);
  }
  previous_ = solution.placement;
  solution.runtime_seconds = timer.elapsed_seconds();
  if (stats != nullptr) *stats = local;
  return solution;
}

}  // namespace socl::core
