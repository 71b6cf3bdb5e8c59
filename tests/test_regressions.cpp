// Regression tests for defects found (and fixed) during development. Each
// test documents the original failure mode so it cannot silently return.
#include <gtest/gtest.h>

#include "baselines/gcog.h"
#include "baselines/jdr.h"
#include "solver/mip.h"

namespace socl {
namespace {

// Regression: JDR deployed its feasibility floor AFTER spending the budget
// on replicas, forcing over-budget placements (8500 vs 6500 observed).
// The floor must be reserved first.
TEST(Regression, JdrStaysWithinBudget) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    core::ScenarioConfig config;
    config.num_nodes = 8;
    config.num_users = 30;
    config.constants.budget = 6500.0;
    const auto scenario = core::make_scenario(config, seed);
    const auto solution = baselines::Jdr().solve(scenario);
    EXPECT_LE(solution.evaluation.deployment_cost,
              config.constants.budget + 1e-6)
        << "seed " << seed;
  }
}

// Regression: the serial combination stage once banned every candidate
// because a storage overload inherited from the parallel stage re-triggered
// the same migration cascade on every Q'' evaluation — SoCL returned with
// 0 serial merges and ~40% worse objectives. Storage must be planned before
// the serial descent, and the descent must actually merge.
TEST(Regression, SerialStageActuallyCombines) {
  core::ScenarioConfig config;
  config.num_nodes = 8;
  config.num_users = 40;
  config.constants.budget = 6500.0;
  const auto scenario = core::make_scenario(config, 2);
  const auto partitioning = core::initial_partition(scenario, {});
  const auto pre = core::preprovision(scenario, partitioning);
  core::Combiner combiner(scenario, partitioning, {});
  core::CombinationStats stats;
  const auto placement = combiner.run(pre, &stats);
  // The pre-provisioning is far over budget on this seed; both stages must
  // contribute merges.
  EXPECT_GT(stats.parallel_removals, 0);
  EXPECT_LT(placement.total_instances(), pre.placement.total_instances());
  EXPECT_LE(placement.deployment_cost(scenario.catalog()),
            scenario.constants().budget + 1e-6);
}

// Documented behaviour (not a bug): GC-OG is storage-blind — its dense
// start violates Eq. (6) and it never repairs it. SoCL must stay feasible
// on the same scenario. If GC-OG ever becomes storage-aware this test
// flags the comparison notes in EXPERIMENTS.md for an update.
TEST(Regression, GcogStorageBlindnessDocumented) {
  core::ScenarioConfig config;
  config.num_nodes = 10;
  config.num_users = 120;
  config.constants.budget = 8000.0;
  const auto scenario = core::make_scenario(config, 8);
  const auto gcog = baselines::GreedyCombine().solve(scenario);
  const auto socl = baselines::SoCLAlgorithm().solve(scenario);
  EXPECT_TRUE(socl.evaluation.storage_ok);
  if (gcog.evaluation.storage_ok) {
    ADD_FAILURE() << "GC-OG became storage-feasible; update EXPERIMENTS.md "
                     "(Fig. 8 notes) and this test.";
  }
}

// Regression: the MIP node bound-stack was restored in application order,
// leaving intermediate overrides applied after repeated branching on one
// variable; must unwind to root values. Exercised by a model that forces
// repeated branching on general integers.
TEST(Regression, MipBoundRestoreAfterDeepBranching) {
  solver::Model model;
  // Two coupled general integers with a fractional-friendly LP optimum.
  model.add_variable(0.0, 7.0, -1.0, true);
  model.add_variable(0.0, 7.0, -1.0, true);
  model.add_constraint({{0, 2.0}, {1, 3.0}}, solver::Sense::kLe, 12.5);
  model.add_constraint({{0, 3.0}, {1, 2.0}}, solver::Sense::kLe, 12.5);
  const auto result = solve_mip(model);
  ASSERT_EQ(result.status, solver::SolveStatus::kOptimal);
  // Brute force: maximize x+y.
  double best = 0.0;
  for (int x = 0; x <= 7; ++x) {
    for (int y = 0; y <= 7; ++y) {
      if (2 * x + 3 * y <= 12.5 && 3 * x + 2 * y <= 12.5) {
        best = std::max(best, static_cast<double>(x + y));
      }
    }
  }
  EXPECT_NEAR(-result.objective, best, 1e-6);
}

// Regression: ζ was asserted non-negative, but a merge can reconnect users
// to a faster-compute node, making ζ legitimately negative. The combiner
// must accept such merges (they are strict wins).
TEST(Regression, NegativeZetaMergesAccepted) {
  core::ScenarioConfig config;
  config.num_nodes = 8;
  config.num_users = 30;
  const auto scenario = core::make_scenario(config, 6);
  const auto partitioning = core::initial_partition(scenario, {});
  const auto pre = core::preprovision(scenario, partitioning);
  core::Combiner combiner(scenario, partitioning, {});
  const auto losses = combiner.latency_losses(pre.placement);
  // No crash, finite values; some seeds produce negative entries and the
  // list must keep them at the front (gradient ascending).
  for (std::size_t i = 1; i < losses.size(); ++i) {
    EXPECT_LE(losses[i - 1].gradient, losses[i].gradient);
  }
}

}  // namespace
}  // namespace socl
