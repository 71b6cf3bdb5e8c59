// Cross-module integration tests: the full SoCL pipeline against the exact
// optimum, the ILP optimizer, and the baselines on shared scenarios.
#include <gtest/gtest.h>

#include "baselines/gcog.h"
#include "baselines/jdr.h"
#include "baselines/random_provision.h"
#include "ilp/exact_solver.h"
#include "ilp/socl_ilp.h"
#include "workload/mobility.h"

namespace socl {
namespace {

using core::MsId;

core::ScenarioConfig paper_like_config(int nodes, int users, double budget) {
  core::ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  config.constants.budget = budget;
  return config;
}

TEST(Integration, FullPipelineOnPaperScales) {
  // 10 servers, 40 users, budget in the paper band — every algorithm must
  // return a routable, storage-feasible solution.
  const auto scenario = core::make_scenario(paper_like_config(10, 40, 6500),
                                            101);
  const auto socl = baselines::SoCLAlgorithm().solve(scenario);
  const auto rp = baselines::RandomProvision(1).solve(scenario);
  const auto jdr = baselines::Jdr().solve(scenario);
  for (const auto* solution : {&socl, &rp, &jdr}) {
    EXPECT_TRUE(solution->evaluation.routable);
    EXPECT_TRUE(solution->evaluation.within_budget);
  }
  EXPECT_TRUE(socl.evaluation.storage_ok);
}

TEST(Integration, ObjectiveOrderingMatchesPaperShape) {
  // Average over seeds: SoCL <= GC-OG <= max(RP, JDR) in objective.
  double socl_total = 0, gcog_total = 0, rp_total = 0, jdr_total = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto scenario =
        core::make_scenario(paper_like_config(8, 40, 6500), seed);
    socl_total += baselines::SoCLAlgorithm().solve(scenario)
                      .evaluation.objective;
    gcog_total += baselines::GreedyCombine().solve(scenario)
                      .evaluation.objective;
    rp_total += baselines::RandomProvision(seed).solve(scenario)
                    .evaluation.objective;
    jdr_total += baselines::Jdr().solve(scenario).evaluation.objective;
  }
  EXPECT_LT(socl_total, rp_total);
  EXPECT_LT(socl_total, jdr_total);
  EXPECT_LT(socl_total, 1.15 * gcog_total);  // close to greedy quality
}

TEST(Integration, SoclTracksExactOptimumOnMicroInstances) {
  // The paper reports <10% gaps vs Gurobi; on micro instances with the true
  // chain objective, SoCL should stay within ~35%.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    core::ScenarioConfig config = paper_like_config(3, 4, 3000);
    config.use_tiny_catalog = true;
    const auto scenario = core::make_scenario(config, seed);
    const auto exact = ilp::solve_exact(scenario);
    ASSERT_TRUE(exact.found);
    const auto socl = baselines::SoCLAlgorithm().solve(scenario);
    EXPECT_LE(exact.objective, socl.evaluation.objective + 1e-6);
    EXPECT_LT(socl.evaluation.objective, 1.35 * exact.objective);
  }
}

TEST(Integration, MipAgreesWithExactOnModelObjective) {
  // Compare the MIP optimum of the paper ILP with the exact chain solver on
  // a micro instance; the models price transfers differently, so compare
  // only qualitatively (same order of magnitude, MIP not absurdly off).
  core::ScenarioConfig config = paper_like_config(3, 4, 3000);
  config.use_tiny_catalog = true;
  const auto scenario = core::make_scenario(config, 4);
  const auto opt = ilp::solve_opt(scenario);
  const auto exact = ilp::solve_exact(scenario);
  ASSERT_TRUE(opt.mip.has_solution());
  ASSERT_TRUE(exact.found);
  EXPECT_LT(opt.solution.evaluation.objective, 2.0 * exact.objective);
  EXPECT_GT(opt.solution.evaluation.objective, 0.5 * exact.objective);
}

TEST(Integration, SoclRuntimeScalesGracefully) {
  const auto small = core::make_scenario(paper_like_config(10, 20, 6500), 7);
  const auto large = core::make_scenario(paper_like_config(30, 60, 7500), 7);
  const auto fast = baselines::SoCLAlgorithm().solve(small);
  const auto slow = baselines::SoCLAlgorithm().solve(large);
  EXPECT_LT(fast.runtime_seconds, 10.0);
  EXPECT_LT(slow.runtime_seconds, 60.0);
}

TEST(Integration, OnlineSlottedComparisonKeepsSoclAhead) {
  // Fig. 10 shape: over a mobility trace, SoCL's average latency stays at or
  // below RP's. Both algorithms replay the same seeded trace.
  const auto config = paper_like_config(8, 25, 6500);
  const auto trace_latency =
      [&](const baselines::ProvisioningAlgorithm& algorithm) {
        core::Scenario scenario = core::make_scenario(config, 900);
        util::Rng rng(11);
        util::Rng weight_rng(11 ^ 0xabcdULL);
        const auto weights = workload::attachment_weights(
            scenario.network().num_nodes(), config.requests, weight_rng);
        workload::MobilityConfig mobility;
        mobility.move_prob = 0.5;
        double total = 0.0;
        for (int slot = 0; slot < 6; ++slot) {
          auto requests = scenario.requests();
          workload::mobility_step(scenario.network(), requests, weights,
                                  mobility, rng);
          scenario.set_requests(std::move(requests));
          total += algorithm.solve(scenario).evaluation.mean_latency;
        }
        return total;
      };
  const double socl_latency = trace_latency(baselines::SoCLAlgorithm());
  const double rp_latency = trace_latency(baselines::RandomProvision(1));
  EXPECT_LE(socl_latency, rp_latency * 1.05);
}

TEST(Integration, DeadlineConstraintsHonouredWhenLoose) {
  core::ScenarioConfig config = paper_like_config(8, 30, 6500);
  config.requests.deadline_slack = 8.0;
  const auto scenario = core::make_scenario(config, 8);
  const auto solution = baselines::SoCLAlgorithm().solve(scenario);
  EXPECT_EQ(solution.evaluation.deadline_violations, 0);
}

TEST(Integration, BudgetSweepMonotonicCost) {
  // Across the paper's 5000-8000 budget band, SoCL's deployment cost must
  // stay within budget and weakly increase with budget.
  double prev_cost = 0.0;
  for (double budget : {5000.0, 6000.0, 7000.0, 8000.0}) {
    const auto scenario =
        core::make_scenario(paper_like_config(10, 40, budget), 9);
    const auto solution = baselines::SoCLAlgorithm().solve(scenario);
    EXPECT_LE(solution.evaluation.deployment_cost, budget + 1e-6);
    EXPECT_GE(solution.evaluation.deployment_cost, prev_cost * 0.5);
    prev_cost = solution.evaluation.deployment_cost;
  }
}

TEST(Integration, EveryAlgorithmKeepsServiceContinuity) {
  const auto scenario = core::make_scenario(paper_like_config(8, 35, 6000),
                                            10);
  for (const auto& solution :
       {baselines::SoCLAlgorithm().solve(scenario),
        baselines::RandomProvision(2).solve(scenario),
        baselines::Jdr().solve(scenario)}) {
    for (MsId m = 0; m < scenario.num_microservices(); ++m) {
      if (!scenario.demand_nodes(m).empty()) {
        EXPECT_GE(solution.placement.instance_count(m), 1);
      }
    }
  }
}

}  // namespace
}  // namespace socl
