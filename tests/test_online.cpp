// Tests for the online warm-start controller.
#include "core/online.h"

#include <gtest/gtest.h>

#include "net/failures.h"
#include "workload/mobility.h"

namespace socl::core {
namespace {

ScenarioConfig base_config(int nodes = 8, int users = 30) {
  ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  return config;
}

TEST(PlacementChurn, CountsSymmetricDifference) {
  Placement a(3, 4), b(3, 4);
  EXPECT_EQ(placement_churn(a, b), 0);
  a.deploy(0, 1);
  EXPECT_EQ(placement_churn(a, b), 1);
  b.deploy(0, 1);
  b.deploy(2, 3);
  EXPECT_EQ(placement_churn(a, b), 1);
}

TEST(OnlineSoCLTest, FirstStepIsFullResolve) {
  const auto scenario = make_scenario(base_config(), 1);
  OnlineSoCL online;
  OnlineStepStats stats;
  const auto solution = online.step(scenario, &stats);
  EXPECT_TRUE(stats.full_resolve);
  EXPECT_FALSE(stats.warm_start_used);
  EXPECT_TRUE(solution.evaluation.routable);
  EXPECT_TRUE(solution.evaluation.within_budget);
}

TEST(OnlineSoCLTest, SecondStepWarmStarts) {
  auto scenario = make_scenario(base_config(), 2);
  OnlineSoCL online;
  online.step(scenario);
  OnlineStepStats stats;
  const auto solution = online.step(scenario, &stats);
  EXPECT_TRUE(stats.warm_start_used);
  EXPECT_TRUE(solution.evaluation.routable);
  EXPECT_TRUE(solution.evaluation.within_budget);
  EXPECT_TRUE(solution.evaluation.storage_ok);
}

TEST(OnlineSoCLTest, IdenticalSlotHasLowChurn) {
  auto scenario = make_scenario(base_config(), 3);
  OnlineSoCL online;
  online.step(scenario);
  OnlineStepStats stats;
  online.step(scenario, &stats);
  // Unchanged demand: the warm start should keep the placement mostly
  // intact (polish may still nudge a couple of instances).
  EXPECT_LE(stats.churn, 6);
}

TEST(OnlineSoCLTest, TracksMobilityFeasibly) {
  auto scenario = make_scenario(base_config(), 4);
  util::Rng rng(5);
  util::Rng wrng(6);
  const auto weights = workload::attachment_weights(
      scenario.network().num_nodes(), {}, wrng);
  OnlineSoCL online;
  for (int slot = 0; slot < 8; ++slot) {
    auto requests = scenario.requests();
    workload::mobility_step(scenario.network(), requests, weights, {}, rng);
    scenario.set_requests(std::move(requests));
    OnlineStepStats stats;
    const auto solution = online.step(scenario, &stats);
    ASSERT_TRUE(solution.evaluation.routable) << "slot " << slot;
    ASSERT_TRUE(solution.evaluation.within_budget) << "slot " << slot;
    ASSERT_TRUE(solution.evaluation.storage_ok) << "slot " << slot;
  }
}

TEST(OnlineSoCLTest, WarmStartCheaperThanFullResolve) {
  auto scenario = make_scenario(base_config(10, 60), 7);
  OnlineSoCL online;
  OnlineStepStats stats;
  const auto cold = online.step(scenario, &stats);
  const double cold_time = cold.runtime_seconds;
  double warm_total = 0.0;
  int warm_count = 0;
  for (int slot = 0; slot < 4; ++slot) {
    const auto warm = online.step(scenario, &stats);
    if (stats.warm_start_used) {
      warm_total += warm.runtime_seconds;
      ++warm_count;
    }
  }
  if (warm_count > 0) {
    EXPECT_LT(warm_total / warm_count, cold_time * 1.5);
  }
}

TEST(OnlineSoCLTest, PeriodicFullResolve) {
  // Step i (0-based) is the cold start or a periodic re-solve whenever
  // i % period == 0; period 1 therefore re-solves on every step.
  auto scenario = make_scenario(base_config(), 8);
  for (const int period : {3, 1}) {
    OnlineParams params;
    params.full_resolve_period = period;
    OnlineSoCL online(params);
    for (int step = 0; step < 7; ++step) {
      OnlineStepStats stats;
      online.step(scenario, &stats);
      if (step % period == 0) {
        EXPECT_TRUE(stats.full_resolve)
            << "period " << period << ", step " << step;
      }
    }
  }
}

TEST(OnlineSoCLTest, ResetForgetsState) {
  auto scenario = make_scenario(base_config(), 9);
  OnlineSoCL online;
  online.step(scenario);
  online.reset();
  OnlineStepStats stats;
  online.step(scenario, &stats);
  EXPECT_TRUE(stats.full_resolve);
}

TEST(OnlineSoCLTest, PeriodZeroNeverFullResolvesAfterTheFirstSlot) {
  // full_resolve_period = 0 means "never": no periodic re-solve AND no
  // periodic staleness comparison (max(1, 0/3) == 1 would otherwise run a
  // fresh comparison solve every slot and flip on any stale warm start).
  // Even under heavy per-slot demand shifts, only the slot-1 cold start may
  // be a full resolve as long as the warm repair stays feasible.
  auto scenario = make_scenario(base_config(8, 40), 21);
  util::Rng rng(22);
  util::Rng wrng(23);
  const auto weights = workload::attachment_weights(
      scenario.network().num_nodes(), {}, wrng);
  workload::MobilityConfig churny;
  churny.move_prob = 0.9;
  churny.local_hop_prob = 0.1;
  OnlineParams params;
  params.full_resolve_period = 0;
  OnlineSoCL online(params);
  OnlineStepStats stats;
  online.step(scenario, &stats);
  EXPECT_TRUE(stats.full_resolve);
  for (int slot = 2; slot <= 9; ++slot) {
    auto requests = scenario.requests();
    workload::mobility_step(scenario.network(), requests, weights, churny,
                            rng);
    scenario.set_requests(std::move(requests));
    online.step(scenario, &stats);
    EXPECT_TRUE(stats.warm_start_used) << "slot " << slot;
    EXPECT_FALSE(stats.full_resolve) << "slot " << slot;
  }
}

TEST(OnlineSoCLTest, EqualObjectivesKeepTheWarmPlacementOnGuardSlots) {
  // The staleness comparison is strict (fresh · threshold < warm): on a
  // static scenario, where the warm start converges to (at least) the fresh
  // solve's objective, guard slots must keep the warm placement — ties
  // never churn instances back to the fresh solution.
  auto scenario = make_scenario(base_config(), 24);
  OnlineParams params;
  params.full_resolve_period = 12;  // guard cadence: every 4th slot
  OnlineSoCL online(params);
  online.step(scenario);
  OnlineStepStats stats;
  for (int slot = 2; slot <= 8; ++slot) {
    online.step(scenario, &stats);
    EXPECT_TRUE(stats.warm_start_used) << "slot " << slot;
    EXPECT_FALSE(stats.full_resolve) << "slot " << slot;
    if (slot >= 3) {
      EXPECT_EQ(stats.churn, 0) << "slot " << slot;
    }
  }
}

TEST(OnlineSoCLTest, ThresholdAtMostOneDisablesTheStalenessGuard) {
  // resolve_threshold <= 1.0 turns the guard off entirely: no comparison
  // solve runs, so even on guard-cadence slots the warm start is kept.
  auto scenario = make_scenario(base_config(8, 40), 25);
  util::Rng rng(26);
  util::Rng wrng(27);
  const auto weights = workload::attachment_weights(
      scenario.network().num_nodes(), {}, wrng);
  OnlineParams params;
  params.resolve_threshold = 1.0;
  params.full_resolve_period = 30;  // guard cadence 10; no periodic in range
  OnlineSoCL online(params);
  online.step(scenario);
  OnlineStepStats stats;
  for (int slot = 2; slot <= 11; ++slot) {
    auto requests = scenario.requests();
    workload::mobility_step(scenario.network(), requests, weights, {}, rng);
    scenario.set_requests(std::move(requests));
    online.step(scenario, &stats);
    EXPECT_TRUE(stats.warm_start_used) << "slot " << slot;
    EXPECT_FALSE(stats.full_resolve) << "slot " << slot;
  }
}

TEST(OnlineSoCLTest, ObjectiveStaysNearFreshSolve) {
  // Warm-started decisions must not drift far from what a from-scratch
  // solve achieves on the same slot.
  auto scenario = make_scenario(base_config(8, 40), 10);
  util::Rng rng(11);
  util::Rng wrng(12);
  const auto weights = workload::attachment_weights(
      scenario.network().num_nodes(), {}, wrng);
  OnlineSoCL online;
  for (int slot = 0; slot < 6; ++slot) {
    auto requests = scenario.requests();
    workload::mobility_step(scenario.network(), requests, weights, {}, rng);
    scenario.set_requests(std::move(requests));
    const auto online_solution = online.step(scenario);
    const auto fresh_solution = SoCL().solve(scenario);
    EXPECT_LT(online_solution.evaluation.objective,
              1.5 * fresh_solution.evaluation.objective)
        << "slot " << slot;
  }
}

// The step() contract: node ids and the catalog stay fixed, while links and
// capacities may degrade between calls (the chaos lane warm-starts across
// Scenario::set_network). A failed node is a husk with zero storage, so the
// warm repair must migrate its instances away and stay storage-feasible.
TEST(OnlineSoCLTest, WarmStepAfterNodeFailureVacatesTheFailedNode) {
  auto scenario = make_scenario(base_config(8, 40), 13);
  OnlineSoCL online;
  const Solution healthy = online.step(scenario);

  // Fail the busiest node whose loss keeps the survivors connected.
  net::NodeId failed = net::kInvalidNode;
  int busiest = 0;
  for (NodeId k = 0; k < scenario.num_nodes(); ++k) {
    int hosted = 0;
    for (MsId m = 0; m < scenario.num_microservices(); ++m) {
      if (healthy.placement.deployed(m, k)) ++hosted;
    }
    const net::FailurePlan candidate{{}, {k}};
    if (hosted > busiest &&
        net::survivors_connected(
            scenario.network(),
            net::failure_masks(scenario.network(), candidate))) {
      busiest = hosted;
      failed = k;
    }
  }
  ASSERT_NE(failed, net::kInvalidNode) << "no instance on a removable node";

  const net::FailurePlan plan{{}, {failed}};
  net::EdgeNetwork degraded = net::apply_failures(scenario.network(), plan);
  auto requests = scenario.requests();
  workload::reattach_users(degraded, plan.failed_nodes, requests);
  scenario.set_network(std::move(degraded));
  scenario.set_requests(std::move(requests));

  OnlineStepStats stats;
  const Solution after = online.step(scenario, &stats);
  EXPECT_TRUE(stats.warm_start_used);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    EXPECT_FALSE(after.placement.deployed(m, failed)) << "ms " << m;
  }
  EXPECT_TRUE(after.evaluation.storage_ok);
}

}  // namespace
}  // namespace socl::core
