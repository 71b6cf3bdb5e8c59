// Equivalence tests for the exact incremental evaluator: every cached
// shortcut of the combiner's routing engine (objective_with_change /
// objective_without) must agree with a from-scratch serial_objective
// evaluation to numerical precision, for arbitrary single-service moves.
#include <gtest/gtest.h>

#include <cmath>

#include "core/combination.h"
#include "workload/catalog.h"

namespace socl::core {
namespace {

struct Fixture {
  Scenario scenario;
  Partitioning partitioning;
  Preprovisioning pre;
  Combiner combiner;

  explicit Fixture(std::uint64_t seed, int nodes = 8, int users = 30)
      : scenario(make_scenario(config_for(nodes, users), seed)),
        partitioning(initial_partition(scenario, {})),
        pre(preprovision(scenario, partitioning)),
        combiner(scenario, partitioning, {}) {}

  static ScenarioConfig config_for(int nodes, int users) {
    ScenarioConfig config;
    config.num_nodes = nodes;
    config.num_users = users;
    return config;
  }
};

TEST(Incremental, RemoveMatchesFullEvaluation) {
  Fixture fx(1);
  const Placement& base = fx.pre.placement;
  fx.combiner.engine().refresh(base);
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    if (base.instance_count(m) <= 1) continue;
    for (NodeId k = 0; k < fx.scenario.num_nodes(); ++k) {
      if (!base.deployed(m, k)) continue;
      Placement trial = base;
      trial.remove(m, k);
      const double incremental =
          fx.combiner.engine().objective_without(m, k, trial);
      const double full = fx.combiner.serial_objective(trial);
      EXPECT_NEAR(incremental, full, 1e-6) << "remove ms=" << m << " k=" << k;
    }
  }
}

TEST(Incremental, AddMatchesFullEvaluation) {
  Fixture fx(2);
  const Placement& base = fx.pre.placement;
  fx.combiner.engine().refresh(base);
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    if (fx.scenario.demand_nodes(m).empty()) continue;
    for (NodeId k = 0; k < fx.scenario.num_nodes(); ++k) {
      if (base.deployed(m, k)) continue;
      Placement trial = base;
      trial.deploy(m, k);
      const double incremental =
          fx.combiner.engine().objective_with_change(trial, m);
      const double full = fx.combiner.serial_objective(trial);
      EXPECT_NEAR(incremental, full, 1e-6) << "add ms=" << m << " k=" << k;
    }
  }
}

TEST(Incremental, RelocateMatchesFullEvaluation) {
  Fixture fx(3);
  const Placement& base = fx.pre.placement;
  fx.combiner.engine().refresh(base);
  int checked = 0;
  for (MsId m = 0; m < fx.scenario.num_microservices() && checked < 40; ++m) {
    for (NodeId from = 0; from < fx.scenario.num_nodes(); ++from) {
      if (!base.deployed(m, from)) continue;
      for (NodeId to = 0; to < fx.scenario.num_nodes(); ++to) {
        if (to == from || base.deployed(m, to)) continue;
        Placement trial = base;
        trial.remove(m, from);
        trial.deploy(m, to);
        const double incremental =
            fx.combiner.engine().objective_with_change(trial, m);
        const double full = fx.combiner.serial_objective(trial);
        EXPECT_NEAR(incremental, full, 1e-6)
            << "relocate ms=" << m << " " << from << "->" << to;
        ++checked;
        break;
      }
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(Incremental, CacheSumMatchesDirectObjective) {
  Fixture fx(4);
  fx.combiner.engine().refresh(fx.pre.placement);
  const double via_cache = fx.combiner.engine().objective_with_change(
      fx.pre.placement, /*changed=*/0);  // "change" with identical placement
  const double direct = fx.combiner.serial_objective(fx.pre.placement);
  EXPECT_NEAR(via_cache, direct, 1e-6);
}

TEST(Incremental, OrphaningRemovalIsInfinite) {
  Fixture fx(5);
  Placement base(fx.scenario);
  // Exactly one instance of each requested service.
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    if (!fx.scenario.demand_nodes(m).empty()) {
      base.deploy(m, fx.scenario.demand_nodes(m).front());
    }
  }
  fx.combiner.engine().refresh(base);
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    if (base.instance_count(m) != 1) continue;
    const NodeId k = base.nodes_of(m).front();
    Placement trial = base;
    trial.remove(m, k);
    EXPECT_TRUE(std::isinf(fx.combiner.engine().objective_without(m, k, trial)))
        << "ms " << m;
    break;
  }
}

TEST(Incremental, RepeatedChainRemovalDetectsLaterOccurrence) {
  // Chain {0, 1, 0}: the request visits microservice 0 twice and the DP
  // routes the two visits to different nodes. Removing the instance used
  // only by the SECOND visit must trigger a reroute — a check limited to
  // position_of's first occurrence would serve a stale cached latency.
  net::EdgeNetwork network;
  for (int i = 0; i < 3; ++i) network.add_node({});
  network.add_link_with_rate(0, 1, 10.0);
  network.add_link_with_rate(1, 2, 10.0);

  workload::UserRequest request;
  request.id = 0;
  request.attach_node = 0;
  request.chain = {0, 1, 0};
  // Heavy upload pins the first visit to the attach node; the heavy
  // m1 -> m0 edge pulls the second visit onto m1's node.
  request.edge_data = {1.0, 30.0};
  request.data_in = 50.0;
  request.data_out = 1.0;

  Scenario scenario(std::move(network), workload::tiny_catalog(), {request},
                    {});
  Partitioning partitioning = initial_partition(scenario, {});
  Combiner combiner(scenario, partitioning, {});

  Placement base(scenario);
  base.deploy(0, 0);
  base.deploy(0, 2);
  base.deploy(1, 2);
  combiner.engine().refresh(base);

  const auto& route = combiner.engine().cached_route(0);
  ASSERT_EQ(route.size(), 3u);
  ASSERT_EQ(route[0], 0) << "first visit should sit on the attach node";
  ASSERT_EQ(route[2], 2) << "second visit should co-locate with m1";

  Placement trial = base;
  trial.remove(0, 2);

  // The forced reroute genuinely changes the latency, so a stale cache
  // would produce a different objective than the full evaluation.
  RouteScratch scratch;
  const double rerouted =
      combiner.engine().router().route_cost(scenario.request(0), trial,
                                            scratch);
  ASSERT_GT(rerouted, combiner.engine().cached_latency(0) + 1e-9);

  const double incremental = combiner.engine().objective_without(0, 2, trial);
  const double full = combiner.serial_objective(trial);
  EXPECT_NEAR(incremental, full, 1e-9);
}

// Sweep: equivalence holds across seeds and scales.
class IncrementalSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(IncrementalSweep, RandomMovesAgree) {
  const auto [seed, nodes] = GetParam();
  Fixture fx(seed, nodes, 25);
  const Placement& base = fx.pre.placement;
  fx.combiner.engine().refresh(base);
  util::Rng rng(seed * 31);
  for (int trial = 0; trial < 15; ++trial) {
    const auto m = static_cast<MsId>(
        rng.index(static_cast<std::size_t>(fx.scenario.num_microservices())));
    const auto k = static_cast<NodeId>(
        rng.index(static_cast<std::size_t>(fx.scenario.num_nodes())));
    Placement altered = base;
    if (base.deployed(m, k)) {
      if (base.instance_count(m) <= 1) continue;
      altered.remove(m, k);
      EXPECT_NEAR(fx.combiner.engine().objective_without(m, k, altered),
                  fx.combiner.serial_objective(altered), 1e-6);
    } else if (!fx.scenario.demand_nodes(m).empty()) {
      altered.deploy(m, k);
      EXPECT_NEAR(fx.combiner.engine().objective_with_change(altered, m),
                  fx.combiner.serial_objective(altered), 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, IncrementalSweep,
    ::testing::Combine(::testing::Values(7u, 13u, 29u),
                       ::testing::Values(6, 10)));

}  // namespace
}  // namespace socl::core
