// Tests for Algorithm 5: storage planning with the FuzzyAHP local demand
// factor and migrations to fastest-reachable nodes.
#include "core/storage_planning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "workload/catalog.h"

namespace socl::core {
namespace {

ScenarioConfig base_config(int nodes = 6, int users = 25) {
  ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  return config;
}

/// Hand-built substrate over the tiny catalog (φ = {1.0, 2.0, 1.5}):
/// nodes get the given storage capacities, consecutive nodes are linked,
/// and one user with the given chain attaches to node 0.
Scenario hand_scenario(const std::vector<double>& storage,
                       std::vector<workload::MsId> chain) {
  net::EdgeNetwork network;
  for (const double units : storage) {
    net::EdgeNode node;
    node.compute_gflops = 10.0;
    node.storage_units = units;
    network.add_node(node);
  }
  for (net::NodeId k = 0; k + 1 < static_cast<net::NodeId>(storage.size());
       ++k) {
    network.add_link_with_rate(k, k + 1, 50.0);
  }
  workload::UserRequest request;
  request.id = 0;
  request.attach_node = 0;
  request.chain = std::move(chain);
  request.edge_data.assign(request.chain.size() - 1, 1.0);
  return Scenario(std::move(network), workload::tiny_catalog(), {request},
                  ProblemConstants{});
}

TEST(OrderFactor, WeightsFirstHigherThanLast) {
  const auto scenario = make_scenario(base_config(), 1);
  // Find a node+ms where the service is the chain head for some user.
  bool checked = false;
  for (const auto& request : scenario.requests()) {
    const MsId head = request.chain.front();
    const double r = order_factor(scenario, head, request.attach_node);
    EXPECT_GT(r, 0.0);
    EXPECT_LE(r, 3.0);
    checked = true;
    break;
  }
  EXPECT_TRUE(checked);
}

TEST(OrderFactor, ZeroWithoutLocalUsers) {
  const auto scenario = make_scenario(base_config(), 2);
  // A microservice no local user requests at some node scores 0.
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    for (NodeId k = 0; k < scenario.num_nodes(); ++k) {
      if (scenario.demand_count(m, k) == 0) {
        EXPECT_DOUBLE_EQ(order_factor(scenario, m, k), 0.0);
        return;
      }
    }
  }
}

TEST(OrderFactor, CountsEveryOccurrenceInRepeatedChains) {
  // Chain [m0, m1, m0]: m0 is both the head (weight 3) and the tail
  // (weight 2) of the same request, m1 is interior (weight 1).
  // position_of() only sees the first occurrence, which used to score m0
  // as a pure head: (3·1)/1 = 3 instead of (3 + 2)/2 = 2.5.
  const auto scenario = hand_scenario({8.0, 8.0}, {0, 1, 0});
  EXPECT_DOUBLE_EQ(order_factor(scenario, 0, 0), 2.5);
  EXPECT_DOUBLE_EQ(order_factor(scenario, 1, 0), 1.0);
  // No users attach to node 1.
  EXPECT_DOUBLE_EQ(order_factor(scenario, 0, 1), 0.0);
}

TEST(StoragePlan, StuckEvictionReportsInfeasible) {
  // Aggregate capacity suffices (3 + 10 >= 2 * 4.5 is false — use 12):
  // node 0 (capacity 3) is overloaded, but every instance it could evict
  // already exists on node 1, so no migration target accepts anything and
  // the eviction loop must give up rather than spin or crash.
  const auto scenario = hand_scenario({3.0, 12.0}, {0, 1, 2});
  Placement placement(scenario);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    placement.deploy(m, 0);  // 4.5 units on a 3-unit node
    placement.deploy(m, 1);
  }
  const Placement before = placement;
  const auto result = plan_storage(scenario, placement);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(result.migrations.empty());
  EXPECT_EQ(placement, before);  // a stuck plan must not half-migrate
  EXPECT_FALSE(placement.storage_feasible(scenario));
}

TEST(StoragePlan, MigratesOntoEarlierIndexedNode) {
  // The overloaded node is the LAST one; relief targets have smaller ids.
  // Exercises the target loop's id-agnostic ordering (by channel rate).
  const auto scenario = hand_scenario({12.0, 12.0, 3.0}, {0, 1, 2});
  Placement placement(scenario);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    placement.deploy(m, 2);  // 4.5 units on the 3-unit node
  }
  const auto result = plan_storage(scenario, placement);
  EXPECT_TRUE(result.feasible);
  ASSERT_FALSE(result.migrations.empty());
  for (const auto& migration : result.migrations) {
    EXPECT_EQ(migration.from, 2);
    EXPECT_LT(migration.to, 2);
  }
  EXPECT_TRUE(placement.storage_feasible(scenario));
}

TEST(StoragePlan, FeasiblePlacementIsUntouched) {
  const auto scenario = make_scenario(base_config(), 3);
  Placement placement(scenario);
  placement.deploy(0, 0);
  placement.deploy(1, 1);
  const Placement before = placement;
  const auto result = plan_storage(scenario, placement);
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.migrations.empty());
  EXPECT_EQ(placement, before);
}

TEST(StoragePlan, RelievesOverloadedNode) {
  const auto scenario = make_scenario(base_config(), 4);
  Placement placement(scenario);
  // Overload node 0 far past its 4-8 unit capacity.
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    placement.deploy(m, 0);
  }
  const auto result = plan_storage(scenario, placement);
  EXPECT_TRUE(result.feasible);
  EXPECT_FALSE(result.migrations.empty());
  EXPECT_TRUE(placement.storage_feasible(scenario));
}

TEST(StoragePlan, PreservesInstanceCounts) {
  const auto scenario = make_scenario(base_config(), 5);
  Placement placement(scenario);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    placement.deploy(m, 0);
    placement.deploy(m, 1);
  }
  std::vector<int> before;
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    before.push_back(placement.instance_count(m));
  }
  plan_storage(scenario, placement);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    EXPECT_EQ(placement.instance_count(m),
              before[static_cast<std::size_t>(m)])
        << "migration must move, not delete";
  }
}

TEST(StoragePlan, MigrationsNeverDuplicateInstances) {
  const auto scenario = make_scenario(base_config(), 6);
  Placement placement(scenario);
  for (MsId m = 0; m < 6; ++m) {
    placement.deploy(m, 0);
    placement.deploy(m, 2);
  }
  const auto result = plan_storage(scenario, placement);
  for (const auto& migration : result.migrations) {
    EXPECT_TRUE(placement.deployed(migration.service, migration.to) ||
                // a later migration may have moved it again
                !placement.deployed(migration.service, migration.from));
  }
}

TEST(StoragePlan, ReportsInfeasibleWhenAggregateStorageShort) {
  // Force impossibility: deploy everything everywhere so total footprint
  // exceeds total capacity.
  ScenarioConfig config = base_config(4, 20);
  const auto scenario = make_scenario(config, 7);
  Placement placement(scenario);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    for (NodeId k = 0; k < scenario.num_nodes(); ++k) {
      placement.deploy(m, k);
    }
  }
  // 12 services x ~1.2 units > 4-8 units per node.
  const auto result = plan_storage(scenario, placement);
  EXPECT_FALSE(result.feasible);
}

TEST(LocalDemandFactors, ParallelToDeployedList) {
  const auto scenario = make_scenario(base_config(), 8);
  Placement placement(scenario);
  std::vector<MsId> deployed{0, 3, 5};
  for (const MsId m : deployed) placement.deploy(m, 0);
  const auto rho = local_demand_factors(scenario, placement, 0, deployed);
  ASSERT_EQ(rho.size(), deployed.size());
  for (double r : rho) {
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
  }
}

TEST(LocalDemandFactors, DemandDominatesRanking) {
  // A service with many local users should outrank one with none.
  const auto scenario = make_scenario(base_config(6, 60), 9);
  std::vector<int> users_at(static_cast<std::size_t>(scenario.num_nodes()), 0);
  for (const auto& request : scenario.requests()) {
    ++users_at[static_cast<std::size_t>(request.attach_node)];
  }
  const auto busiest = static_cast<NodeId>(
      std::max_element(users_at.begin(), users_at.end()) - users_at.begin());
  MsId popular = workload::kInvalidMs, unused = workload::kInvalidMs;
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    if (scenario.demand_count(m, busiest) > 3) popular = m;
    if (scenario.demand_count(m, busiest) == 0) unused = m;
  }
  if (popular == workload::kInvalidMs || unused == workload::kInvalidMs) {
    GTEST_SKIP() << "scenario lacks contrast at the busiest node";
  }
  Placement placement(scenario);
  placement.deploy(popular, busiest);
  placement.deploy(unused, busiest);
  const auto rho = local_demand_factors(scenario, placement, busiest,
                                        {popular, unused});
  EXPECT_GT(rho[0], rho[1]);
}

}  // namespace
}  // namespace socl::core
