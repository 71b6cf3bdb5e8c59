// Tests for Scenario construction and the derived demand indices.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "net/failures.h"

namespace socl::core {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.num_nodes = 6;
  config.num_users = 20;
  return config;
}

TEST(Scenario, FactoryProducesConsistentInstance) {
  const auto scenario = make_scenario(small_config(), 1);
  EXPECT_EQ(scenario.num_nodes(), 6);
  EXPECT_EQ(scenario.num_users(), 20);
  EXPECT_EQ(scenario.num_microservices(), 12);
}

TEST(Scenario, DeterministicInSeed) {
  const auto a = make_scenario(small_config(), 7);
  const auto b = make_scenario(small_config(), 7);
  for (int h = 0; h < a.num_users(); ++h) {
    EXPECT_EQ(a.request(h).attach_node, b.request(h).attach_node);
    EXPECT_EQ(a.request(h).chain, b.request(h).chain);
  }
}

TEST(Scenario, DemandNodesMatchDemandCounts) {
  const auto scenario = make_scenario(small_config(), 3);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    const auto& nodes = scenario.demand_nodes(m);
    for (NodeId k = 0; k < scenario.num_nodes(); ++k) {
      const bool in_list =
          std::find(nodes.begin(), nodes.end(), k) != nodes.end();
      EXPECT_EQ(in_list, scenario.demand_count(m, k) > 0);
    }
  }
}

TEST(Scenario, DemandCountsSumToChainMemberships) {
  const auto scenario = make_scenario(small_config(), 4);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    int total = 0;
    for (NodeId k = 0; k < scenario.num_nodes(); ++k) {
      total += scenario.demand_count(m, k);
    }
    int expected = 0;
    for (const auto& request : scenario.requests()) {
      if (request.uses(m)) ++expected;
    }
    EXPECT_EQ(total, expected);
  }
}

TEST(Scenario, RequestInboundDataConvention) {
  const auto scenario = make_scenario(small_config(), 5);
  for (const auto& request : scenario.requests()) {
    EXPECT_DOUBLE_EQ(scenario.request_inbound_data(request, request.chain[0]),
                     request.data_in);
    if (request.chain.size() > 1) {
      EXPECT_DOUBLE_EQ(
          scenario.request_inbound_data(request, request.chain[1]),
          request.edge_data[0]);
    }
    for (MsId m = 0; m < scenario.num_microservices(); ++m) {
      if (!request.uses(m)) {
        EXPECT_DOUBLE_EQ(scenario.request_inbound_data(request, m), 0.0);
      }
    }
  }
}

TEST(Scenario, DemandDataAggregatesInboundVolumes) {
  const auto scenario = make_scenario(small_config(), 6);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    for (NodeId k = 0; k < scenario.num_nodes(); ++k) {
      double expected = 0.0;
      for (const auto& request : scenario.requests()) {
        if (request.attach_node == k) {
          expected += scenario.request_inbound_data(request, m);
        }
      }
      EXPECT_NEAR(scenario.demand_data(m, k), expected, 1e-9);
    }
  }
}

TEST(Scenario, SetRequestsReindexes) {
  auto scenario = make_scenario(small_config(), 8);
  auto requests = scenario.requests();
  for (auto& request : requests) request.attach_node = 0;
  scenario.set_requests(requests);
  // All demand now sits at node 0: V(m_i) is {0} for every requested m_i,
  // node 0 counts every chain membership, and every class attaches there.
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    int users = 0;
    for (const auto& request : scenario.requests()) {
      if (request.uses(m)) ++users;
    }
    EXPECT_EQ(scenario.demand_count(m, 0), users);
    EXPECT_EQ(scenario.demand_nodes(m),
              users > 0 ? std::vector<NodeId>{0} : std::vector<NodeId>{});
    for (NodeId k = 1; k < scenario.num_nodes(); ++k) {
      EXPECT_EQ(scenario.demand_count(m, k), 0);
    }
  }
  EXPECT_EQ(scenario.classes().num_users(), scenario.num_users());
  for (const auto& cls : scenario.classes().classes()) {
    EXPECT_EQ(scenario.request(cls.representative).attach_node, 0);
  }
}

TEST(Scenario, SetNetworkBumpsBothEpochsBothWays) {
  // Failure AND repair are substrate swaps: both must bump the substrate
  // epoch (replan trigger) and the workload epoch (route caches are
  // network-dependent), and a repair must restore routing on the exact
  // pre-failure substrate.
  auto scenario = make_scenario(small_config(), 13);
  const net::EdgeNetwork healthy = scenario.network();
  const std::uint64_t s0 = scenario.substrate_epoch();
  const std::uint64_t w0 = scenario.workload_epoch();
  const double healthy_rate = scenario.vlinks().rate(0, 1);

  net::FailurePlan plan;
  plan.failed_nodes.push_back(2);
  scenario.set_network(net::apply_failures(healthy, plan));
  EXPECT_EQ(scenario.substrate_epoch(), s0 + 1);
  EXPECT_EQ(scenario.workload_epoch(), w0 + 1);
  EXPECT_EQ(scenario.network().degree(2), 0u);

  scenario.set_network(healthy);  // repair: pristine copy, not empty plan
  EXPECT_EQ(scenario.substrate_epoch(), s0 + 2);
  EXPECT_EQ(scenario.workload_epoch(), w0 + 2);
  EXPECT_EQ(scenario.network().num_links(), healthy.num_links());
  EXPECT_DOUBLE_EQ(scenario.vlinks().rate(0, 1), healthy_rate);
}

TEST(Scenario, SetNetworkRejectsNodeCountChange) {
  auto scenario = make_scenario(small_config(), 14);
  net::EdgeNetwork bigger = scenario.network();
  bigger.add_node({});
  EXPECT_THROW(scenario.set_network(std::move(bigger)),
               std::invalid_argument);
}

TEST(Scenario, RejectsBadLambda) {
  ScenarioConfig config = small_config();
  config.constants.lambda = 1.5;
  EXPECT_THROW(make_scenario(config, 1), std::invalid_argument);
}

TEST(Scenario, TinyCatalogOption) {
  ScenarioConfig config = small_config();
  config.use_tiny_catalog = true;
  const auto scenario = make_scenario(config, 1);
  EXPECT_EQ(scenario.num_microservices(), 3);
}

}  // namespace
}  // namespace socl::core
