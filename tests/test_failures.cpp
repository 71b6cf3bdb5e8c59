// Tests for failure injection and SoCL's re-provisioning resilience.
#include "net/failures.h"

#include <gtest/gtest.h>

#include "core/socl.h"
#include "net/shortest_path.h"
#include "net/topology.h"
#include "workload/mobility.h"
#include "workload/request_gen.h"

namespace socl::net {
namespace {

TEST(ApplyFailures, EmptyPlanIsIdentity) {
  const auto network = make_topology(8, 1);
  const auto degraded = apply_failures(network, {});
  EXPECT_EQ(degraded.num_nodes(), network.num_nodes());
  EXPECT_EQ(degraded.num_links(), network.num_links());
}

TEST(ApplyFailures, FailedLinkRemoved) {
  const auto network = make_topology(8, 2);
  FailurePlan plan;
  plan.failed_links.push_back(0);
  const auto degraded = apply_failures(network, plan);
  EXPECT_EQ(degraded.num_links(), network.num_links() - 1);
  const auto& dead = network.link(0);
  EXPECT_FALSE(degraded.has_link(dead.a, dead.b));
}

TEST(ApplyFailures, FailedNodeIsolatedAndZeroed) {
  const auto network = make_topology(8, 3);
  FailurePlan plan;
  plan.failed_nodes.push_back(2);
  const auto degraded = apply_failures(network, plan);
  EXPECT_EQ(degraded.num_nodes(), network.num_nodes());  // ids stable
  EXPECT_EQ(degraded.degree(2), 0u);
  EXPECT_DOUBLE_EQ(degraded.node(2).storage_units, 0.0);
  EXPECT_LT(degraded.node(2).compute_gflops, 1e-3);
}

TEST(ApplyFailures, RejectsBadIds) {
  const auto network = make_topology(4, 4);
  FailurePlan plan;
  plan.failed_nodes.push_back(9);
  EXPECT_THROW(apply_failures(network, plan), std::out_of_range);
  plan.failed_nodes.clear();
  plan.failed_links.push_back(999);
  EXPECT_THROW(apply_failures(network, plan), std::out_of_range);
}

TEST(SurvivorsConnected, DetectsPartition) {
  // Path 0-1-2: failing the middle node partitions the survivors.
  EdgeNetwork network;
  for (int i = 0; i < 3; ++i) network.add_node({});
  network.add_link_with_rate(0, 1, 5.0);
  network.add_link_with_rate(1, 2, 5.0);
  FailurePlan plan;
  plan.failed_nodes.push_back(1);
  const auto degraded = apply_failures(network, plan);
  EXPECT_FALSE(survivors_connected(degraded, plan.failed_nodes));
}

TEST(RandomFailures, ConnectivityGuardHolds) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto network = make_topology(12, seed);
    util::Rng rng(seed * 13);
    const auto plan = random_failures(network, 0.2, 2, rng,
                                      /*keep_survivors_connected=*/true);
    const auto degraded = apply_failures(network, plan);
    EXPECT_TRUE(survivors_connected(degraded, plan.failed_nodes))
        << "seed " << seed;
  }
}

TEST(RandomFailures, Deterministic) {
  const auto network = make_topology(10, 5);
  util::Rng a(9), b(9);
  const auto plan_a = random_failures(network, 0.3, 2, a);
  const auto plan_b = random_failures(network, 0.3, 2, b);
  EXPECT_EQ(plan_a.failed_links, plan_b.failed_links);
  EXPECT_EQ(plan_a.failed_nodes, plan_b.failed_nodes);
}

TEST(FailoverTargets, NearestSurvivorChosen) {
  const auto network = make_topology(8, 6);
  FailurePlan plan;
  plan.failed_nodes.push_back(0);
  const auto degraded = apply_failures(network, plan);
  const auto targets = failover_targets(degraded, plan.failed_nodes);
  ASSERT_NE(targets[0], kInvalidNode);
  EXPECT_NE(targets[0], 0);
  // No healthy node entries.
  for (NodeId k = 1; k < 8; ++k) EXPECT_EQ(targets[k], kInvalidNode);
}

TEST(SurvivorsConnected, VacuousForAllFailedAndEmpty) {
  const auto network = make_topology(5, 21);
  FailurePlan plan;
  for (NodeId k = 0; k < 5; ++k) plan.failed_nodes.push_back(k);
  const auto degraded = apply_failures(network, plan);
  EXPECT_TRUE(survivors_connected(degraded, plan.failed_nodes));
  EXPECT_TRUE(survivors_connected(EdgeNetwork{}, std::vector<NodeId>{}));
}

TEST(SurvivorsConnected, MaskOverloadMatchesDegradedNetwork) {
  // The mask overload on the original network must agree with the legacy
  // check on the materialised degraded network for arbitrary plans.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto network = make_topology(10, seed);
    util::Rng rng(seed * 7);
    const auto plan = random_failures(network, 0.3, 3, rng,
                                      /*keep_survivors_connected=*/false);
    const auto degraded = apply_failures(network, plan);
    EXPECT_EQ(survivors_connected(network, failure_masks(network, plan)),
              survivors_connected(degraded, plan.failed_nodes))
        << "seed " << seed;
  }
}

TEST(RandomFailures, EmptyNetworkYieldsEmptyPlan) {
  util::Rng rng(3);
  const auto plan = random_failures(EdgeNetwork{}, 0.9, 4, rng);
  EXPECT_TRUE(plan.empty());
}

TEST(RandomFailures, GuardExhaustionOnPathGraph) {
  // On a path every link is a bridge: with the guard on, no link failure
  // can be accepted even at probability 1 — the plan comes back empty.
  EdgeNetwork network;
  for (int i = 0; i < 4; ++i) network.add_node({});
  for (NodeId k = 0; k + 1 < 4; ++k) network.add_link_with_rate(k, k + 1, 5.0);
  util::Rng rng(17);
  const auto plan = random_failures(network, 1.0, 0, rng,
                                    /*keep_survivors_connected=*/true);
  EXPECT_TRUE(plan.failed_links.empty());
  // With the guard off the same draws take every link.
  util::Rng rng2(17);
  const auto wild = random_failures(network, 1.0, 0, rng2,
                                    /*keep_survivors_connected=*/false);
  EXPECT_EQ(wild.failed_links.size(), 3u);
}

TEST(FailoverTargets, SkipsLinkIsolatedSurvivors) {
  // Regression (ISSUE 10): the geometric-nearest survivor of a failed node
  // can itself be stripped of every link — users re-homed there would be
  // unreachable. Node 1 is nearest to the failed node 0 but loses its only
  // remaining link; the target must be the linked node 2 instead.
  EdgeNetwork network;
  network.add_node({.x_m = 0.0, .y_m = 0.0});   // 0: fails
  network.add_node({.x_m = 1.0, .y_m = 0.0});   // 1: survives, isolated
  network.add_node({.x_m = 5.0, .y_m = 0.0});   // 2: survives, linked
  network.add_node({.x_m = 6.0, .y_m = 0.0});   // 3: survives, linked
  network.add_link_with_rate(0, 1, 5.0);        // dies with node 0
  const LinkId bridge = network.add_link_with_rate(1, 2, 5.0);
  network.add_link_with_rate(2, 3, 5.0);
  FailurePlan plan;
  plan.failed_nodes.push_back(0);
  plan.failed_links.push_back(bridge);
  const auto degraded = apply_failures(network, plan);
  const auto targets = failover_targets(degraded, plan.failed_nodes);
  EXPECT_EQ(targets[0], 2);  // not the isolated node 1
  // The isolated-but-alive node 1 displaces its users too.
  EXPECT_EQ(targets[1], 2);
  EXPECT_EQ(targets[2], kInvalidNode);
  EXPECT_EQ(targets[3], kInvalidNode);
}

TEST(FailoverTargets, IsolatedFallbackWhenNoLinkedSurvivor) {
  // Every survivor lost its links: a failed node still gets the nearest
  // isolated survivor (local-only service beats stranding), while isolated
  // survivors themselves stay put.
  EdgeNetwork network;
  network.add_node({.x_m = 0.0, .y_m = 0.0});
  network.add_node({.x_m = 1.0, .y_m = 0.0});
  network.add_node({.x_m = 3.0, .y_m = 0.0});
  network.add_link_with_rate(0, 1, 5.0);
  network.add_link_with_rate(0, 2, 5.0);
  FailurePlan plan;
  plan.failed_nodes.push_back(0);  // takes every link with it
  const auto degraded = apply_failures(network, plan);
  const auto targets = failover_targets(degraded, plan.failed_nodes);
  EXPECT_EQ(targets[0], 1);  // nearest survivor, degree notwithstanding
  EXPECT_EQ(targets[1], kInvalidNode);
  EXPECT_EQ(targets[2], kInvalidNode);
}

TEST(FailoverTargets, AcrossDisconnectedSurvivorComponents) {
  // Two survivor components after a cut: displaced users go to the nearest
  // LINKED survivor even if an isolated one is closer; survivors in the
  // far component are valid targets too.
  EdgeNetwork network;
  network.add_node({.x_m = 0.0, .y_m = 0.0});    // 0: fails
  network.add_node({.x_m = 2.0, .y_m = 0.0});    // 1: component A
  network.add_node({.x_m = 3.0, .y_m = 0.0});    // 2: component A
  network.add_node({.x_m = 10.0, .y_m = 0.0});   // 3: component B
  network.add_node({.x_m = 11.0, .y_m = 0.0});   // 4: component B
  network.add_link_with_rate(0, 1, 5.0);
  network.add_link_with_rate(1, 2, 5.0);
  network.add_link_with_rate(3, 4, 5.0);
  FailurePlan plan;
  plan.failed_nodes.push_back(0);
  const auto degraded = apply_failures(network, plan);
  EXPECT_FALSE(survivors_connected(degraded, plan.failed_nodes));
  const auto targets = failover_targets(degraded, plan.failed_nodes);
  EXPECT_EQ(targets[0], 1);
  for (NodeId k = 1; k < 5; ++k) EXPECT_EQ(targets[k], kInvalidNode);
}

TEST(ReattachUsers, MovesOnlyAffectedUsers) {
  const auto network = make_topology(8, 7);
  workload::RequestGenConfig gen;
  gen.num_users = 40;
  auto requests = workload::generate_requests(
      network, workload::eshop_catalog(), gen, 8);
  FailurePlan plan;
  plan.failed_nodes.push_back(requests.front().attach_node);
  const auto degraded = apply_failures(network, plan);
  const auto before = requests;
  workload::reattach_users(degraded, plan.failed_nodes, requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (before[i].attach_node == plan.failed_nodes.front()) {
      EXPECT_NE(requests[i].attach_node, plan.failed_nodes.front());
    } else {
      EXPECT_EQ(requests[i].attach_node, before[i].attach_node);
    }
  }
}

TEST(ReattachUsers, CountsAndMovesLinkIsolatedUsers) {
  // A user on an alive-but-isolated station is displaced too (counting
  // only dead attach nodes would miss it), and the return value is the
  // honest moved count.
  EdgeNetwork network;
  network.add_node({.x_m = 0.0, .y_m = 0.0});
  network.add_node({.x_m = 1.0, .y_m = 0.0});
  network.add_node({.x_m = 5.0, .y_m = 0.0});
  network.add_node({.x_m = 6.0, .y_m = 0.0});
  network.add_link_with_rate(0, 1, 5.0);
  const LinkId bridge = network.add_link_with_rate(1, 2, 5.0);
  network.add_link_with_rate(2, 3, 5.0);
  workload::RequestGenConfig gen;
  gen.num_users = 12;
  auto requests = workload::generate_requests(
      network, workload::eshop_catalog(), gen, 23);
  // Pin: one user on the dying node, one on the to-be-isolated node.
  requests[0].attach_node = 0;
  requests[1].attach_node = 1;
  for (std::size_t i = 2; i < requests.size(); ++i) {
    requests[i].attach_node = 2;
  }
  FailurePlan plan;
  plan.failed_nodes.push_back(0);
  plan.failed_links.push_back(bridge);
  const auto degraded = apply_failures(network, plan);
  const int moved = workload::reattach_users(degraded, plan.failed_nodes,
                                             requests);
  EXPECT_EQ(moved, 2);  // the dead-node user AND the isolated-node user
  EXPECT_EQ(requests[0].attach_node, 2);
  EXPECT_EQ(requests[1].attach_node, 2);
}

TEST(ReattachUsers, SingleNodeNetworkStaysPut) {
  // A legitimate one-node network has no links at all; nothing is failed,
  // so nobody moves and nothing throws.
  EdgeNetwork network;
  network.add_node({});
  workload::RequestGenConfig gen;
  gen.num_users = 3;
  auto requests = workload::generate_requests(
      network, workload::eshop_catalog(), gen, 29);
  EXPECT_EQ(workload::reattach_users(network, {}, requests), 0);
}

TEST(Resilience, SoclReprovisionsAfterNodeFailure) {
  // End-to-end drill: solve, fail a node, re-attach, re-solve — the new
  // decision must be feasible and place nothing on the dead server.
  core::ScenarioConfig config;
  config.num_nodes = 10;
  config.num_users = 40;
  const auto healthy = core::make_scenario(config, 9);
  const auto before = core::SoCL().solve(healthy);
  ASSERT_TRUE(before.evaluation.feasible());

  util::Rng rng(10);
  const auto plan = random_failures(healthy.network(), 0.1, 2, rng);
  if (plan.failed_nodes.empty()) GTEST_SKIP() << "no failable node";
  auto degraded_net = apply_failures(healthy.network(), plan);
  auto requests = healthy.requests();
  workload::reattach_users(degraded_net, plan.failed_nodes, requests);
  const core::Scenario degraded(std::move(degraded_net), healthy.catalog(),
                                std::move(requests), healthy.constants());

  const auto after = core::SoCL().solve(degraded);
  EXPECT_TRUE(after.evaluation.routable);
  EXPECT_TRUE(after.evaluation.within_budget);
  EXPECT_TRUE(after.evaluation.storage_ok);
  for (const NodeId dead : plan.failed_nodes) {
    for (core::MsId m = 0; m < degraded.num_microservices(); ++m) {
      EXPECT_FALSE(after.placement.deployed(m, dead))
          << "instance on failed node " << dead;
    }
  }
}

TEST(Resilience, ObjectiveDegradesGracefully) {
  core::ScenarioConfig config;
  config.num_nodes = 12;
  config.num_users = 50;
  const auto healthy = core::make_scenario(config, 11);
  const auto baseline = core::SoCL().solve(healthy);

  util::Rng rng(12);
  const auto plan = random_failures(healthy.network(), 0.15, 2, rng);
  auto degraded_net = apply_failures(healthy.network(), plan);
  auto requests = healthy.requests();
  workload::reattach_users(degraded_net, plan.failed_nodes, requests);
  const core::Scenario degraded(std::move(degraded_net), healthy.catalog(),
                                std::move(requests), healthy.constants());
  const auto after = core::SoCL().solve(degraded);
  // Losing substrate can only hurt, but not catastrophically (< 2x) while
  // survivors stay connected.
  EXPECT_GE(after.evaluation.objective,
            baseline.evaluation.objective * 0.95);
  EXPECT_LT(after.evaluation.objective,
            baseline.evaluation.objective * 2.0);
}

}  // namespace
}  // namespace socl::net
