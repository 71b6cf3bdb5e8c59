// Tests for the Kubernetes-testbed emulator.
#include <gtest/gtest.h>

#include "sim/testbed.h"
#include "util/stats.h"

namespace socl::sim {
namespace {

using core::MsId;
using core::NodeId;

core::ScenarioConfig base_config(int nodes = 6, int users = 15) {
  core::ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  return config;
}

struct TestbedFixture {
  core::Scenario scenario;
  core::Placement placement;
  core::Assignment assignment;

  explicit TestbedFixture(std::uint64_t seed)
      : scenario(core::make_scenario(base_config(), seed)),
        placement(scenario),
        assignment(scenario) {
    for (MsId m = 0; m < scenario.num_microservices(); ++m) {
      for (const NodeId k : scenario.demand_nodes(m)) placement.deploy(m, k);
      if (!scenario.demand_nodes(m).empty()) placement.deploy(m, 0);
    }
    const core::ChainRouter router(scenario);
    assignment = *router.route_all(placement);
  }
};

TEST(Testbed, SampleCountMatchesRoundsTimesUsers) {
  TestbedFixture fx(1);
  const TestbedEmulator testbed(fx.scenario, {}, 1);
  const auto samples = testbed.measure(fx.placement, fx.assignment, 3, 2);
  EXPECT_EQ(samples.size(),
            3u * static_cast<std::size_t>(fx.scenario.num_users()));
}

TEST(Testbed, LatenciesPositiveMilliseconds) {
  TestbedFixture fx(2);
  const TestbedEmulator testbed(fx.scenario, {}, 1);
  const auto samples = testbed.measure(fx.placement, fx.assignment, 2, 3);
  for (const auto& sample : samples) {
    EXPECT_GT(sample.latency_ms, 0.0);
    EXPECT_LT(sample.latency_ms, 10000.0);
  }
}

TEST(Testbed, DeterministicInSeeds) {
  TestbedFixture fx(3);
  const TestbedEmulator testbed(fx.scenario, {}, 7);
  const auto a = testbed.measure(fx.placement, fx.assignment, 2, 9);
  const auto b = testbed.measure(fx.placement, fx.assignment, 2, 9);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].latency_ms, b[i].latency_ms);
  }
}

TEST(Testbed, UtilisationBoundedBelowSaturation) {
  TestbedFixture fx(4);
  const TestbedEmulator testbed(fx.scenario, {}, 1);
  const auto util = testbed.utilisation(fx.assignment);
  for (double u : util) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 0.95);
  }
}

TEST(Testbed, HigherArrivalRateInflatesLatency) {
  TestbedFixture fx(5);
  TestbedConfig calm, busy;
  calm.arrival_rate = 0.01;
  busy.arrival_rate = 0.5;
  const TestbedEmulator calm_testbed(fx.scenario, calm, 1);
  const TestbedEmulator busy_testbed(fx.scenario, busy, 1);
  util::RunningStats calm_stats, busy_stats;
  for (const auto& s :
       calm_testbed.measure(fx.placement, fx.assignment, 4, 11)) {
    calm_stats.add(s.latency_ms);
  }
  for (const auto& s :
       busy_testbed.measure(fx.placement, fx.assignment, 4, 11)) {
    busy_stats.add(s.latency_ms);
  }
  EXPECT_GT(busy_stats.mean(), calm_stats.mean());
}

TEST(Testbed, LocalPlacementBeatsRemote) {
  // All instances co-located with the user vs all on one far node: local
  // wins on mean latency.
  const auto scenario = core::make_scenario(base_config(6, 10), 6);
  core::Placement local(scenario), remote(scenario);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    if (scenario.demand_nodes(m).empty()) continue;
    for (NodeId k = 0; k < scenario.num_nodes(); ++k) local.deploy(m, k);
    remote.deploy(m, 5);
  }
  const core::ChainRouter router(scenario);
  const auto local_assignment = *router.route_all(local);
  const auto remote_assignment = *router.route_all(remote);
  const TestbedEmulator testbed(scenario, {}, 2);
  util::RunningStats local_stats, remote_stats;
  for (const auto& s : testbed.measure(local, local_assignment, 3, 4)) {
    local_stats.add(s.latency_ms);
  }
  for (const auto& s : testbed.measure(remote, remote_assignment, 3, 4)) {
    remote_stats.add(s.latency_ms);
  }
  EXPECT_LT(local_stats.mean(), remote_stats.mean());
}

}  // namespace
}  // namespace socl::sim
