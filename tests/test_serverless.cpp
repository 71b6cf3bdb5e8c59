// Tests for the serverless container-runtime simulator: arrival streams,
// the event queue, golden digests of streams and event logs,
// event-ordering determinism, cold-start accounting conservation, keep-alive
// capacity reclamation, evaluator reproduction in the zero-overhead
// configuration, and the scaling policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/partition.h"
#include "core/preprovision.h"
#include "core/routing.h"
#include "net/topology.h"
#include "serverless/arrivals.h"
#include "serverless/event_queue.h"
#include "serverless/policy.h"
#include "serverless/runtime.h"
#include "util/rng.h"

namespace socl::serverless {
namespace {

using core::MsId;
using core::NodeId;

core::ScenarioConfig base_config(int nodes = 6, int users = 12) {
  core::ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  return config;
}

/// Demand-following placement + optimal routing, like the testbed tests use.
struct Fixture {
  core::Scenario scenario;
  core::Placement placement;
  core::Assignment assignment;

  explicit Fixture(std::uint64_t seed, int nodes = 6, int users = 12)
      : scenario(core::make_scenario(base_config(nodes, users), seed)),
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

/// FNV-1a over the little-endian bytes of 64-bit words (doubles by bit
/// pattern), for golden digests of arrival streams and event logs.
class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(std::int64_t value) { add(static_cast<std::uint64_t>(value)); }
  void add(int value) { add(static_cast<std::int64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::uint64_t arrivals_digest(const std::vector<Arrival>& arrivals) {
  Fnv1a fnv;
  fnv.add(static_cast<std::uint64_t>(arrivals.size()));
  for (const Arrival& arrival : arrivals) {
    fnv.add(arrival.time_s);
    fnv.add(arrival.user);
    fnv.add(arrival.seq);
  }
  return fnv.value();
}

ArrivalConfig default_arrivals() {
  ArrivalConfig config;
  config.horizon_s = 20.0;
  config.mean_rate = 0.1;
  config.burstiness = 1.5;
  config.bins = 8;
  config.seed = 5;
  return config;
}

TEST(Arrivals, DeterministicSortedAndSequenced) {
  const auto a = generate_arrivals(10, default_arrivals());
  const auto b = generate_arrivals(10, default_arrivals());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  std::vector<int> next_seq(10, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s);
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].seq, b[i].seq);
    if (i > 0) EXPECT_GE(a[i].time_s, a[i - 1].time_s);
    EXPECT_GE(a[i].time_s, 0.0);
    EXPECT_LE(a[i].time_s, default_arrivals().horizon_s);
    EXPECT_EQ(a[i].seq, next_seq[static_cast<std::size_t>(a[i].user)]++);
  }
}

TEST(Arrivals, PerUserStreamIndependentOfPopulation) {
  // Counter-based streams: user u's arrivals must not change when more
  // users join the scenario.
  const auto small = generate_arrivals(4, default_arrivals());
  const auto large = generate_arrivals(12, default_arrivals());
  std::vector<Arrival> small_u, large_u;
  for (const auto& arrival : small) {
    if (arrival.user < 4) small_u.push_back(arrival);
  }
  for (const auto& arrival : large) {
    if (arrival.user < 4) large_u.push_back(arrival);
  }
  ASSERT_EQ(small_u.size(), large_u.size());
  for (std::size_t i = 0; i < small_u.size(); ++i) {
    EXPECT_DOUBLE_EQ(small_u[i].time_s, large_u[i].time_s);
    EXPECT_EQ(small_u[i].user, large_u[i].user);
    EXPECT_EQ(small_u[i].seq, large_u[i].seq);
  }
}

TEST(Arrivals, GoldenDigestsPinTheStream) {
  // Golden values: any change to the per-user streams, the Poisson branches
  // (mean 0 draws nothing, Knuth below 30, normal approximation from 30) or
  // the merge order changes these digests. The digests depend on libm's
  // exp/log being bit-reproducible, as every other seeded figure here does.
  ArrivalConfig zero = default_arrivals();
  zero.mean_rate = 0.0;
  const auto none = generate_arrivals(9, zero);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(arrivals_digest(none), 0xA8C7F832281A39C5ULL);

  const auto knuth = generate_arrivals(9, default_arrivals());
  EXPECT_EQ(arrivals_digest(knuth), 0x9158DDE8670C88CULL);

  ArrivalConfig heavy = default_arrivals();
  heavy.mean_rate = 20.0;  // 50 per bin: the normal approximation
  heavy.burstiness = 0.0;
  const auto normal = generate_arrivals(5, heavy);
  EXPECT_EQ(arrivals_digest(normal), 0x1EF311124B4B00A3ULL);
}

TEST(Arrivals, BurstinessWidensProfileSpread) {
  ArrivalConfig flat = default_arrivals();
  flat.burstiness = 0.0;
  ArrivalConfig bursty = default_arrivals();
  bursty.burstiness = 3.0;
  const auto flat_profile = arrival_profile(flat);
  const auto bursty_profile = arrival_profile(bursty);
  double flat_spread = 0.0, bursty_spread = 0.0;
  for (std::size_t b = 0; b < flat_profile.size(); ++b) {
    flat_spread = std::max(flat_spread, std::abs(flat_profile[b] - 1.0));
    bursty_spread = std::max(bursty_spread, std::abs(bursty_profile[b] - 1.0));
  }
  EXPECT_NEAR(flat_spread, 0.0, 1e-12);
  EXPECT_GT(bursty_spread, 0.0);
}

TEST(EventQueue, PopsInTimeThenPushOrderWithSlotReuse) {
  // Interleaved pushes and pops over coarse times (many ties) against a
  // sorted reference; payloads carry their push order, so slot recycling
  // mixing up payloads would show as well.
  util::Rng rng(99);
  EventQueue<std::uint64_t> queue;
  std::vector<std::pair<double, std::uint64_t>> pending;
  std::uint64_t pushed = 0;
  double now = 0.0;
  for (int step = 0; step < 20000; ++step) {
    if (pending.empty() || rng.uniform() < 0.55) {
      const double t = now + static_cast<double>(rng.uniform_int(0, 5));
      if (rng.uniform() < 0.1) {  // reserved orders are skipped by pushes
        EXPECT_EQ(queue.reserve_orders(3), pushed);
        pushed += 3;
      }
      queue.push(t, pushed);
      pending.emplace_back(t, pushed++);
    } else {
      const auto first = std::min_element(pending.begin(), pending.end());
      ASSERT_FALSE(queue.empty());
      EXPECT_EQ(queue.top_time(), first->first);
      EXPECT_EQ(queue.top_order(), first->second);
      EXPECT_EQ(queue.pop(), first->second);
      now = first->first;
      pending.erase(first);
    }
    ASSERT_EQ(queue.size(), pending.size());
  }
}

TEST(Runtime, EventLogIdenticalAcrossRuns) {
  const Fixture fx(21);
  const auto arrivals = generate_arrivals(fx.scenario.num_users(),
                                          default_arrivals());
  ServerlessConfig config;
  config.proc_jitter_sigma = 0.1;
  config.keep_alive_sigma = 0.2;

  std::vector<std::vector<EventRecord>> logs;
  std::vector<RuntimeMetrics> runs;
  for (int run = 0; run < 3; ++run) {
    const ServerlessRuntime runtime(fx.scenario, config);
    std::vector<EventRecord> log;
    runs.push_back(runtime.run(fx.placement, fx.assignment, arrivals,
                               ReactivePolicy(), 77, nullptr, &log));
    logs.push_back(std::move(log));
  }
  for (std::size_t i = 1; i < logs.size(); ++i) {
    EXPECT_EQ(logs[0], logs[i]) << "run " << i;
    ASSERT_EQ(runs[0].requests.size(), runs[i].requests.size());
    for (std::size_t r = 0; r < runs[0].requests.size(); ++r) {
      EXPECT_DOUBLE_EQ(runs[0].requests[r].finish_s,
                       runs[i].requests[r].finish_s);
      EXPECT_DOUBLE_EQ(runs[0].requests[r].cold_s,
                       runs[i].requests[r].cold_s);
    }
  }
}

TEST(Runtime, GoldenEventLogAndOutcomeDigest) {
  // Jittered processing, log-normal keep-alive and a carried placement that
  // drops half the instances (so rollout boots, expiries, ticks and queueing
  // all occur). The digest covers every event record, every outcome field
  // and every totals field; it must not move when the event queue or the
  // route tables change shape.
  const Fixture fx(21);
  ArrivalConfig trace = default_arrivals();
  trace.mean_rate = 0.4;
  const auto arrivals = generate_arrivals(fx.scenario.num_users(), trace);
  ServerlessConfig config;
  config.proc_jitter_sigma = 0.1;
  config.keep_alive_s = 2.0;
  config.keep_alive_sigma = 0.2;
  config.concurrency = 2;
  config.max_containers_per_pool = 3;
  core::Placement carried(fx.scenario);
  int instance = 0;
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    for (NodeId k = 0; k < fx.scenario.num_nodes(); ++k) {
      if (fx.placement.deployed(m, k) && instance++ % 2 == 0) {
        carried.deploy(m, k);
      }
    }
  }
  const ServerlessRuntime runtime(fx.scenario, config);
  std::vector<EventRecord> log;
  const auto metrics =
      runtime.run(fx.placement, fx.assignment, arrivals,
                  SoCLPrewarmPolicy(fx.scenario), 77, &carried, &log);

  Fnv1a fnv;
  fnv.add(static_cast<std::uint64_t>(log.size()));
  for (const EventRecord& e : log) {
    fnv.add(e.time_s);
    fnv.add(e.kind);
    fnv.add(e.a);
    fnv.add(e.b);
    fnv.add(e.c);
  }
  fnv.add(static_cast<std::uint64_t>(metrics.requests.size()));
  for (const RequestOutcome& r : metrics.requests) {
    fnv.add(r.user);
    fnv.add(r.seq);
    fnv.add(r.arrival_s);
    fnv.add(r.finish_s);
    fnv.add(r.queue_s);
    fnv.add(r.cold_s);
    fnv.add(r.transfer_s);
    fnv.add(r.proc_s);
  }
  const RuntimeTotals& t = metrics.totals;
  for (const std::int64_t v :
       {t.invocations, t.warm_hits, t.cold_serves, t.queue_serves,
        t.demand_boots, t.prewarm_boots, t.expirations}) {
    fnv.add(v);
  }
  fnv.add(t.initial_warm);
  fnv.add(t.peak_live);

  // The fixture must exercise what it claims to.
  EXPECT_EQ(metrics.requests.size(), arrivals.size());
  EXPECT_GT(log.size(), 1000u);
  EXPECT_GT(t.prewarm_boots, 0);
  EXPECT_GT(t.demand_boots, 0);
  EXPECT_GT(t.expirations, 0);
  EXPECT_GT(t.queue_serves, 0);
  EXPECT_GT(t.cold_serves, 0);
  EXPECT_EQ(fnv.value(), 0x2EAEFF5060B415EAULL) << std::hex << fnv.value();
}

TEST(Runtime, UndeployedInstanceRejectedEvenWithoutArrivals) {
  // The undeployed-instance check covers every user's assignment, not only
  // the users that arrive in the window.
  const Fixture fx(29);
  const int idle = fx.scenario.num_users() - 1;
  const auto& request = fx.scenario.requests()[static_cast<std::size_t>(idle)];
  const MsId m = request.chain[0];
  const NodeId k = fx.assignment.node_for(idle, 0);
  core::Placement holed = fx.placement;
  holed.remove(m, k);
  std::vector<Arrival> arrivals;
  for (int u = 0; u < fx.scenario.num_users(); ++u) {
    if (u == idle) continue;
    bool uses = false;
    const auto route = fx.assignment.user_route(u);
    const auto& chain = fx.scenario.requests()[static_cast<std::size_t>(u)].chain;
    for (std::size_t p = 0; p < chain.size(); ++p) {
      uses = uses || (chain[p] == m && route[p] == k);
    }
    if (!uses) arrivals.push_back({0.1 * (u + 1), u, 0});
  }
  ASSERT_FALSE(arrivals.empty());
  const ServerlessRuntime runtime(fx.scenario, ServerlessConfig{});
  // Without the idle user's hole the same arrivals run cleanly.
  EXPECT_NO_THROW(runtime.run(fx.placement, fx.assignment, arrivals,
                              ReactivePolicy(), 5));
  EXPECT_THROW(runtime.run(holed, fx.assignment, arrivals, ReactivePolicy(), 5),
               std::invalid_argument);
  EXPECT_THROW(runtime.run(holed, fx.assignment, {}, ReactivePolicy(), 5),
               std::invalid_argument);
}

TEST(Runtime, ColdStartAccountingConserved) {
  const Fixture fx(22);
  const auto arrivals = generate_arrivals(fx.scenario.num_users(),
                                          default_arrivals());
  ServerlessConfig config;
  config.keep_alive_s = 2.0;  // force churn: expiry + re-boot mid-window
  const ServerlessRuntime runtime(fx.scenario, config);
  const auto metrics = runtime.run(fx.placement, fx.assignment, arrivals,
                                   ReactivePolicy(), 13);

  // Every arrival completes and every stage serve is classified exactly once.
  ASSERT_EQ(metrics.requests.size(), arrivals.size());
  std::int64_t stages = 0;
  for (const auto& arrival : arrivals) {
    stages += static_cast<std::int64_t>(
        fx.scenario.requests()[static_cast<std::size_t>(arrival.user)]
            .chain.size());
  }
  EXPECT_EQ(metrics.totals.invocations, stages);
  EXPECT_EQ(metrics.totals.invocations,
            metrics.totals.warm_hits + metrics.totals.cold_serves +
                metrics.totals.queue_serves);
  EXPECT_GT(metrics.totals.cold_serves, 0);  // reactive: first hits are cold

  // SLO accounting streams the same deadline test a caller would re-scan.
  std::int64_t slo_met = 0;
  for (const auto& r : metrics.requests) {
    if (r.total_s() <= fx.scenario.request(r.user).deadline) ++slo_met;
  }
  EXPECT_EQ(metrics.totals.slo_met, slo_met);
  EXPECT_GT(slo_met, 0);

  // Per-request latency decomposition is exact.
  for (const auto& r : metrics.requests) {
    EXPECT_NEAR(r.queue_s + r.cold_s + r.transfer_s + r.proc_s, r.total_s(),
                1e-9);
    EXPECT_GE(r.queue_s, 0.0);
    EXPECT_GE(r.cold_s, 0.0);
    EXPECT_GT(r.total_s(), 0.0);
  }
}

TEST(Runtime, KeepAliveExpiryFreesPoolCapacity) {
  const Fixture fx(23);
  // Two widely separated single-request waves; between them every container
  // outlives its keep-alive.
  std::vector<Arrival> arrivals;
  for (int u = 0; u < fx.scenario.num_users(); ++u) {
    arrivals.push_back({0.01 * (u + 1), u, 0});
  }
  for (int u = 0; u < fx.scenario.num_users(); ++u) {
    arrivals.push_back({60.0 + 0.01 * (u + 1), u, 1});
  }
  ServerlessConfig config;
  config.keep_alive_s = 1.0;
  config.keep_alive_sigma = 0.0;
  config.max_containers_per_pool = 1;  // a leaked container would wedge pools
  config.policy_tick_s = 0.0;          // no floor restoration
  const ServerlessRuntime runtime(fx.scenario, config);
  const auto metrics = runtime.run(fx.placement, fx.assignment, arrivals,
                                   ReactivePolicy(), 31);

  ASSERT_EQ(metrics.requests.size(), arrivals.size());
  EXPECT_GT(metrics.totals.expirations, 0);
  // The second wave can only be served if expiry returned the capacity: with
  // max 1 container per pool, its boots prove the slot was reclaimed.
  EXPECT_GT(metrics.totals.demand_boots,
            static_cast<std::int64_t>(0));
  std::int64_t second_wave_cold = 0;
  for (const auto& r : metrics.requests) {
    if (r.seq == 1 && r.cold_s > 0.0) ++second_wave_cold;
  }
  EXPECT_GT(second_wave_cold, 0);  // the re-boots were paid by wave 2
}

TEST(Runtime, ZeroOverheadConfigReproducesEvaluatorLatency) {
  const Fixture fx(24);
  const auto arrivals = generate_arrivals(fx.scenario.num_users(),
                                          default_arrivals());
  ServerlessConfig config;
  config.cold_start_mean_s = 0.0;
  config.cold_start_sigma = 0.0;
  config.proc_jitter_sigma = 0.0;
  config.concurrency = 1 << 20;
  config.keep_alive_s = 1e9;
  config.policy_tick_s = 0.0;
  const ServerlessRuntime runtime(fx.scenario, config);
  const auto metrics = runtime.run(fx.placement, fx.assignment, arrivals,
                                   FixedPoolPolicy(1), 1);

  const core::ChainRouter router(fx.scenario);
  ASSERT_EQ(metrics.requests.size(), arrivals.size());
  EXPECT_EQ(metrics.totals.warm_hits, metrics.totals.invocations);
  for (const auto& r : metrics.requests) {
    const auto& request =
        fx.scenario.requests()[static_cast<std::size_t>(r.user)];
    const double expected = router.completion_time(
        request, fx.assignment.user_route(r.user));
    EXPECT_NEAR(r.total_s(), expected, 1e-9);
    EXPECT_NEAR(r.queue_s + r.cold_s, 0.0, 1e-12);
  }
}

TEST(Runtime, CarriedPlacementControlsRolloutBoots) {
  const Fixture fx(25);
  const auto arrivals = generate_arrivals(fx.scenario.num_users(),
                                          default_arrivals());
  ServerlessConfig config;
  config.policy_tick_s = 0.0;
  const ServerlessRuntime runtime(fx.scenario, config);
  const FixedPoolPolicy policy(1);

  // Unchanged placement: every instance carries over, nothing boots.
  const auto unchanged = runtime.run(fx.placement, fx.assignment, arrivals,
                                     policy, 3, &fx.placement);
  EXPECT_EQ(unchanged.totals.prewarm_boots, 0);
  EXPECT_GT(unchanged.totals.initial_warm, 0);

  // Fully churned placement: nothing carries, every pool boots cold.
  const core::Placement empty(fx.scenario);
  const auto churned = runtime.run(fx.placement, fx.assignment, arrivals,
                                   policy, 3, &empty);
  EXPECT_EQ(churned.totals.initial_warm, 0);
  EXPECT_GT(churned.totals.prewarm_boots, 0);
  EXPECT_GE(churned.totals.cold_serves, unchanged.totals.cold_serves);
  EXPECT_GE(churned.mean_latency_s(), unchanged.mean_latency_s());
}

TEST(Policy, PrewarmBeatsReactiveOnColdStartsAtNoLatencyCost) {
  const Fixture fx(26, 8, 16);
  ArrivalConfig trace = default_arrivals();
  trace.burstiness = 2.0;
  const auto arrivals =
      generate_arrivals(fx.scenario.num_users(), trace);
  ServerlessConfig config;
  config.keep_alive_s = 5.0;
  const ServerlessRuntime runtime(fx.scenario, config);

  const auto reactive = runtime.run(fx.placement, fx.assignment, arrivals,
                                    ReactivePolicy(), 9);
  const auto prewarm =
      runtime.run(fx.placement, fx.assignment, arrivals,
                  SoCLPrewarmPolicy(fx.scenario), 9);

  EXPECT_GT(reactive.totals.cold_serves, 0);
  EXPECT_LT(prewarm.totals.cold_serves, reactive.totals.cold_serves);
  EXPECT_LE(prewarm.mean_latency_s(), reactive.mean_latency_s() + 1e-9);
}

TEST(Policy, SoclPrewarmQuotaFollowsPreprovisioning) {
  const Fixture fx(27);
  const SoCLPrewarmPolicy policy(fx.scenario);
  int total_quota = 0;
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    for (NodeId k = 0; k < fx.scenario.num_nodes(); ++k) {
      total_quota += policy.quota(m, k);
    }
  }
  EXPECT_GT(total_quota, 0);
}

TEST(Policy, SoclPrewarmQuotaReproducesAlgorithm2) {
  // The quota map must be exactly the Algorithm 2 pre-provisioning
  // placement (one warm container per ε_s(m)·N̄(m) selected host), and per
  // microservice it can never exceed the instance bound N̄(m).
  for (const std::uint64_t seed : {41ULL, 42ULL, 43ULL}) {
    const Fixture fx(seed, 8, 20);
    const SoCLPrewarmPolicy policy(fx.scenario);
    const auto partitioning =
        core::initial_partition(fx.scenario, core::PartitionConfig{});
    const auto pre = core::preprovision(fx.scenario, partitioning);
    for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
      int quota_sum = 0;
      for (NodeId k = 0; k < fx.scenario.num_nodes(); ++k) {
        EXPECT_EQ(policy.quota(m, k), pre.placement.deployed(m, k) ? 1 : 0)
            << "seed " << seed << " m=" << m << " k=" << k;
        quota_sum += policy.quota(m, k);
      }
      EXPECT_LE(quota_sum, pre.bound[static_cast<std::size_t>(m)])
          << "seed " << seed << " m=" << m;
      if (!fx.scenario.demand_nodes(m).empty()) {
        EXPECT_GT(quota_sum, 0) << "seed " << seed << " m=" << m;
      }
    }
  }
}

TEST(Policy, SoclPrewarmZeroDemandServiceHasNoQuota) {
  // Two users whose chains skip microservice 1 entirely: Algorithm 2 must
  // assign it no pre-warm quota anywhere, and the policy must neither open
  // nor restore containers for it.
  net::TopologyConfig topo;
  topo.num_nodes = 4;
  auto network = net::make_topology(topo, 5);
  std::vector<workload::UserRequest> requests;
  for (int h = 0; h < 2; ++h) {
    workload::UserRequest request;
    request.id = h;
    request.attach_node = h;
    request.chain = {0, 2};
    request.edge_data = {2.0};
    request.deadline = 100.0;
    requests.push_back(request);
  }
  const core::Scenario scenario(std::move(network), workload::tiny_catalog(),
                                std::move(requests), core::ProblemConstants{});
  const SoCLPrewarmPolicy policy(scenario);
  core::Placement everywhere(scenario);
  for (MsId m = 0; m < scenario.num_microservices(); ++m) {
    for (NodeId k = 0; k < scenario.num_nodes(); ++k) everywhere.deploy(m, k);
  }
  for (NodeId k = 0; k < scenario.num_nodes(); ++k) {
    EXPECT_EQ(policy.quota(1, k), 0);
    EXPECT_EQ(policy.initial_warm(scenario, everywhere, k, 1), 0);
    EXPECT_EQ(policy.warm_floor(scenario, k, 1), 0);
  }
}

TEST(Policy, SoclPrewarmQuotaStaysInsidePartitionGroups) {
  // Algorithm 2 only selects hosts from Algorithm 1's groups — demand
  // nodes V(m) plus validated candidate augmentations. Any node outside a
  // microservice's group membership must carry zero quota, and its warm
  // floor stays 0 even if the measured placement deploys there.
  const Fixture fx(44, 8, 12);
  const SoCLPrewarmPolicy policy(fx.scenario);
  const auto partitioning =
      core::initial_partition(fx.scenario, core::PartitionConfig{});
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    const auto& groups =
        partitioning.per_ms[static_cast<std::size_t>(m)].groups;
    std::vector<bool> member(
        static_cast<std::size_t>(fx.scenario.num_nodes()), false);
    for (const auto& group : groups) {
      for (const NodeId k : group) member[static_cast<std::size_t>(k)] = true;
    }
    for (NodeId k = 0; k < fx.scenario.num_nodes(); ++k) {
      if (!member[static_cast<std::size_t>(k)]) {
        EXPECT_EQ(policy.quota(m, k), 0) << "m=" << m << " k=" << k;
        EXPECT_EQ(policy.warm_floor(fx.scenario, k, m), 0)
            << "m=" << m << " k=" << k;
      }
    }
  }
}

TEST(Runtime, RejectsMalformedArrivals) {
  // The arrival cursor relies on a time-sorted stream.
  const Fixture fx(28);
  const ServerlessRuntime runtime(fx.scenario, ServerlessConfig{});
  const std::vector<Arrival> unsorted = {{1.0, 0, 0}, {0.5, 1, 0}};
  EXPECT_THROW(runtime.run(fx.placement, fx.assignment, unsorted,
                           ReactivePolicy(), 1),
               std::invalid_argument);
  const std::vector<Arrival> stranger = {{1.0, fx.scenario.num_users(), 0}};
  EXPECT_THROW(runtime.run(fx.placement, fx.assignment, stranger,
                           ReactivePolicy(), 1),
               std::invalid_argument);
}

TEST(Runtime, RejectsInvalidConfig) {
  const Fixture fx(28);
  ServerlessConfig config;
  config.concurrency = 0;
  EXPECT_THROW(ServerlessRuntime(fx.scenario, config), std::invalid_argument);
  config = ServerlessConfig{};
  config.cold_start_mean_s = -1.0;
  EXPECT_THROW(ServerlessRuntime(fx.scenario, config), std::invalid_argument);
}

}  // namespace
}  // namespace socl::serverless
