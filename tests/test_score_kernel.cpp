// Tests for the SoA scoring kernel (DESIGN.md §4h): lane-batched costs and
// routes must be bit-identical to the legacy ChainRouter DP — with and
// without the precomputed delay tables — across workload mutations
// (shrinking and repeated-microservice chains that leave stale SoA/scratch
// tails), and steady-state scoring must be allocation-free (pinned with a
// whole-executable operator-new override).
#include "core/score_kernel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include "core/routing_engine.h"
#include "core/socl.h"

// ---- Global allocation counter (whole-executable operator new override) ----
// Each test target is its own executable, so replacing the global operator
// new here observes every allocation made by the code under test.
namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

// GCC's -Wmismatched-new-delete fires on replaced global allocators built
// on malloc/free even though new/delete are consistently paired; the
// replacement itself is the standard sanctioned form ([new.delete.single]).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace socl::core {
namespace {

ScenarioConfig small_config(int nodes = 8, int users = 30) {
  ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  return config;
}

struct Fixture {
  Scenario scenario;
  Partitioning partitioning;
  Preprovisioning pre;

  explicit Fixture(std::uint64_t seed, ScenarioConfig config = small_config())
      : scenario(make_scenario(config, seed)),
        partitioning(initial_partition(scenario, {})),
        pre(preprovision(scenario, partitioning)) {}
};

/// Asserts kernel class_cost/class_route bitwise against the legacy
/// ChainRouter on every request class under `placement`.
void expect_kernel_matches_legacy(const Scenario& scenario,
                                  const ScoreKernel& kernel,
                                  const Placement& placement,
                                  ScoreKernel::Arena& arena) {
  const ChainRouter router(scenario);
  RouteScratch scratch;
  KernelStats stats;
  kernel.bind(arena, placement);
  const auto& classes = scenario.classes().classes();
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const auto& request = scenario.request(classes[c].representative);
    const double legacy_cost = router.route_cost(request, placement, scratch);
    const double kernel_cost =
        kernel.class_cost(static_cast<int>(c), arena, stats);
    EXPECT_EQ(kernel_cost, legacy_cost) << "class " << c;  // bit-identical

    const auto legacy_route = router.route(request, placement, scratch);
    RouteResult kernel_route;
    const bool routable =
        kernel.class_route(static_cast<int>(c), arena, stats, kernel_route);
    ASSERT_EQ(routable, legacy_route.has_value()) << "class " << c;
    if (!routable) {
      EXPECT_TRUE(std::isinf(kernel_cost));
      continue;
    }
    EXPECT_EQ(kernel_route.nodes, legacy_route->nodes) << "class " << c;
    // The breakdown recompute runs the exact legacy expressions, so every
    // term — not just the sum — must match bitwise.
    EXPECT_EQ(kernel_route.d_in, legacy_route->d_in) << "class " << c;
    EXPECT_EQ(kernel_route.compute, legacy_route->compute) << "class " << c;
    EXPECT_EQ(kernel_route.transfer, legacy_route->transfer) << "class " << c;
    EXPECT_EQ(kernel_route.d_out, legacy_route->d_out) << "class " << c;
  }
  EXPECT_GT(stats.costs, 0);
  EXPECT_GT(stats.lanes, 0);
}

TEST(ScoreKernel, CostsAndRoutesBitIdenticalToLegacy) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    Fixture fx(seed);
    ScoreKernel kernel(fx.scenario);
    EXPECT_TRUE(kernel.delay_tables_enabled());
    ScoreKernel::Arena arena;
    expect_kernel_matches_legacy(fx.scenario, kernel, fx.pre.placement, arena);
  }
}

TEST(ScoreKernel, TableFallbackIsBitIdenticalToo) {
  Fixture fx(31);
  // A zero byte budget forces the on-the-fly division path; same operands,
  // same operation, so still bit-identical to the tabled kernel and legacy.
  ScoreKernel tabled(fx.scenario);
  ScoreKernel untabled(fx.scenario, /*delay_table_budget_bytes=*/0);
  ASSERT_TRUE(tabled.delay_tables_enabled());
  ASSERT_FALSE(untabled.delay_tables_enabled());
  ScoreKernel::Arena arena;
  expect_kernel_matches_legacy(fx.scenario, untabled, fx.pre.placement, arena);

  ScoreKernel::Arena arena_a;
  ScoreKernel::Arena arena_b;
  KernelStats stats;
  tabled.bind(arena_a, fx.pre.placement);
  untabled.bind(arena_b, fx.pre.placement);
  const int classes = fx.scenario.classes().num_classes();
  for (int c = 0; c < classes; ++c) {
    EXPECT_EQ(tabled.class_cost(c, arena_a, stats),
              untabled.class_cost(c, arena_b, stats))
        << "class " << c;
  }
}

TEST(ScoreKernel, SparsePlacementsAndUnroutableClasses) {
  Fixture fx(32);
  ScoreKernel kernel(fx.scenario);
  ScoreKernel::Arena arena;
  // Single node hosting everything (1-lane DP), then one service with no
  // instance at all (every class through it must be +inf on both paths).
  Placement lone(fx.scenario);
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    lone.deploy(m, 0);
  }
  expect_kernel_matches_legacy(fx.scenario, kernel, lone, arena);
  lone.remove(0, 0);
  expect_kernel_matches_legacy(fx.scenario, kernel, lone, arena);
}

// Workload mutation must not let the kernel score against stale SoA tails:
// shrink every multi-hop chain (fewer layers, shorter edge arrays) and
// re-sync; a kernel that lived through the mutation has to score exactly
// like one constructed from scratch — and like the legacy router, which
// reads the requests directly.
TEST(ScoreKernel, SyncAfterChainShrinkMatchesFreshKernel) {
  Fixture fx(33);
  ScoreKernel survivor(fx.scenario);
  ScoreKernel::Arena arena;
  expect_kernel_matches_legacy(fx.scenario, survivor, fx.pre.placement, arena);

  auto shrunk = fx.scenario.requests();
  bool mutated = false;
  for (auto& request : shrunk) {
    if (request.chain.size() > 1) {
      request.chain.pop_back();
      request.edge_data.pop_back();
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated);
  fx.scenario.set_requests(std::move(shrunk));
  ASSERT_TRUE(survivor.sync());
  ASSERT_FALSE(survivor.sync()) << "second sync at the same epoch must no-op";

  expect_kernel_matches_legacy(fx.scenario, survivor, fx.pre.placement, arena);
  ScoreKernel fresh(fx.scenario);
  ScoreKernel::Arena fresh_arena;
  KernelStats stats;
  survivor.bind(arena, fx.pre.placement);
  fresh.bind(fresh_arena, fx.pre.placement);
  for (int c = 0; c < fx.scenario.classes().num_classes(); ++c) {
    EXPECT_EQ(survivor.class_cost(c, arena, stats),
              fresh.class_cost(c, fresh_arena, stats))
        << "class " << c;
  }
}

// Chains that repeat a microservice exercise the memo (same candidate list
// gathered at several layers) and the repeated-ms route reconstruction.
TEST(ScoreKernel, RepeatedMicroserviceChains) {
  Fixture fx(34);
  auto looped = fx.scenario.requests();
  for (auto& request : looped) {
    if (request.chain.size() >= 2) {
      request.chain.back() = request.chain.front();
    }
  }
  fx.scenario.set_requests(std::move(looped));
  ScoreKernel kernel(fx.scenario);
  ScoreKernel::Arena arena;
  KernelStats stats;
  kernel.bind(arena, fx.pre.placement);
  for (int c = 0; c < fx.scenario.classes().num_classes(); ++c) {
    kernel.class_cost(c, arena, stats);
  }
  EXPECT_GT(stats.memo_hits, 0)
      << "repeated services should re-use gathered candidate lists";
  expect_kernel_matches_legacy(fx.scenario, kernel, fx.pre.placement, arena);
}

// The zero-allocation contract: once an arena has warmed up on a placement,
// re-binding and re-scoring every class allocates nothing.
TEST(ScoreKernel, SteadyStateScoringIsAllocationFree) {
  Fixture fx(35);
  ScoreKernel kernel(fx.scenario);
  ScoreKernel::Arena arena;
  KernelStats stats;
  RouteResult route;
  const int classes = fx.scenario.classes().num_classes();
  // Warm-up: grows the arena to the largest class and fills the memo.
  for (int pass = 0; pass < 2; ++pass) {
    kernel.bind(arena, fx.pre.placement);
    for (int c = 0; c < classes; ++c) {
      kernel.class_cost(c, arena, stats);
      kernel.class_route(c, arena, stats, route);
    }
  }
  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  kernel.bind(arena, fx.pre.placement);
  for (int c = 0; c < classes; ++c) {
    kernel.class_cost(c, arena, stats);
    kernel.class_route(c, arena, stats, route);
  }
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), before)
      << "steady-state kernel scoring must not allocate";
}

// Engine-level guard: a kernel engine and a legacy engine must agree
// bitwise on refresh sums, full objectives, and incremental rescoring (the
// per-seed sweep of this lives in the differential harness; this is the
// deterministic in-tree smoke).
TEST(ScoreKernel, EngineDispatchMatchesLegacyEngine) {
  Fixture fx(36);
  RoutingEngine with_kernel(fx.scenario, 1, /*use_kernel=*/true);
  RoutingEngine legacy(fx.scenario, 1, /*use_kernel=*/false);
  ASSERT_TRUE(with_kernel.kernel_enabled());
  ASSERT_FALSE(legacy.kernel_enabled());
  with_kernel.refresh(fx.pre.placement);
  legacy.refresh(fx.pre.placement);
  EXPECT_EQ(with_kernel.cached_latency_sum(), legacy.cached_latency_sum());
  EXPECT_EQ(with_kernel.full_objective(fx.pre.placement),
            legacy.full_objective(fx.pre.placement));
  for (MsId m = 0; m < fx.scenario.num_microservices(); ++m) {
    if (fx.pre.placement.instance_count(m) <= 1) continue;
    for (const NodeId k : fx.pre.placement.nodes_of(m)) {
      Placement trial = fx.pre.placement;
      trial.remove(m, k);
      EXPECT_EQ(with_kernel.objective_without(m, k, trial),
                legacy.objective_without(m, k, trial))
          << "m=" << m << " k=" << k;
      EXPECT_EQ(with_kernel.objective_with_change(trial, m),
                legacy.objective_with_change(trial, m))
          << "m=" << m << " k=" << k;
    }
  }
  EXPECT_EQ(with_kernel.any_deadline_violation(fx.pre.placement),
            legacy.any_deadline_violation(fx.pre.placement));
  EXPECT_GT(with_kernel.counters().kernel.costs, 0);
  EXPECT_EQ(legacy.counters().kernel.costs, 0);
}

}  // namespace
}  // namespace socl::core
