// Tests for the online serving loop (src/serve/): day completion under
// mobility + drift, bit-identical determinism across runs and solver thread
// counts, the three-tier control decision (carried / incremental / replan),
// the incremental path's "only moved classes recompute" contract, the
// cross-check lane (full re-route equality + validator cleanliness every
// slot), the CSV series, and the per-slot serverless spans.
#include "serve/serving_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/routing.h"
#include "obs/recorder.h"

namespace socl::serve {
namespace {

ServingConfig small_config(std::uint64_t seed = 11) {
  ServingConfig config;
  config.scenario.num_nodes = 6;
  config.scenario.num_users = 10;  // templates
  config.population = 120;
  config.slots = 25;  // a full day and one more
  config.slot_horizon_s = 8.0;
  config.mobility.move_prob = 0.3;
  config.drift_prob = 0.05;
  config.arrivals.mean_rate = 0.05;
  config.full_replan_period = 8;
  config.seed = seed;
  return config;
}

/// Everything except the wall-clock control latency must match.
void expect_slots_equal(const std::vector<SlotReport>& a,
                        const std::vector<SlotReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(a[i].slot));
    EXPECT_EQ(a[i].slot, b[i].slot);
    EXPECT_EQ(a[i].mode, b[i].mode);
    EXPECT_EQ(a[i].classes, b[i].classes);
    EXPECT_EQ(a[i].classes_recomputed, b[i].classes_recomputed);
    EXPECT_EQ(a[i].classes_carried, b[i].classes_carried);
    EXPECT_EQ(a[i].moved_weight_fraction, b[i].moved_weight_fraction);
    EXPECT_EQ(a[i].objective, b[i].objective);
    EXPECT_EQ(a[i].deployment_cost, b[i].deployment_cost);
    EXPECT_EQ(a[i].mean_latency_s, b[i].mean_latency_s);
    EXPECT_EQ(a[i].placement_churn, b[i].placement_churn);
    EXPECT_EQ(a[i].churn_cost, b[i].churn_cost);
    EXPECT_EQ(a[i].prewarm_ahead_hits, b[i].prewarm_ahead_hits);
    EXPECT_EQ(a[i].invocations, b[i].invocations);
    EXPECT_EQ(a[i].requests_completed, b[i].requests_completed);
    EXPECT_EQ(a[i].slo_met, b[i].slo_met);
    EXPECT_EQ(a[i].cold_serves, b[i].cold_serves);
    EXPECT_EQ(a[i].arrival_intensity, b[i].arrival_intensity);
    EXPECT_EQ(a[i].demand_fingerprint, b[i].demand_fingerprint);
  }
}

TEST(ServingLoop, DayCompletesWithServingActivity) {
  ServingLoop loop(small_config());
  const ServingReport report = loop.run();
  ASSERT_EQ(report.slots.size(), 25u);
  EXPECT_EQ(report.replans + report.incremental_slots + report.carried_slots,
            25);
  EXPECT_GE(report.replans, 1);  // slot 1 always replans
  EXPECT_GT(report.invocations, 0);
  EXPECT_GT(report.requests_completed, 0);
  EXPECT_GE(report.invocations, report.requests_completed);
  EXPECT_GE(report.slo_attainment(), 0.0);
  EXPECT_LE(report.slo_attainment(), 1.0);
  EXPECT_GE(report.cold_start_rate(), 0.0);
  EXPECT_LE(report.cold_start_rate(), 1.0);
  for (const SlotReport& slot : report.slots) {
    EXPECT_EQ(slot.classes_recomputed + slot.classes_carried, slot.classes);
    EXPECT_GT(slot.classes, 0);
    EXPECT_GT(slot.arrival_intensity, 0.0);
  }
}

TEST(ServingLoop, DeterministicAcrossRunsAndThreadCounts) {
  ServingConfig config = small_config(23);
  const ServingReport first = ServingLoop(config).run();
  const ServingReport second = ServingLoop(config).run();
  expect_slots_equal(first.slots, second.slots);

  ServingConfig threaded = small_config(23);
  threaded.online.socl.combination.threads = 3;
  const ServingReport third = ServingLoop(threaded).run();
  expect_slots_equal(first.slots, third.slots);
}

TEST(ServingLoop, EachSlotTracesArrivalGenerationInsideTheSlot) {
  obs::Recorder recorder;
  ServingConfig config = small_config(29);
  config.slots = 4;
  config.sink = &recorder;
  const ServingReport report = ServingLoop(config).run();
  std::vector<obs::TraceEvent> slots, arrivals, solves;
  for (const obs::TraceEvent& event : recorder.trace().events()) {
    const std::string name = event.name;
    if (name == "serve.slot") slots.push_back(event);
    if (name == "serverless.arrivals") {
      EXPECT_EQ(event.phase, obs::Phase::kServerless);
      arrivals.push_back(event);
    }
    if (name == "socl.solve") solves.push_back(event);
  }
  ASSERT_EQ(slots.size(), 4u);
  ASSERT_EQ(arrivals.size(), slots.size());
  const auto inside = [](const obs::TraceEvent& child,
                         const obs::TraceEvent& parent) {
    return child.start_us >= parent.start_us &&
           child.start_us + child.dur_us <= parent.start_us + parent.dur_us;
  };
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_TRUE(inside(arrivals[i], slots[i])) << "slot " << i + 1;
  }
  // The serving sink reaches the solver: slot 1's cold replan traces its
  // solve inside the slot.
  EXPECT_TRUE(std::any_of(solves.begin(), solves.end(),
                          [&](const obs::TraceEvent& solve) {
                            return inside(solve, slots[0]);
                          }));
  std::int64_t requests = 0;
  for (const SlotReport& slot : report.slots) {
    requests += slot.requests_completed;
  }
  EXPECT_GT(requests, 0);
}

TEST(ServingLoop, CrossCheckLaneIsCleanEverySlot) {
  ServingConfig config = small_config(31);
  config.slots = 24;
  config.cross_check = true;
  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 24u);
  for (const SlotReport& slot : report.slots) {
    EXPECT_TRUE(slot.full_reroute_matches) << "slot " << slot.slot;
    EXPECT_EQ(slot.validator_violations, 0) << "slot " << slot.slot;
  }
  // The day must actually exercise the incremental machinery, otherwise the
  // lane proves nothing.
  EXPECT_GT(report.carried_slots + report.incremental_slots, 0);
}

TEST(ServingLoop, StaticWorkloadCarriesEverySlot) {
  ServingConfig config = small_config(7);
  config.slots = 6;
  config.mobility.move_prob = 0.0;
  config.drift_prob = 0.0;
  config.full_replan_period = 0;
  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 6u);
  EXPECT_EQ(report.slots[0].mode, SlotMode::kReplan);
  for (std::size_t i = 1; i < report.slots.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(report.slots[i].slot));
    EXPECT_EQ(report.slots[i].mode, SlotMode::kCarried);
    EXPECT_EQ(report.slots[i].classes_recomputed, 0);
    EXPECT_EQ(report.slots[i].moved_weight_fraction, 0.0);
    EXPECT_EQ(report.slots[i].placement_churn, 0);
    EXPECT_EQ(report.slots[i].churn_cost, 0.0);
  }
}

TEST(ServingLoop, SingleMovedClassRecomputesExactlyOne) {
  ServingConfig config = small_config(13);
  config.slots = 4;
  config.mobility.move_prob = 0.0;
  config.drift_prob = 0.0;
  config.full_replan_period = 0;
  // Slot 2: give user 0 a unique deadline — a demand tuple no cached class
  // has — so exactly one class moves. The change persists, so slot 3 finds
  // it cached again and carries everything.
  config.workload_hook = [](int slot,
                            std::vector<workload::UserRequest>& requests) {
    if (slot == 2) requests[0].deadline = requests[0].deadline * 2.0 + 1.0;
  };
  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 4u);
  EXPECT_EQ(report.slots[1].mode, SlotMode::kIncremental);
  EXPECT_EQ(report.slots[1].classes_recomputed, 1);
  EXPECT_EQ(report.slots[1].classes_carried, report.slots[1].classes - 1);
  EXPECT_EQ(report.slots[1].placement_churn, 0);  // placement was carried
  EXPECT_EQ(report.slots[2].mode, SlotMode::kCarried);
  EXPECT_EQ(report.slots[2].classes_recomputed, 0);
  EXPECT_EQ(report.slots[3].mode, SlotMode::kCarried);
}

TEST(ServingLoop, PeriodicReplanFiresOnSchedule) {
  ServingConfig config = small_config(17);
  config.slots = 7;
  config.mobility.move_prob = 0.0;
  config.drift_prob = 0.0;
  config.full_replan_period = 3;  // slots 4 and 7 replan (1 always does)
  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 7u);
  EXPECT_EQ(report.slots[0].mode, SlotMode::kReplan);
  EXPECT_EQ(report.slots[3].mode, SlotMode::kReplan);
  EXPECT_EQ(report.slots[6].mode, SlotMode::kReplan);
  EXPECT_EQ(report.slots[1].mode, SlotMode::kCarried);
  EXPECT_EQ(report.slots[2].mode, SlotMode::kCarried);
  EXPECT_EQ(report.slots[4].mode, SlotMode::kCarried);
  EXPECT_EQ(report.slots[5].mode, SlotMode::kCarried);
}

TEST(ServingLoop, HeavyDriftTriggersReplan) {
  ServingConfig config = small_config(19);
  config.slots = 3;
  config.mobility.move_prob = 0.9;
  config.mobility.local_hop_prob = 0.2;
  config.drift_prob = 0.5;
  config.replan_weight_threshold = 0.0;  // any movement forces a replan
  config.full_replan_period = 0;
  const ServingReport report = ServingLoop(config).run();
  EXPECT_EQ(report.slots[1].mode, SlotMode::kReplan);
  EXPECT_EQ(report.slots[1].classes_recomputed, report.slots[1].classes);
  EXPECT_GT(report.slots[1].moved_weight_fraction, 0.0);
}

TEST(ServingReport, CsvIsDeterministicAndExcludesWallClock) {
  ServingConfig config = small_config(29);
  config.slots = 5;
  const std::string path_a = "test_serving_a.csv";
  const std::string path_b = "test_serving_b.csv";
  ServingLoop(config).run().write_csv(path_a);
  ServingLoop(config).run().write_csv(path_b);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  const std::string a = slurp(path_a);
  const std::string b = slurp(path_b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("slot,mode,classes"), std::string::npos);
  EXPECT_EQ(a.find("control"), std::string::npos);  // no wall-clock column
  // Header plus one row per slot.
  EXPECT_EQ(std::count(a.begin(), a.end(), '\n'), 6);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(ServingLoop, StepBeyondRunExtendsTheDay) {
  ServingConfig config = small_config(37);
  config.slots = 3;
  ServingLoop loop(config);
  loop.run();
  const SlotReport extra = loop.step();
  EXPECT_EQ(extra.slot, 4);
  EXPECT_EQ(loop.slot(), 4);
}

/// Per-slot shard bookkeeping must match too (excluded from
/// expect_slots_equal because unsharded-vs-sharded comparisons legitimately
/// differ there).
void expect_shard_fields_equal(const std::vector<SlotReport>& a,
                               const std::vector<SlotReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("slot " + std::to_string(a[i].slot));
    EXPECT_EQ(a[i].shards_resolved, b[i].shards_resolved);
    EXPECT_EQ(a[i].repriced, b[i].repriced);
  }
}

TEST(ServingLoop, OneMetroShardedDayIsByteIdenticalToUnsharded) {
  // The serve→shard seam's identity lane: with one metro the shard plan is
  // trivial, the coordinator short-circuits at μ = 0, and the warm rung is
  // the legacy OnlineSoCL — so the whole day, slot for slot and column for
  // column, must reproduce the existing ServingLoop path bit for bit.
  ServingConfig base = small_config(41);
  base.slots = 12;
  base.metros = 1;
  ServingConfig sharded = base;
  sharded.sharded = true;

  const ServingReport a = ServingLoop(base).run();
  const ServingReport b = ServingLoop(sharded).run();
  expect_slots_equal(a.slots, b.slots);

  const std::string path_a = "test_serving_unsharded.csv";
  const std::string path_b = "test_serving_sharded.csv";
  a.write_csv(path_a);
  b.write_csv(path_b);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  const std::string csv_a = slurp(path_a);
  EXPECT_FALSE(csv_a.empty());
  EXPECT_EQ(csv_a, slurp(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(ServingLoop, ShardedTwoMetroDayWithCrossMetroChurnIsClean) {
  // The sharded differential day: cross-metro commuters re-home between
  // shards through the dense remap every slot, and the cross-check lane
  // (full global re-route equality + SolutionValidator) must stay clean on
  // the merged placement throughout.
  ServingConfig config = small_config(43);
  config.scenario.num_nodes = 5;  // per metro
  config.metros = 2;
  config.sharded = true;
  config.cross_metro_prob = 0.08;
  config.cross_check = true;
  config.slots = 12;
  // Each shard must cover its own used microservices (no cross-shard
  // sharing of instances), so the decomposition's coverage floor is ~2× the
  // single-substrate one — budget the day accordingly.
  config.scenario.constants.budget = 13000.0;

  // Node ids are metro-major (metro = attach_node / nodes_per_metro), so the
  // workload hook can watch users actually cross the shard boundary.
  int crossings = 0;
  std::vector<int> prev_metro;
  config.workload_hook = [&](int,
                             std::vector<workload::UserRequest>& requests) {
    std::vector<int> metro(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      metro[i] = requests[i].attach_node / 5;
    }
    if (!prev_metro.empty()) {
      for (std::size_t i = 0; i < metro.size(); ++i) {
        if (metro[i] != prev_metro[i]) ++crossings;
      }
    }
    prev_metro = std::move(metro);
  };

  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 12u);
  EXPECT_GT(crossings, 0);
  EXPECT_GT(report.shards_resolved, 0);
  for (const SlotReport& slot : report.slots) {
    EXPECT_TRUE(slot.full_reroute_matches) << "slot " << slot.slot;
    EXPECT_EQ(slot.validator_violations, 0) << "slot " << slot.slot;
  }
}

TEST(ServingLoop, ShardedReplanResolvesOnlyTheMovedShard) {
  // Per-shard selectivity of the serving rung: a demand change confined to
  // metro 0 must re-run exactly one shard's rung at the frozen price — no
  // global re-price, no touch of metro 1.
  ServingConfig config = small_config(47);
  config.scenario.num_nodes = 5;  // per metro
  config.metros = 2;
  config.sharded = true;
  config.slots = 4;
  config.mobility.move_prob = 0.0;
  config.drift_prob = 0.0;
  config.full_replan_period = 0;
  config.replan_weight_threshold = 0.0;  // any movement forces a replan
  config.workload_hook = [](int slot,
                            std::vector<workload::UserRequest>& requests) {
    if (slot != 2) return;
    for (auto& request : requests) {
      if (request.attach_node < 5) {  // metro 0
        request.deadline = request.deadline * 2.0 + 1.0;
        break;
      }
    }
  };

  const ServingReport report = ServingLoop(config).run();
  ASSERT_EQ(report.slots.size(), 4u);
  EXPECT_EQ(report.slots[1].mode, SlotMode::kReplan);
  EXPECT_EQ(report.slots[1].shards_resolved, 1);
  EXPECT_FALSE(report.slots[1].repriced);
  // The change persists, so later slots carry: the shard machinery is idle.
  EXPECT_EQ(report.slots[2].mode, SlotMode::kCarried);
  EXPECT_EQ(report.slots[2].shards_resolved, 0);
  EXPECT_EQ(report.slots[3].shards_resolved, 0);
}

TEST(ServingLoop, SlotEconomicsMatchTheEvaluatorOnEveryRung) {
  // Every rung builds its class routes through one function, so a slot's
  // objective must be exactly what the evaluator scores for the slot's
  // placement under a from-scratch route of the whole workload — on
  // carried, incremental and replan slots, unsharded and sharded alike.
  int incremental = 0;
  for (const bool sharded : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      ServingConfig config = small_config(seed);
      if (sharded) {
        config.metros = 2;
        config.sharded = true;
        config.scenario.constants.budget = 13000.0;  // 2× coverage floor
      }
      ServingLoop loop(config);
      for (int slot = 1; slot <= config.slots; ++slot) {
        const SlotReport report = loop.step();
        SCOPED_TRACE((sharded ? "sharded seed " : "unsharded seed ") +
                     std::to_string(seed) + " slot " + std::to_string(slot) +
                     " mode " + slot_mode_name(report.mode));
        const core::ChainRouter router(loop.scenario());
        const auto full = router.route_all(loop.placement());
        ASSERT_TRUE(full.has_value());
        const core::Evaluator evaluator(loop.scenario());
        EXPECT_EQ(report.objective,
                  evaluator.evaluate(loop.placement(), *full).objective);
        if (report.mode == SlotMode::kIncremental) ++incremental;
      }
    }
  }
  // Incremental slots are the rung whose cache entries mix reused and
  // freshly routed classes; the days must actually reach it.
  EXPECT_GT(incremental, 0);
}

TEST(ServingLoop, ShardedDayIsDeterministicAcrossRunsAndThreadCounts) {
  ServingConfig config = small_config(53);
  config.scenario.num_nodes = 5;  // per metro
  config.metros = 2;
  config.sharded = true;
  config.cross_metro_prob = 0.1;
  config.slots = 10;
  config.scenario.constants.budget = 13000.0;  // 2× coverage floor

  const ServingReport first = ServingLoop(config).run();
  const ServingReport second = ServingLoop(config).run();
  expect_slots_equal(first.slots, second.slots);
  expect_shard_fields_equal(first.slots, second.slots);

  ServingConfig threaded = config;
  threaded.shard.threads = 2;
  threaded.shard.shard_threads = 1;
  const ServingReport third = ServingLoop(threaded).run();
  expect_slots_equal(first.slots, third.slots);
  expect_shard_fields_equal(first.slots, third.slots);
}

}  // namespace
}  // namespace socl::serve
