// "Day in the life" serving bench: drives the online serving loop
// (src/serve/) over a simulated day — diurnal + bursty arrival intensity,
// mobility churn, and workload drift — at an aggregated million-user
// population, and reports per-slot control decisions, SLO attainment,
// cold-start rate, placement churn, and control-plane latency.
//
// The interesting number is the recompute fraction: with request-class
// aggregation plus the tuple-keyed route cache, a dense population keeps the
// class set nearly stable across slots even though individual users churn,
// so most slots carry or incrementally patch the plan instead of re-solving.
//
// Part 2 is the sharded head-to-head: the same multi-metro day —
// cross-metro commuters re-homing between shards — served once through the
// single-address-space OnlineSoCL replan rung and once through the
// geo-sharded coordinator (shard::ShardedSoCL::step, per-metro warm rungs at
// the frozen budget price), with the cross-check lane on. The headline is
// the mean per-slot control latency ratio; `--check` gates the structural
// claims instead: zero validator violations and a clean full-re-route match
// on every sharded slot, and a 1-metro sharded day whose CSV is
// byte-identical to the unsharded loop's.
//
// Part 3 is warm-start vs from-scratch online control: two short days on
// the tiny configuration (in both modes) that replan every slot, once
// through the warm-start repair and once forcing a full SoCL solve every
// slot. It reports objective, churn, cold starts and control latency;
// `--check` gates that re-solving from scratch churns more instances than
// the warm start.
//
// SOCL_BENCH_TINY shrinks the population to smoke-test size (CI runs it
// twice and diffs the CSVs for bit-identical determinism); SOCL_BENCH_CSV
// writes the per-slot series to bench_serving.csv (legacy day) and
// bench_serving_sharded.csv (sharded multi-metro day), and Part 3's
// deterministic summary to bench_serving_online.csv.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "serve/serving_loop.h"
#include "util/timer.h"

namespace socl {
namespace {

serve::ServingConfig day_config(bool tiny) {
  // Shared with bench_chaos (no-chaos identity gate) — see bench_common.h.
  return bench::serving_day_config(tiny);
}

/// The multi-metro day of the head-to-head: same knobs as the legacy day,
/// the substrate swapped for `metros` stitched metros and a cross-metro
/// re-homing process layered on the mobility churn. The budget scales with
/// the metro count: each shard must cover its own used microservices, so
/// the decomposition's coverage floor is ~metros × the single-metro one.
serve::ServingConfig metro_config(bool tiny, int metros) {
  serve::ServingConfig config = day_config(tiny);
  config.metros = metros;
  config.scenario.num_nodes = tiny ? 6 : 8;  // per metro
  config.scenario.constants.budget = 6500.0 * metros;
  if (metros > 1) config.cross_metro_prob = 0.05;
  config.cross_check = true;
  return config;
}

void print_day(const serve::ServingReport& report) {
  util::Table table({"slot", "mode", "classes", "recomp", "moved%", "churn",
                     "prewarm", "requests", "slo", "cold_rate", "shards",
                     "repriced", "control_ms"});
  for (const serve::SlotReport& slot : report.slots) {
    table.row()
        .integer(slot.slot)
        .cell(serve::slot_mode_name(slot.mode))
        .integer(slot.classes)
        .integer(slot.classes_recomputed)
        .num(100.0 * slot.moved_weight_fraction, 2)
        .integer(slot.placement_churn)
        .integer(slot.prewarm_ahead_hits)
        .integer(slot.requests_completed)
        .num(slot.slo_attainment, 4)
        .num(slot.cold_start_rate, 4)
        .integer(slot.shards_resolved)
        .integer(slot.repriced ? 1 : 0)
        .num(slot.control_s * 1e3, 2);
  }
  table.print(std::cout);
}

bool cross_check_clean(const serve::ServingReport& report,
                       const std::string& label) {
  bool clean = true;
  for (const serve::SlotReport& slot : report.slots) {
    if (!slot.full_reroute_matches || slot.validator_violations != 0) {
      std::cerr << label << ": cross-check failed at slot " << slot.slot
                << " (" << slot.validator_violations << " violations"
                << (slot.full_reroute_matches ? "" : ", re-route mismatch")
                << ")\n";
      clean = false;
    }
  }
  return clean;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The identity lane: a compact 1-metro day served unsharded and sharded
/// must produce byte-identical CSVs (the trivial plan short-circuits at
/// μ = 0 and the warm rung is the legacy OnlineSoCL). Exactness does not
/// depend on scale, so the lane stays compact in full mode too.
bool identity_lane() {
  serve::ServingConfig base;
  base.scenario.num_nodes = 8;
  base.scenario.num_users = 30;
  base.population = 2000;
  base.slots = 12;
  base.slot_horizon_s = 6.0;
  base.arrivals.mean_rate = 0.05;
  base.mobility.move_prob = 0.3;
  base.drift_prob = 0.02;
  base.full_replan_period = 8;
  base.seed = 2026;
  base.metros = 1;
  serve::ServingConfig sharded = base;
  sharded.sharded = true;

  const std::string path_a = "bench_serving_identity_unsharded.csv";
  const std::string path_b = "bench_serving_identity_sharded.csv";
  serve::ServingLoop(base).run().write_csv(path_a);
  serve::ServingLoop(sharded).run().write_csv(path_b);
  const std::string a = slurp(path_a);
  const bool identical = !a.empty() && a == slurp(path_b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::cout << "identity lane (1 metro, sharded vs unsharded CSV): "
            << (identical ? "byte-identical" : "MISMATCH") << '\n';
  return identical;
}

/// Part 3: the warm-start online controller vs a full re-solve every slot.
/// Both days replan on every slot (full_replan_period = 1); the from-scratch
/// day also forces OnlineSoCL's periodic full re-solve on every step. The
/// days are tiny in both modes: the claim is structural, not about scale.
bool online_lane() {
  serve::ServingConfig warm = bench::serving_day_config(/*tiny=*/true);
  warm.slots = 8;
  warm.full_replan_period = 1;
  serve::ServingConfig from_scratch = warm;
  from_scratch.online.full_resolve_period = 1;
  bench::banner("Online control",
                "warm-start replan vs full re-solve every slot, " +
                    std::to_string(warm.slots) + " slots, population " +
                    std::to_string(warm.population) + " users");

  const serve::ServingReport warm_day = serve::ServingLoop(warm).run();
  const serve::ServingReport scratch_day =
      serve::ServingLoop(from_scratch).run();

  const auto mean_objective = [](const serve::ServingReport& day) {
    double total = 0.0;
    for (const serve::SlotReport& slot : day.slots) total += slot.objective;
    return total / static_cast<double>(day.slots.size());
  };
  // control_ms is wall-clock, so the CSV mirror leaves it out.
  util::Table table({"day", "mean_objective", "churn", "churn_cost",
                     "cold_rate", "prewarm_hits"});
  const auto add_row = [&](const char* name,
                           const serve::ServingReport& day) {
    table.row()
        .cell(name)
        .num(mean_objective(day), 1)
        .integer(day.churn_instances)
        .num(day.churn_cost, 1)
        .num(day.cold_start_rate(), 4)
        .integer(day.prewarm_ahead_hits);
  };
  add_row("warm", warm_day);
  add_row("from_scratch", scratch_day);
  table.print(std::cout);
  bench::maybe_write_csv(table, "bench_serving_online");

  const auto slots = static_cast<double>(warm_day.slots.size());
  std::cout << "objective: warm "
            << 100.0 * (mean_objective(warm_day) / mean_objective(scratch_day) -
                        1.0)
            << " % vs from scratch\n"
            << "mean control latency/slot: warm "
            << warm_day.control_s_total / slots * 1e3 << " ms, from scratch "
            << scratch_day.control_s_total / slots * 1e3 << " ms\n";

  const bool ok = scratch_day.churn_instances > warm_day.churn_instances;
  std::cout << "online lane (from-scratch churn > warm churn): "
            << (ok ? "yes" : "NO") << '\n';
  return ok;
}

}  // namespace

int run(bool check) {
  const bool tiny = bench::tiny_mode();
  const serve::ServingConfig config = day_config(tiny);
  bench::banner("Serving day",
                "online control plane over a diurnal day, population " +
                    std::to_string(config.population) + " users, " +
                    std::to_string(config.slots) + " slots");

  util::WallTimer timer;
  serve::ServingLoop loop(config);
  util::Table table({"slot", "mode", "classes", "recomp", "moved%", "churn",
                     "prewarm", "requests", "slo", "cold_rate", "intensity",
                     "control_ms"});
  serve::ServingReport report;
  for (int s = 0; s < config.slots; ++s) {
    const serve::SlotReport slot = loop.step();
    table.row()
        .integer(slot.slot)
        .cell(serve::slot_mode_name(slot.mode))
        .integer(slot.classes)
        .integer(slot.classes_recomputed)
        .num(100.0 * slot.moved_weight_fraction, 2)
        .integer(slot.placement_churn)
        .integer(slot.prewarm_ahead_hits)
        .integer(slot.requests_completed)
        .num(slot.slo_attainment, 4)
        .num(slot.cold_start_rate, 4)
        .num(slot.arrival_intensity, 3)
        .num(slot.control_s * 1e3, 2);
  }
  table.print(std::cout);

  // Re-fetch the cumulative report from the loop (run() returns the
  // accumulated state; the loop already consumed every slot).
  report = loop.run();
  std::cout << "\nday summary: " << report.summary() << '\n'
            << "control plane total: " << report.control_s_total << " s, "
            << "wall total: " << timer.elapsed_seconds() << " s\n";

  if (std::getenv("SOCL_BENCH_CSV") != nullptr) {
    report.write_csv("bench_serving.csv");
    std::cout << "(csv written to bench_serving.csv)\n";
  }

  // ---- Part 2: sharded vs unsharded head-to-head on the multi-metro day.
  const int metros = tiny ? 2 : 4;
  bench::banner("Sharded serving head-to-head",
                std::to_string(metros) +
                    " metros, cross-metro commuters, population " +
                    std::to_string(config.population) +
                    " users; replan rung: OnlineSoCL vs ShardedSoCL::step");

  const serve::ServingConfig unsharded_config = metro_config(tiny, metros);
  serve::ServingConfig sharded_config = unsharded_config;
  sharded_config.sharded = true;

  util::WallTimer unsharded_timer;
  const serve::ServingReport unsharded =
      serve::ServingLoop(unsharded_config).run();
  const double unsharded_wall = unsharded_timer.elapsed_seconds();

  util::WallTimer sharded_timer;
  const serve::ServingReport sharded =
      serve::ServingLoop(sharded_config).run();
  const double sharded_wall = sharded_timer.elapsed_seconds();

  std::cout << "\nsharded day (per-slot):\n";
  print_day(sharded);
  std::cout << "\nunsharded day summary: " << unsharded.summary() << '\n'
            << "sharded day summary:   " << sharded.summary() << '\n';

  const auto slots = static_cast<double>(sharded.slots.size());
  const double unsharded_mean = unsharded.control_s_total / slots;
  const double sharded_mean = sharded.control_s_total / slots;
  std::cout << "mean control latency/slot: unsharded "
            << unsharded_mean * 1e3 << " ms, sharded " << sharded_mean * 1e3
            << " ms, ratio " << unsharded_mean / sharded_mean << "x\n"
            << "wall: unsharded " << unsharded_wall << " s, sharded "
            << sharded_wall << " s\n";

  if (std::getenv("SOCL_BENCH_CSV") != nullptr) {
    sharded.write_csv("bench_serving_sharded.csv");
    std::cout << "(csv written to bench_serving_sharded.csv)\n";
  }

  // The gated claims are the sharded ones: a violation-free, cross-check
  // clean sharded day and the 1-metro identity. The unsharded control lane
  // is reported but not gated — the single-address-space greedy can
  // marginally overspend Eq. 5 at coverage-tight budgets (it deploys
  // coverage first and has no price to shed against), which is precisely
  // the failure mode the coordinator's dual pricing avoids.
  bool ok = true;
  ok = cross_check_clean(sharded, "sharded day") && ok;
  ok = identity_lane() && ok;
  const bool control_clean = cross_check_clean(unsharded, "unsharded day");
  if (!control_clean) {
    std::cout << "(note: unsharded control-lane violations are reported, "
                 "not gated)\n";
  }

  // ---- Part 3: warm-start vs from-scratch online control.
  ok = online_lane() && ok;
  if (check) {
    // The control-latency ratio is hardware-dependent and stays a reported
    // number; the structural claims gate.
    std::cout << "--check: " << (ok ? "all lanes clean" : "FAILED") << '\n';
    return ok ? 0 : 1;
  }
  if (!ok) std::cout << "(warning: a sharded serving lane reported a violation)\n";
  return 0;
}

}  // namespace socl

int main(int argc, char** argv) {
  const bool check = argc > 1 && std::string(argv[1]) == "--check";
  return socl::run(check);
}
