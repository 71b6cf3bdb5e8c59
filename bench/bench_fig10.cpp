// Figure 10: 4-hour average-delay trace on 16 edge nodes — 50 users move
// randomly between stations and issue requests every 5 minutes with
// stochastic service dependencies. SoCL re-provisions every slot (one-shot
// online decisions); RP/JDR provision once and only re-route, the static
// strategy the paper contrasts against. The testbed emulator measures
// average dispatch delay per slot. The paper's
// takeaway: SoCL holds the lowest average delay and by far the lowest
// maximum delay (stability), with RP showing random spikes.
#include "bench_common.h"

#include <optional>

#include "sim/testbed.h"
#include "util/stats.h"
#include "workload/mobility.h"
#include "workload/request_gen.h"

int main() {
  using namespace socl;
  bench::banner("Figure 10",
                "4-hour avg-delay trace, 16 edge nodes, 50 mobile users, "
                "5-minute slots");

  const int slots = 48;  // 4 hours / 5 minutes
  const auto base_config = bench::paper_config(16, 50, 7000.0);

  const baselines::RandomProvision rp(29);
  const baselines::Jdr jdr;
  const baselines::SoCLAlgorithm socl;
  struct Entry {
    const baselines::ProvisioningAlgorithm* algorithm;
    std::vector<double> avg_ms;
    std::optional<core::Placement> placement;
  };
  std::vector<Entry> entries{{&rp, {}, std::nullopt},
                             {&jdr, {}, std::nullopt},
                             {&socl, {}, std::nullopt}};

  // Shared mobility + dependency trace (same seeds for every algorithm).
  for (auto& entry : entries) {
    core::Scenario scenario = core::make_scenario(base_config, 1234);
    const sim::TestbedEmulator testbed(scenario, {}, 55);
    util::Rng mobility_rng(77);
    util::Rng weight_rng(78);
    const auto weights = workload::attachment_weights(
        scenario.network().num_nodes(), base_config.requests, weight_rng);
    workload::MobilityConfig mobility;
    mobility.move_prob = 0.5;

    for (int slot = 0; slot < slots; ++slot) {
      auto requests = scenario.requests();
      workload::mobility_step(scenario.network(), requests, weights, mobility,
                              mobility_rng);
      // Stochastic service dependencies: refresh chains every other slot.
      if (slot % 2 == 1) {
        workload::RequestGenConfig gen = base_config.requests;
        gen.num_users = base_config.num_users;
        auto fresh = workload::generate_requests(
            scenario.network(), scenario.catalog(), gen,
            9000ULL + static_cast<std::uint64_t>(slot));
        for (std::size_t i = 0; i < requests.size(); ++i) {
          fresh[i].attach_node = requests[i].attach_node;
          fresh[i].id = requests[i].id;
        }
        requests = std::move(fresh);
      }
      scenario.set_requests(std::move(requests));

      // SoCL makes a fresh one-shot decision every slot (online feature 1);
      // the static baselines provision once at slot 0 and afterwards only
      // re-route onto their fixed deployment — the conventional static
      // strategy the paper contrasts against under user mobility.
      double avg = 0.0;
      const std::string name = entry.algorithm->name();
      const bool adaptive = name == "SoCL";
      if (adaptive || slot == 0) {
        entry.placement = entry.algorithm->solve(scenario).placement;
      }
      // Each slot re-routes onto the (possibly fixed) deployment with the
      // algorithm's own routing policy.
      std::optional<core::Assignment> assignment;
      if (name == "RP") {
        util::Rng route_rng(500ULL + static_cast<std::uint64_t>(slot));
        auto routed = baselines::random_routing(scenario, *entry.placement,
                                                route_rng);
        if (routed.consistent_with(scenario, *entry.placement)) {
          assignment = std::move(routed);
        }
      } else if (name == "JDR") {
        auto routed = baselines::jdr_routing(scenario, *entry.placement);
        if (routed.consistent_with(scenario, *entry.placement)) {
          assignment = std::move(routed);
        }
      }
      if (!assignment) {
        const core::Evaluator evaluator(scenario);
        assignment = evaluator.router().route_all(*entry.placement);
      }
      if (assignment) {
        const auto samples =
            testbed.measure(*entry.placement, *assignment,
                            /*rounds=*/3,
                            300ULL + static_cast<std::uint64_t>(slot));
        util::RunningStats stats;
        for (const auto& sample : samples) stats.add(sample.latency_ms);
        avg = stats.mean();
      }
      entry.avg_ms.push_back(avg);
    }
  }

  util::Table table({"slot(5min)", "RP_ms", "JDR_ms", "SoCL_ms"});
  for (int slot = 0; slot < slots; slot += 2) {  // print every 10 minutes
    table.row().integer(slot);
    for (const auto& entry : entries) {
      table.num(entry.avg_ms[static_cast<std::size_t>(slot)], 2);
    }
  }
  table.print(std::cout);
  bench::maybe_write_csv(table, "fig10");

  util::Table summary({"algorithm", "mean_ms", "max_ms", "stddev_ms"});
  for (const auto& entry : entries) {
    util::RunningStats stats;
    for (double v : entry.avg_ms) stats.add(v);
    summary.row()
        .cell(entry.algorithm->name())
        .num(stats.mean(), 2)
        .num(stats.max(), 2)
        .num(stats.stddev(), 2);
  }
  std::cout << "\ntrace summary (per-slot average delay)\n";
  summary.print(std::cout);
  std::cout << "\nExpected shape: SoCL lowest mean and max delay; RP decent "
               "on average but spiky;\nJDR between (paper: max delay SoCL "
               "48.84 ms vs RP 77.29 ms vs JDR 90.04 ms).\n";
  return 0;
}
