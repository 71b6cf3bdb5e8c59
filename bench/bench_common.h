// Shared helpers for the figure-regeneration benches. Each bench binary is
// standalone: it builds the paper's scenario family, runs the algorithms,
// and prints the figure's series as a fixed-width table (CSV mirrors are
// written next to the binary when SOCL_BENCH_CSV is set).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "baselines/gcog.h"
#include "baselines/jdr.h"
#include "baselines/random_provision.h"
#include "serve/serving_loop.h"
#include "util/table.h"

namespace socl::bench {

/// Paper-default scenario family (Section V-A): eshopOnContainers catalog,
/// National-Stadium topology, cost budget in [5000, 8000].
inline core::ScenarioConfig paper_config(int nodes, int users,
                                         double budget = 6500.0) {
  core::ScenarioConfig config;
  config.num_nodes = nodes;
  config.num_users = users;
  config.constants.budget = budget;
  return config;
}

/// The canonical "day in the life" serving configuration shared by
/// bench_serving and bench_chaos: bench_chaos's no-chaos identity gate
/// byte-compares the two binaries' CSVs, so they must build the exact same
/// day from one definition.
inline serve::ServingConfig serving_day_config(bool tiny) {
  serve::ServingConfig config;
  if (tiny) {
    config.scenario.num_nodes = 8;
    config.scenario.num_users = 30;  // templates
    config.population = 2000;
    config.slot_horizon_s = 6.0;
    config.arrivals.mean_rate = 0.05;
    config.runtime.concurrency = 2;
    config.runtime.max_containers_per_pool = 4;
  } else {
    config.scenario.num_nodes = 16;
    config.scenario.num_users = 200;  // templates
    config.population = 1'000'000;
    config.slot_horizon_s = 30.0;
    config.arrivals.mean_rate = 1e-4;
  }
  config.slots = 24;
  config.mobility.move_prob = 0.3;
  config.drift_prob = 0.02;
  config.diurnal_amplitude = 1.0;
  config.full_replan_period = 8;
  config.seed = 2026;
  return config;
}

/// Prints the figure header banner.
inline void banner(const std::string& figure, const std::string& caption) {
  std::cout << "==============================================================="
               "=\n"
            << figure << ": " << caption << '\n'
            << "==============================================================="
               "=\n";
}

/// True when SOCL_BENCH_TINY is set: benches shrink their scenario/slot
/// counts to smoke-test size so CI can execute every binary end-to-end.
inline bool tiny_mode() { return std::getenv("SOCL_BENCH_TINY") != nullptr; }

/// Writes the CSV mirror when SOCL_BENCH_CSV is set in the environment.
inline void maybe_write_csv(const util::Table& table,
                            const std::string& name) {
  if (std::getenv("SOCL_BENCH_CSV") != nullptr) {
    table.write_csv(name + ".csv");
    std::cout << "(csv written to " << name << ".csv)\n";
  }
}

}  // namespace socl::bench
