#include "sim/testbed.h"

#include <algorithm>
#include <cmath>

namespace socl::sim {

using core::NodeId;

TestbedEmulator::TestbedEmulator(const core::Scenario& scenario,
                                 const TestbedConfig& config,
                                 std::uint64_t seed)
    : scenario_(&scenario), config_(config) {
  util::Rng rng(seed);
  link_gbps_.resize(scenario.network().num_links());
  for (auto& speed : link_gbps_) {
    speed = rng.uniform(config_.link_gbps_min, config_.link_gbps_max);
  }
}

double TestbedEmulator::hop_ms(double data_units, NodeId a, NodeId b) const {
  if (a == b) return 0.0;
  const auto links = scenario_->paths().path_links(a, b);
  if (links.empty()) return 1e9;  // unreachable (cannot happen: connected)
  const double megabits = data_units * config_.data_to_megabits;
  double ms = 0.0;
  for (const auto link : links) {
    const double gbps = link_gbps_[static_cast<std::size_t>(link)];
    ms += megabits / (gbps * 1000.0) * 1000.0;  // Mb / (Mb/ms)
  }
  return ms;
}

std::vector<double> TestbedEmulator::utilisation(
    const core::Assignment& assignment) const {
  const auto& catalog = scenario_->catalog();
  std::vector<double> load(scenario_->network().num_nodes(), 0.0);
  for (const auto& request : scenario_->requests()) {
    for (std::size_t pos = 0; pos < request.chain.size(); ++pos) {
      const NodeId k = assignment.node_for(request.id, static_cast<int>(pos));
      // Work offered per second = arrival rate * per-invocation GFLOP.
      load[static_cast<std::size_t>(k)] +=
          config_.arrival_rate *
          catalog.microservice(request.chain[pos]).compute_gflop;
    }
  }
  const double capacity =
      config_.core_gflops * static_cast<double>(config_.cores);
  for (auto& value : load) value = std::min(value / capacity, 0.95);
  return load;
}

std::vector<LatencySample> TestbedEmulator::measure(
    const core::Placement& placement, const core::Assignment& assignment,
    int rounds, std::uint64_t seed) const {
  (void)placement;
  const auto& catalog = scenario_->catalog();
  const auto& requests = scenario_->requests();
  const auto util = utilisation(assignment);
  const std::size_t num_users = requests.size();

  // Round-major sample layout (samples[round * U + u]). Each user draws its
  // jitter from its own RNG stream, pure in (seed, user index).
  std::vector<LatencySample> samples(static_cast<std::size_t>(rounds) *
                                     num_users);
  for (std::size_t u = 0; u < num_users; ++u) {
    const auto& request = requests[u];
    // Transfer legs and queue-inflated processing bases are deterministic;
    // only the jitter is redrawn per round.
    double transfer_ms = 0.0;
    std::vector<double> stage_ms(request.chain.size());
    NodeId prev = request.attach_node;
    NodeId first = net::kInvalidNode;
    for (std::size_t pos = 0; pos < request.chain.size(); ++pos) {
      const NodeId k = assignment.node_for(request.id, static_cast<int>(pos));
      const double data =
          pos == 0 ? request.data_in : request.edge_data[pos - 1];
      transfer_ms += hop_ms(data, prev, k);
      // Processing with M/M/1 inflation and log-normal jitter. The
      // containers execute a scaled-down replica of the workload, so one
      // GFLOP of simulator work costs ~1 ms per core-GFLOP/s of testbed
      // capacity.
      const double base_ms =
          catalog.microservice(request.chain[pos]).compute_gflop /
          config_.core_gflops;
      const double queue_factor =
          1.0 / (1.0 - util[static_cast<std::size_t>(k)]);
      stage_ms[pos] = base_ms * queue_factor;
      if (pos == 0) first = k;
      prev = k;
    }
    transfer_ms += hop_ms(request.data_out, prev, first);

    util::Rng rng(seed ^ (0x9E3779B97F4A7C15ULL *
                          (static_cast<std::uint64_t>(u) + 1)));
    for (int round = 0; round < rounds; ++round) {
      double ms = transfer_ms;
      for (const double base : stage_ms) {
        ms += base * std::exp(rng.normal(0.0, config_.jitter_sigma));
      }
      samples[static_cast<std::size_t>(round) * num_users + u] =
          LatencySample{request.id, ms};
    }
  }
  return samples;
}

}  // namespace socl::sim
