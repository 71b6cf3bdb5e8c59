// Kubernetes-testbed emulator (Section V-C substitution).
//
// The paper validates on 17 machines (2 cores / 2 GB each, 1-2 Gbit/s) —
// 8 or 16 edge nodes plus a master that dispatches requests and records
// latency. This emulator reproduces that measurement pipeline: a placement +
// assignment is "deployed", then individual requests are dispatched through
// the chain and timed in milliseconds with
//   - per-hop transfer times over the testbed's Gbit/s links,
//   - per-instance processing with M/M/1-style queueing inflation from the
//     node's utilisation (2-core machines saturate visibly),
//   - log-normal service jitter (container runtime noise).
// Absolute numbers depend on the scale constants; the algorithm ranking and
// the stability behaviour (max-latency spikes) are what Fig. 9/10 compare.
#pragma once

#include <cstdint>
#include <vector>

#include "core/evaluator.h"
#include "util/rng.h"

namespace socl::sim {

struct TestbedConfig {
  /// Converts workload data units into testbed megabits (real HTTP payloads
  /// are far smaller than the simulator's bulk flows; the testbed runs a
  /// scaled-down replica of the workload).
  double data_to_megabits = 0.05;
  /// Link speed range in Gbit/s (paper: 1-2 Gbit/s machines).
  double link_gbps_min = 1.0;
  double link_gbps_max = 2.0;
  /// Per-core service rate in GFLOP/s and cores per machine.
  double core_gflops = 4.0;
  int cores = 2;
  /// Log-normal jitter sigma on processing times.
  double jitter_sigma = 0.25;
  /// Per-request arrival rate per user (requests/s) used for utilisation.
  /// The default puts moderately loaded nodes near ~30% utilisation, so
  /// capacity-blind routing that concentrates traffic visibly queues.
  double arrival_rate = 0.03;
};

/// Per-request latency sample in milliseconds.
struct LatencySample {
  int user = -1;
  double latency_ms = 0.0;
};

class TestbedEmulator {
 public:
  /// Assigns testbed link speeds deterministically from `seed`.
  TestbedEmulator(const core::Scenario& scenario, const TestbedConfig& config,
                  std::uint64_t seed);

  /// Dispatches `rounds` requests per user through the assignment and
  /// returns all latency samples.
  std::vector<LatencySample> measure(const core::Placement& placement,
                                     const core::Assignment& assignment,
                                     int rounds, std::uint64_t seed) const;

  /// Node utilisation implied by the assignment (exposed for tests).
  std::vector<double> utilisation(const core::Assignment& assignment) const;

 private:
  double hop_ms(double data_units, core::NodeId a, core::NodeId b) const;

  const core::Scenario* scenario_;
  TestbedConfig config_;
  /// Per physical link Gbit/s speed, indexed by LinkId.
  std::vector<double> link_gbps_;
};

}  // namespace socl::sim
