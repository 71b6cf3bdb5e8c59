// User mobility: users move between edge-server coverage areas over time,
// shifting request trigger locations (challenge ① in Section I). The model
// is a coverage-level random waypoint: each slot a user either stays, hops
// to a neighbouring base station (local movement), or jumps to a random
// hotspot-weighted station (vehicle/transit movement).
#pragma once

#include <vector>

#include "net/graph.h"
#include "util/rng.h"
#include "workload/microservice.h"

namespace socl::workload {

struct MobilityConfig {
  /// Per-slot probability that a user moves at all.
  double move_prob = 0.4;
  /// Given a move, probability it is a local hop to a neighbour station
  /// (otherwise a weighted jump anywhere).
  double local_hop_prob = 0.8;
};

/// Mutates attach nodes of `requests` in place, one simulation slot.
/// `weights` biases non-local jumps (same hotspot weights the generator
/// used). Deterministic in the provided rng stream.
void mobility_step(const net::EdgeNetwork& network,
                   std::vector<UserRequest>& requests,
                   const std::vector<double>& weights,
                   const MobilityConfig& config, util::Rng& rng);

/// Moves displaced users onto their nearest usable surviving station
/// (net::failover_targets): users whose attach node failed, and users
/// whose alive attach node was stripped of every usable link by link
/// failures. Healthy attachments are untouched. Returns the number of
/// users actually moved — the honest displaced count (counting only users
/// on dead attach nodes would miss the link-isolated ones). Throws
/// std::runtime_error when a user on a FAILED node has no surviving
/// target; link-isolated users with nowhere better to go stay put and
/// are served locally.
int reattach_users(const net::EdgeNetwork& degraded,
                   const std::vector<net::NodeId>& failed_nodes,
                   std::vector<UserRequest>& requests);

}  // namespace socl::workload
