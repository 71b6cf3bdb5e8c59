// Multi-metro substrate topologies: M independent metro deployments (each
// one an instance of the paper's geometric generator around its own anchor)
// stitched together by a *backhaul link class* — long-haul links between one
// gateway node per metro, with WAN-grade rates well below the [20, 80] GB/s
// intra-metro band. The metro membership map and the backhaul link ids are
// returned alongside the network so the geo-sharded decomposition solver
// (src/shard/, DESIGN.md §4j) can derive its shard plan directly: one shard
// per metro, the backhaul links forming the (relaxed) coupling boundary.
//
// With a single gateway per metro every simple path between two nodes of the
// same metro stays inside that metro (leaving and re-entering would revisit
// the gateway), so per-metro min-hop tables and virtual-link rates are
// *exactly* the global ones restricted to the metro — the property that
// makes per-shard routing bit-compatible with global routing (test_shard
// pins it through the single-shard identity lane).
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.h"

namespace socl::net {

/// The backhaul link class: metros are stitched into a fiber ring (metro i
/// to metro i+1, wrapping).
struct BackhaulConfig {
  /// Explicit long-haul rate in GB/s (no Shannon model — provisioned fiber).
  /// Deliberately below the intra-metro band so cross-metro transfers are
  /// visibly expensive in any latency decomposition.
  double rate_gbps = 4.0;
};

struct MultiMetroConfig {
  int metros = 4;
  /// Per-metro generator parameters (num_nodes = nodes per metro).
  TopologyConfig metro;
  /// Distance between adjacent metro anchors (centres sit on a circle).
  double metro_spacing_m = 40000.0;
  BackhaulConfig backhaul;
};

/// A stitched multi-metro network plus the shard-relevant structure.
struct MultiMetroTopology {
  EdgeNetwork network;
  /// metro_of[node] in [0, metros): the metro each node belongs to.
  std::vector<int> metro_of;
  /// Link ids of the backhaul class (every inter-metro link).
  std::vector<LinkId> backhaul_links;
  /// gateway[m]: the node of metro m carrying its backhaul attachments
  /// (the metro's highest-degree node, ties to the lower id).
  std::vector<NodeId> gateways;
  int metros = 0;

  int nodes_per_metro() const {
    return metros > 0 ? static_cast<int>(metro_of.size()) / metros : 0;
  }
};

/// Generates `config.metros` independent geometric metros (seed + metro
/// index each) and stitches them with the backhaul class. Deterministic in
/// `seed`; node ids are metro-major (metro m owns the contiguous id range
/// [m * nodes_per_metro, (m+1) * nodes_per_metro)).
MultiMetroTopology make_multi_metro(const MultiMetroConfig& config,
                                    std::uint64_t seed);

}  // namespace socl::net
