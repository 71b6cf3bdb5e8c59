// Scenario: one fully-specified problem instance — the substrate network,
// the application catalog, the user requests, and the optimization constants
// of Section III (λ, K^max, per-user D_h^max). Precomputes the routing
// tables, virtual links, and the demand indices every SoCL stage consumes:
//   V(m_i)     nodes hosting at least one request for m_i
//   |U_vk^mi|  users at node k whose chain contains m_i
//   r_i(k)     aggregate inbound data volume for m_i at node k (the r_i of
//              Eq. 12/13, interpreted as data so r/B' is a delay)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/graph.h"
#include "net/shortest_path.h"
#include "net/topology.h"
#include "net/virtual_link.h"
#include "workload/catalog.h"
#include "workload/microservice.h"
#include "workload/request_classes.h"
#include "workload/request_gen.h"

namespace socl::core {

using net::NodeId;
using workload::MsId;

/// Optimization constants of the problem formulation.
struct ProblemConstants {
  /// Cost/latency trade-off weight λ in Eq. (3); cost gets λ, latency 1-λ.
  double lambda = 0.5;
  /// Global provisioning budget K^max (Eq. 5).
  double budget = 6500.0;
  /// Scales latency into objective units so that cost and latency terms are
  /// commensurate (the paper's objective magnitudes imply such a scale).
  double latency_weight = 10.0;
};

/// An immutable problem instance plus derived lookup tables.
class Scenario {
 public:
  Scenario(net::EdgeNetwork network, const workload::AppCatalog& catalog,
           std::vector<workload::UserRequest> requests,
           ProblemConstants constants);

  const net::EdgeNetwork& network() const { return network_; }
  const workload::AppCatalog& catalog() const { return *catalog_; }
  const std::vector<workload::UserRequest>& requests() const {
    return requests_;
  }
  const workload::UserRequest& request(int h) const {
    return requests_.at(static_cast<std::size_t>(h));
  }
  const ProblemConstants& constants() const { return constants_; }

  const net::ShortestPaths& paths() const { return *paths_; }
  const net::VirtualLinks& vlinks() const { return *vlinks_; }

  int num_nodes() const { return static_cast<int>(network_.num_nodes()); }
  int num_microservices() const { return catalog_->num_microservices(); }
  int num_users() const { return static_cast<int>(requests_.size()); }

  /// Request-class aggregation of the current workload (rebuilt alongside
  /// the demand indices — attach nodes are part of the class key).
  const workload::RequestClasses& classes() const { return classes_; }

  /// Monotone counter bumped on every workload reindex (mobility refresh or
  /// set_requests). Consumers caching per-class state key off this to detect
  /// a stale view of the workload. set_requests() with a workload whose
  /// per-user demand tuples are all unchanged (same ids, same Eq. 2 fields)
  /// is a no-op for the epoch — per-class route caches stay valid and no
  /// reindex runs, so an idle mobility slot costs nothing downstream.
  std::uint64_t workload_epoch() const { return workload_epoch_; }

  /// Monotone counter bumped on every substrate swap (set_network). The
  /// serving loop keys graceful degradation off this: any movement forces
  /// the replan rung, because carried/incremental plans embed routes that
  /// may traverse links the new substrate no longer has.
  std::uint64_t substrate_epoch() const { return substrate_epoch_; }

  /// V(m_i): nodes with at least one attached user requesting m_i.
  const std::vector<NodeId>& demand_nodes(MsId m) const {
    return demand_nodes_.at(static_cast<std::size_t>(m));
  }

  /// |U_vk^mi|: number of users at node k whose chain contains m_i.
  int demand_count(MsId m, NodeId k) const {
    return demand_count_[static_cast<std::size_t>(m) *
                             static_cast<std::size_t>(num_nodes()) +
                         static_cast<std::size_t>(k)];
  }

  /// r_i(k): total inbound data volume for m_i across users at node k
  /// (chain-edge data into m_i; upload payload when m_i is the chain head).
  double demand_data(MsId m, NodeId k) const {
    return demand_data_[static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(num_nodes()) +
                        static_cast<std::size_t>(k)];
  }

  /// Inbound data volume of m at a specific request (0 if not in chain).
  double request_inbound_data(const workload::UserRequest& request,
                              MsId m) const;

  /// Replaces the requests (e.g. a new simulation slot) and reindexes.
  /// Skips the reindex and the workload-epoch bump when every request's
  /// demand tuple is unchanged (exact comparison, not fingerprints).
  void set_requests(std::vector<workload::UserRequest> requests);

  /// Replaces the substrate network (failure injection / repair in the
  /// chaos lane). The node set must keep the same cardinality — node ids
  /// stay stable so placements and attachments keep indexing the same
  /// servers; links may appear, vanish, or change rate. Rebuilds the
  /// routing tables and virtual links and bumps BOTH epochs: the
  /// substrate epoch (replan trigger) and the workload epoch (per-class
  /// route caches and scoring-kernel delay tables are network-dependent,
  /// so a cache hit across a substrate swap would serve stale routes).
  /// Demand indices are untouched — they depend only on the requests.
  void set_network(net::EdgeNetwork network);

  /// Replaces the optimization constants (λ, K^max, latency weight). No
  /// derived index depends on them — routing tables, virtual links, and the
  /// demand indices are pure functions of the network and the workload — so
  /// this is O(1) and never bumps the workload epoch. The geo-sharded
  /// decomposition solver re-prices its sub-problems through this seam
  /// (dual ascent on the budget multiplier, DESIGN.md §4j).
  void set_constants(const ProblemConstants& constants) {
    constants_ = constants;
  }

 private:
  /// Rebuilds the demand indices and the request classes from requests_
  /// and bumps the workload epoch.
  void refresh_demand_indices();

  /// True when `requests` matches requests_ element-wise on (id, demand
  /// tuple) — the condition under which every derived index stays valid.
  bool workload_unchanged(
      const std::vector<workload::UserRequest>& requests) const;

  net::EdgeNetwork network_;
  const workload::AppCatalog* catalog_;
  std::vector<workload::UserRequest> requests_;
  ProblemConstants constants_;

  std::unique_ptr<net::ShortestPaths> paths_;
  std::unique_ptr<net::VirtualLinks> vlinks_;

  std::vector<std::vector<NodeId>> demand_nodes_;
  std::vector<int> demand_count_;
  std::vector<double> demand_data_;
  workload::RequestClasses classes_;
  std::uint64_t workload_epoch_ = 0;
  std::uint64_t substrate_epoch_ = 0;
};

/// End-to-end scenario factory mirroring the paper's experimental setup.
struct ScenarioConfig {
  int num_nodes = 10;
  int num_users = 40;
  ProblemConstants constants;
  net::TopologyConfig topology;
  workload::RequestGenConfig requests;
  bool use_tiny_catalog = false;
  /// Explicit catalog override (wins over use_tiny_catalog when set); must
  /// outlive the scenario. Defaults to the eshopOnContainers catalog.
  const workload::AppCatalog* catalog = nullptr;
};

Scenario make_scenario(const ScenarioConfig& config, std::uint64_t seed);

}  // namespace socl::core
