#include "core/scenario.h"

#include <stdexcept>

namespace socl::core {

Scenario::Scenario(net::EdgeNetwork network,
                   const workload::AppCatalog& catalog,
                   std::vector<workload::UserRequest> requests,
                   ProblemConstants constants)
    : network_(std::move(network)),
      catalog_(&catalog),
      requests_(std::move(requests)),
      constants_(constants) {
  if (network_.num_nodes() == 0) {
    throw std::invalid_argument("Scenario: empty network");
  }
  if (constants_.lambda < 0.0 || constants_.lambda > 1.0) {
    throw std::invalid_argument("Scenario: lambda outside [0,1]");
  }
  for (const auto& request : requests_) {
    workload::validate(request, catalog_->num_microservices());
    if (request.attach_node < 0 ||
        static_cast<std::size_t>(request.attach_node) >=
            network_.num_nodes()) {
      throw std::invalid_argument("Scenario: attach node out of range");
    }
  }
  paths_ = std::make_unique<net::ShortestPaths>(network_);
  vlinks_ = std::make_unique<net::VirtualLinks>(network_, *paths_);
  refresh_demand_indices();
}

double Scenario::request_inbound_data(const workload::UserRequest& request,
                                      MsId m) const {
  const int pos = request.position_of(m);
  if (pos < 0) return 0.0;
  if (pos == 0) return request.data_in;
  return request.edge_data[static_cast<std::size_t>(pos) - 1];
}

void Scenario::refresh_demand_indices() {
  const auto nodes = static_cast<std::size_t>(num_nodes());
  const auto services = static_cast<std::size_t>(num_microservices());

  demand_nodes_.assign(services, {});
  demand_count_.assign(services * nodes, 0);
  demand_data_.assign(services * nodes, 0.0);

  for (const auto& request : requests_) {
    for (MsId m : request.chain) {
      const std::size_t idx =
          static_cast<std::size_t>(m) * nodes +
          static_cast<std::size_t>(request.attach_node);
      if (demand_count_[idx] == 0) {
        demand_nodes_[static_cast<std::size_t>(m)].push_back(
            request.attach_node);
      }
      ++demand_count_[idx];
      demand_data_[idx] += request_inbound_data(request, m);
    }
  }
  classes_ = workload::RequestClasses(requests_);
  ++workload_epoch_;
}

bool Scenario::workload_unchanged(
    const std::vector<workload::UserRequest>& requests) const {
  if (requests.size() != requests_.size()) return false;
  for (std::size_t h = 0; h < requests.size(); ++h) {
    if (requests[h].id != requests_[h].id ||
        !workload::same_request_class(requests[h], requests_[h])) {
      return false;
    }
  }
  return true;
}

void Scenario::set_requests(std::vector<workload::UserRequest> requests) {
  for (const auto& request : requests) {
    workload::validate(request, catalog_->num_microservices());
  }
  // Epoch hygiene: a slot where no demand tuple actually moved (e.g. a
  // mobility step in which every user stayed put) must not invalidate the
  // per-class route caches keyed on workload_epoch() — a spurious bump
  // forces the routing engine and scoring kernel into a full class-index /
  // SoA rebuild for a workload that is bit-identical to the one they cached.
  // Exact per-position comparison (id + demand tuple), not fingerprints, so
  // a colliding fingerprint can never mask a real change.
  if (workload_unchanged(requests)) {
    requests_ = std::move(requests);  // identical tuples; indices stay valid
    return;
  }
  requests_ = std::move(requests);
  refresh_demand_indices();
}

void Scenario::set_network(net::EdgeNetwork network) {
  if (network.num_nodes() != network_.num_nodes()) {
    throw std::invalid_argument("set_network: node count must be stable");
  }
  network_ = std::move(network);
  paths_ = std::make_unique<net::ShortestPaths>(network_);
  vlinks_ = std::make_unique<net::VirtualLinks>(network_, *paths_);
  ++substrate_epoch_;
  ++workload_epoch_;  // cached routes/delay tables are network-dependent
}

Scenario make_scenario(const ScenarioConfig& config, std::uint64_t seed) {
  net::TopologyConfig topo = config.topology;
  topo.num_nodes = config.num_nodes;
  auto network = net::make_topology(topo, seed);

  const auto& catalog =
      config.catalog != nullptr
          ? *config.catalog
          : (config.use_tiny_catalog ? workload::tiny_catalog()
                                     : workload::eshop_catalog());

  workload::RequestGenConfig reqs = config.requests;
  reqs.num_users = config.num_users;
  auto requests =
      workload::generate_requests(network, catalog, reqs, seed ^ 0x5eedULL);

  return Scenario(std::move(network), catalog, std::move(requests),
                  config.constants);
}

}  // namespace socl::core
