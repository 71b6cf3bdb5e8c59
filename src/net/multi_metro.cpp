#include "net/multi_metro.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace socl::net {

MultiMetroTopology make_multi_metro(const MultiMetroConfig& config,
                                    std::uint64_t seed) {
  if (config.metros <= 0) {
    throw std::invalid_argument("make_multi_metro: metros <= 0");
  }
  if (config.backhaul.rate_gbps <= 0.0) {
    throw std::invalid_argument("make_multi_metro: backhaul rate <= 0");
  }

  MultiMetroTopology out;
  out.metros = config.metros;
  out.network = EdgeNetwork(config.metro.noise_w);

  // Metro anchors on a circle whose chord between adjacent metros is the
  // configured spacing (one metro degenerates to the origin).
  const int metros = config.metros;
  const double angle_step = 2.0 * std::numbers::pi / metros;
  const double ring_radius =
      metros > 1 ? config.metro_spacing_m / (2.0 * std::sin(angle_step / 2.0))
                 : 0.0;

  for (int m = 0; m < metros; ++m) {
    const EdgeNetwork metro =
        make_topology(config.metro, seed + static_cast<std::uint64_t>(m));
    const double cx = ring_radius * std::cos(angle_step * m);
    const double cy = ring_radius * std::sin(angle_step * m);
    const NodeId base = static_cast<NodeId>(out.network.num_nodes());

    for (std::size_t k = 0; k < metro.num_nodes(); ++k) {
      EdgeNode node = metro.node(static_cast<NodeId>(k));
      node.x_m += cx;
      node.y_m += cy;
      out.network.add_node(node);
      out.metro_of.push_back(m);
    }
    // Copy links with their already-derived Shannon rates: the stitched
    // network must route exactly like the standalone metro would, and only
    // rate_gbps is consumed downstream (BFS tables, virtual links).
    for (std::size_t l = 0; l < metro.num_links(); ++l) {
      const EdgeLink& link = metro.link(static_cast<LinkId>(l));
      out.network.add_link_with_rate(base + link.a, base + link.b,
                                     link.rate_gbps);
    }

    // Gateway: the metro's highest-degree node (lowest id on ties) — the
    // aggregation site a real deployment would hang its WAN uplink off.
    NodeId gateway = base;
    std::size_t best_degree = 0;
    for (std::size_t k = 0; k < metro.num_nodes(); ++k) {
      const std::size_t degree = metro.degree(static_cast<NodeId>(k));
      if (degree > best_degree) {
        best_degree = degree;
        gateway = base + static_cast<NodeId>(k);
      }
    }
    out.gateways.push_back(gateway);
  }

  // Backhaul class: the metro fiber ring over the gateways (metro i to
  // metro i+1, wrapping; two metros share a single link).
  const auto add_backhaul = [&](int ma, int mb) {
    const NodeId a = out.gateways[static_cast<std::size_t>(ma)];
    const NodeId b = out.gateways[static_cast<std::size_t>(mb)];
    if (out.network.has_link(a, b)) return;
    out.backhaul_links.push_back(
        out.network.add_link_with_rate(a, b, config.backhaul.rate_gbps));
  };
  if (metros > 1) {
    for (int m = 0; m < metros; ++m) add_backhaul(m, (m + 1) % metros);
  }
  return out;
}

}  // namespace socl::net
