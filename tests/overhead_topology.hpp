// Test-only topologies with transport overheads η_e ≠ 1 (Eq. 3). Every
// shipped generator builds η_e = 1, so a model that drops η from the AC-RR
// master rows, the slave cuts or the svc ledger still passes on them.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "topo/generators.hpp"

namespace ovnes::test_topo {

/// `base` rebuilt link by link with η_e = eta() (one call per link, in link
/// order); nodes, BSs and CUs are copied unchanged.
template <class Eta>
topo::Topology with_overheads(const topo::Topology& base, Eta&& eta) {
  topo::Topology t;
  t.name = base.name + "+eta";
  for (const topo::Node& n : base.graph.nodes()) {
    t.graph.add_node(n.kind, n.x, n.y, n.name);
  }
  for (const topo::Link& l : base.graph.links()) {
    t.graph.add_link(l.a, l.b, l.capacity, l.tech, l.length, eta(),
                     l.extra_delay);
  }
  for (const topo::BaseStation& b : base.base_stations()) {
    t.add_bs(b.node, b.capacity, b.mbps_per_prb, b.name);
  }
  for (const topo::ComputeUnit& c : base.compute_units()) {
    t.add_cu(c.node, c.capacity, c.is_edge, c.name);
  }
  return t;
}

/// topo::make_mini's data plane with η_e drawn uniformly from [1.0, 1.2)
/// out of `eta`.
inline topo::Topology make_mini_with_overheads(std::size_t num_bs,
                                               Cores edge_cores,
                                               Cores core_cores,
                                               Micros core_delay_us,
                                               Mbps link_capacity,
                                               RngStream eta) {
  return with_overheads(topo::make_mini(num_bs, edge_cores, core_cores,
                                        core_delay_us, link_capacity),
                        [&eta] { return eta.uniform(1.0, 1.2); });
}

}  // namespace ovnes::test_topo
