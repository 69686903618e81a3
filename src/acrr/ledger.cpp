#include "acrr/ledger.hpp"

#include <algorithm>

namespace ovnes::acrr {

namespace {

std::size_t count_over(const std::vector<double>& used,
                       const std::vector<double>& capacity, double tol) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (used[i] > capacity[i] + tol * std::max(1.0, capacity[i])) ++n;
  }
  return n;
}

}  // namespace

Ledger::Ledger(const topo::Topology& topo)
    : radio_prbs(topo.num_bs(), 0.0),
      link_mbps(topo.graph.num_links(), 0.0),
      cpu_cores(topo.num_cu(), 0.0) {}

Ledger Ledger::capacities(const topo::Topology& topo) {
  Ledger cap;
  for (const topo::BaseStation& b : topo.base_stations()) {
    cap.radio_prbs.push_back(b.capacity);
  }
  for (const topo::Link& l : topo.graph.links()) {
    cap.link_mbps.push_back(l.capacity);
  }
  for (const topo::ComputeUnit& c : topo.compute_units()) {
    cap.cpu_cores.push_back(c.capacity);
  }
  return cap;
}

void Ledger::book(const topo::Topology& topo, const slice::ServiceModel& svc,
                  CuId cu, std::span<const double> z,
                  std::span<const topo::CandidatePath* const> paths,
                  double sign) {
  double z_sum = 0.0;
  for (std::size_t b = 0; b < z.size(); ++b) {
    z_sum += z[b];
    const auto& bs = topo.bs(BsId(static_cast<std::uint32_t>(b)));
    radio_prbs[b] += sign * (z[b] / bs.mbps_per_prb);
    if (paths[b] == nullptr) continue;
    for (LinkId e : paths[b]->links) {
      link_mbps[e.index()] += sign * (topo.graph.link(e).overhead * z[b]);
    }
  }
  cpu_cores[cu.index()] += sign * (svc.baseline + svc.cores_per_mbps * z_sum);
}

void Ledger::clear() {
  std::fill(radio_prbs.begin(), radio_prbs.end(), 0.0);
  std::fill(link_mbps.begin(), link_mbps.end(), 0.0);
  std::fill(cpu_cores.begin(), cpu_cores.end(), 0.0);
}

std::size_t Ledger::over(const Ledger& capacity, double tol) const {
  return count_over(radio_prbs, capacity.radio_prbs, tol) +
         count_over(link_mbps, capacity.link_mbps, tol) +
         count_over(cpu_cores, capacity.cpu_cores, tol);
}

}  // namespace ovnes::acrr
