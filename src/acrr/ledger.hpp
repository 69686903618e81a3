// One resource tally over a topology's three capacity domains — PRBs per
// base station, Mb/s per transport link, cores per computing unit — and the
// one place that writes out what a reservation consumes. By capacity rows
// (14)–(16), a reservation z on (tenant, CU, per-BS paths) takes z_b/ρ_b
// PRBs at every BS b, η_e·z_b on every link e of b's path (Eq. 3) and
// a + b·Σ_b z_b cores on the CU.
//
// The svc shard commits and releases its admissions through a Ledger; the
// orch simulation books each epoch's reserved snapshot through one and
// counts the resources it puts over capacity. A second Ledger holds the
// capacities themselves (or a shard's budgets), so the feasibility check is
// one comparison of two tallies. acrr/exact.cpp writes the same usage out
// by hand on purpose: an oracle that shares the model cannot catch it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "slice/slice.hpp"
#include "topo/topology.hpp"

namespace ovnes::acrr {

struct Ledger {
  std::vector<double> radio_prbs;  ///< [b] PRBs
  std::vector<double> link_mbps;   ///< [e] Mb/s
  std::vector<double> cpu_cores;   ///< [c] cores

  Ledger() = default;
  /// All-zero tally sized to `topo`.
  explicit Ledger(const topo::Topology& topo);
  /// `topo`'s capacities C_b (PRBs), C_e (Mb/s) and C_c (cores).
  [[nodiscard]] static Ledger capacities(const topo::Topology& topo);

  /// Add `sign` times the usage of one reservation: z[b] Mb/s at BS b of a
  /// tenant with compute service `svc`, placed on `cu`, with BS b's traffic
  /// routed over paths[b] (nullptr: no transport). Every term is formed
  /// first and then scaled by `sign`, so a release (−1) subtracts exactly
  /// what the commit (+1) added.
  void book(const topo::Topology& topo, const slice::ServiceModel& svc,
            CuId cu, std::span<const double> z,
            std::span<const topo::CandidatePath* const> paths,
            double sign = 1.0);
  void clear();

  /// Entries over `capacity` by more than tol·max(1, capacity).
  [[nodiscard]] std::size_t over(const Ledger& capacity, double tol) const;
  [[nodiscard]] bool fits(const Ledger& capacity, double tol) const {
    return over(capacity, tol) == 0;
  }
};

}  // namespace ovnes::acrr
