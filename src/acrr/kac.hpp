// Knapsack Admission Control (KAC) — the suboptimal heuristic of §4.2
// (Algorithms 2 and 3) that expedites AC-RR decisions in large scenarios.
//
// Items are per-(tenant, CU) bundles: accepting tenant τ on CU c activates
// the minimum-delay admissible path for every BS (constraints (5)-(7) hold
// by construction, and the multiple-choice constraint (25) — one item per
// tenant — is enforced during packing). Weights come from the Farkas-ray
// feasibility cuts of the slave: each infeasible trial prices the binding
// resources (eqs. 27-28), the ε-recursion (29)-(30) folds them into a single
// scalar knapsack, and first-fit-decreasing by profit density (Algorithm 2)
// re-packs. The loop ends when the slave is feasible (Algorithm 3), which
// yields the reservations z*.
#pragma once

#include "acrr/instance.hpp"
#include "acrr/slave.hpp"

namespace ovnes::acrr {

struct KacOptions {
  int max_iterations = 100;
};

[[nodiscard]] AdmissionResult solve_kac(const AcrrInstance& inst,
                                        const KacOptions& opts = {});

}  // namespace ovnes::acrr
