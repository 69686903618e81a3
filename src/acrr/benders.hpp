// Optimal AC-RR solver: Benders decomposition (Algorithm 1, §4.1).
//
// The master problem (Problem 5) selects the binary admission/placement
// vector x and a surrogate θ for the reservation cost, subject to the
// structural constraints (5)-(7) — encoded via per-(tenant, CU) acceptance
// indicators with high branching priority (tenant-acceptance dichotomy) —
// plus the optimality/feasibility cuts accumulated from the slave.
// Iterate until UB − LB <= ε (Theorem 2 guarantees finite convergence).
//
// This header also exposes the no-overbooking baseline (§4.3.2): the same
// MILP with z pinned to Λ, solved exactly, which the paper uses as the
// upper-bound benchmark for traditional hard-guarantee admission.
#pragma once

#include <string>
#include <vector>

#include "acrr/instance.hpp"
#include "acrr/slave.hpp"
#include "solver/milp.hpp"

namespace ovnes::exec {
class ThreadPool;
}  // namespace ovnes::exec

namespace ovnes::acrr {

struct BendersOptions {
  int max_iterations = 60;
  double epsilon = 1e-5;        ///< relative UB-LB convergence tolerance
  double time_limit_sec = 120.0;
  solver::MilpOptions master;   ///< branch-and-bound knobs for the master
  /// Re-use each master solve's root-LP basis to warm-start the next
  /// iteration's master (after the cut append) and cache the slave basis.
  /// Iteration counts and cuts are unchanged; only simplex pivots shrink.
  bool warm_start = true;
  /// Per-iteration concurrent probe slaves: besides the slave at the
  /// master's x̄, solve up to this many per-tenant "drop one admitted
  /// tenant" slaves — each on its own SlaveProblem instance (the
  /// thread-safety contract of acrr/slave.hpp) — fanned out across the
  /// exec pool. A Benders cut derived at *any* activation vector is
  /// globally valid, so the extra cuts tighten θ (and, when the probe
  /// slave is feasible, its admission may improve the incumbent) without
  /// touching correctness. The probe set depends only on x̄, never on
  /// thread count, so the whole trajectory — iterations, cuts, objective —
  /// is identical for every OVNES_THREADS value. 0 disables probing.
  int probe_cuts = 4;
  /// Pool for the probe fan-out (not owned); nullptr uses
  /// exec::ThreadPool::global(). The *master* branch-and-bound always runs
  /// serially inside solve_benders: under objective ties a parallel
  /// search may return a different optimal x̄ and fork the cut
  /// trajectory, which would break run-to-run determinism.
  exec::ThreadPool* pool = nullptr;
  /// Single-tree Branch-and-Benders-cut: build the master once and run ONE
  /// branch-and-bound in which slave cuts are separated lazily at every
  /// integer-feasible candidate (MilpOptions::lazy_cuts), instead of
  /// re-solving the master MILP from scratch each outer iteration. The
  /// kept-LU / dual-steepest-edge machinery then persists across what used
  /// to be tree boundaries. false (default) keeps the classic multi-tree
  /// loop and its byte-identical paper trajectories. In single-tree mode
  /// `master.threads` is honored as-is: > 1 relaxes *trajectory*
  /// determinism (which cuts, in which order) but never the admission
  /// objective — incumbents are separation-verified (see docs/solver.md).
  /// Single-tree mode always strengthens cuts Magnanti–Wong style: each
  /// rejected integral candidate's cut comes with a second one from the
  /// slave at a *core* activation (the running union of feasible
  /// candidates seen so far), pooled without rejecting the candidate
  /// (LazyCutResult::pool_cuts). Cuts are valid at any activation
  /// (acrr/slave.hpp), and the denser core prices resources the candidate
  /// leaves idle — the classic "pareto-optimal cut" effect without a
  /// fractional core point (the slave takes binary activations). Every
  /// cut lives in the solve's own pool: none carries into the next solve.
  bool single_tree = false;
};

/// Solve Problem 2 to (near-)optimality via Algorithm 1.
[[nodiscard]] AdmissionResult solve_benders(const AcrrInstance& inst,
                                            const BendersOptions& opts = {});

/// No-overbooking baseline: full-SLA reservation (xΛ ≼ z), exact MILP.
[[nodiscard]] AdmissionResult solve_no_overbooking(
    const AcrrInstance& inst, const solver::MilpOptions& opts = {});

/// Objective Ψ(x, z) of an admission outcome under `inst`'s coefficients
/// (risk-weighted penalty minus rewards; lower is better).
[[nodiscard]] double evaluate_objective(const AcrrInstance& inst,
                                        const AdmissionResult& result);

namespace detail {

/// Shared master-model scaffold: binaries x_j + per-(tenant, CU) acceptance
/// indicators + structural rows (5)-(6'); returns indices of the x columns.
struct MasterModel {
  solver::LpModel lp;
  std::vector<int> x_col;            ///< lp column of x_j per instance var
  std::vector<std::vector<int>> acc; ///< [tenant] -> lp cols of acc_{t,c}
  int theta_col = -1;                ///< present only in the Benders master
};

[[nodiscard]] MasterModel build_master(const AcrrInstance& inst,
                                       bool with_theta);

/// First-stage cost coefficient Λ·w − R/B of variable x_j.
[[nodiscard]] inline double first_stage_coef(const VarInfo& v) {
  return v.sla * v.w - v.reward_share;
}

/// First-stage cost Σ_{j active} (Λ·w − R/B), summed in ascending j.
[[nodiscard]] double first_stage_cost(const AcrrInstance& inst,
                                      const std::vector<char>& x_active);

/// Append the compute, transport and radio rows (14)-(16) priced at a
/// per-variable reservation level L_j = v.*level:
///   Σ (a/B + b·L_j)·x_j ≤ C_c,  Σ η_e·L_j·x_j ≤ C_e,  Σ ρ_j·L_j·x_j ≤ C_b,
/// CUs by index, links by id, BSs by index; each row is named `prefix`
/// plus the resource kind and id. A CU coefficient ≤ 0 is dropped, and a
/// variable with L_j ≤ 0 stays out of the link and BS rows.
void add_usage_rows(const AcrrInstance& inst, MasterModel& m,
                    double VarInfo::*level, const std::string& prefix);

/// Convert a master MILP solution into per-variable activation flags.
[[nodiscard]] std::vector<char> extract_active(const MasterModel& m,
                                               const std::vector<double>& x);

/// Benders cut -> master row  constant + Σ coef·x (− θ) <= 0: the θ column
/// first for an optimality cut, then the x columns in cut order.
[[nodiscard]] solver::Rowdef cut_row(const MasterModel& m,
                                     const BendersCut& cut, std::string name);

/// Assemble an AdmissionResult from activation flags and slave reservations.
[[nodiscard]] AdmissionResult assemble_result(const AcrrInstance& inst,
                                              const std::vector<char>& active,
                                              const std::vector<double>& z);

}  // namespace detail

}  // namespace ovnes::acrr
