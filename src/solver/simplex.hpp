// Two-phase primal simplex for bounded-variable linear programs.
//
// Implements the classic revised simplex on top of the sparse LU basis
// factorization (solver/basis_lu.hpp) with product-form eta updates —
// refactorizing after a bounded number of pivots or on accuracy drift.
// Upper-bounding technique (bound flips
// instead of rows for box constraints), artificial-variable phase 1, Dantzig
// pricing with a Bland fallback for anti-cycling (including Bland-consistent
// leaving-variable tie-breaks), and periodic recomputation of the basic
// solution to bound numerical drift.
//
// The solver reports, at optimality, the row duals y_i = ∂obj/∂rhs_i and
// variable reduced costs — both required to assemble Benders cuts (§4.1) —
// and, on infeasibility, a Farkas certificate usable as the "extreme ray"
// of the dual slave problem (Algorithm 1 line 7, Algorithm 3 line 5).
#pragma once

#include <string>
#include <vector>

#include "solver/lp_model.hpp"
#include "solver/sparse.hpp"

namespace ovnes::solver {

struct BasisFactors;  // solver/basis_lu.hpp — live kernel kept across solves

enum class LpStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  /// The supplied warm basis references rows or variables beyond the
  /// model's current dimensions (a stale snapshot, e.g. taken on a model
  /// that has since been truncated). A caller-contract error: reported
  /// explicitly instead of silently repairing or asserting.
  InvalidBasis,
};

[[nodiscard]] const char* to_string(LpStatus s);

/// Snapshot of a simplex basis: one status per structural variable plus one
/// per row slack, taken at optimality. Feed it back through the warm-start
/// overload of solve_lp to skip (or drastically shorten) Phase 1 on a
/// related model. Rows may have been appended (Benders cuts) and variable
/// bounds tightened (branch-and-bound) between snapshot and reuse: appended
/// rows enter via their slack and any primal infeasibility is repaired with
/// targeted artificials before pivoting resumes.
struct Basis {
  enum class Status : unsigned char { Basic, AtLower, AtUpper };
  int num_vars = 0;  ///< structural variable count at snapshot time
  int num_rows = 0;  ///< row count at snapshot time
  std::vector<Status> status;  ///< size num_vars + num_rows; empty = no basis

  [[nodiscard]] bool empty() const { return status.empty(); }
};

struct LpResult {
  LpStatus status = LpStatus::IterationLimit;
  double objective = 0.0;
  std::vector<double> x;             ///< structural variable values
  std::vector<double> row_duals;     ///< y_i = ∂obj/∂rhs_i (min problem:
                                     ///< y <= 0 for binding <=, y >= 0 for >=)
  std::vector<double> reduced_costs; ///< d_j = c_j - y·A_j
  /// When status == Infeasible: vector `r` (one entry per row) such that the
  /// aggregated constraint Σ_i r_i·(row_i) is violated by every point in the
  /// box [lb, ub]. Sign convention: r_i >= 0 for <= rows, r_i <= 0 for >=
  /// rows, free for == rows.
  std::vector<double> farkas_ray;
  int iterations = 0;
  /// Optimal basis snapshot for warm-starting subsequent solves; empty when
  /// the solve did not end Optimal or an artificial remained basic.
  Basis basis;
  /// True when a supplied warm basis was accepted (possibly after repair)
  /// instead of the artificial cold start.
  bool used_warm_start = false;
  /// True when primal feasibility was restored by dual simplex pivots
  /// instead of the artificial-repair Phase 1.
  bool used_dual_simplex = false;
  /// True when the solve adopted a live factorization kept from a previous
  /// solve (BasisFactors) instead of refactorizing from basis statuses —
  /// rows appended since the snapshot were absorbed as bordered updates.
  bool used_kept_factors = false;
  /// From-scratch basis factorizations performed during this solve (cold
  /// start, warm-basis adoption without kept factors, eta-limit /
  /// stability / drift triggers). The kept-factors path exists to drive
  /// this to ~0 on cut-round re-solves.
  int refactorizations = 0;
  /// Sparsity counters from the basis kernel. factor_nnz/fill_ratio describe the most recent
  /// factorization the kernel holds — possibly inherited from a previous
  /// solve on the kept-factors path; the others count this solve only.
  long factor_nnz = 0;       ///< nnz(L)+nnz(U) of the current factors
  double fill_ratio = 0.0;   ///< factor_nnz / nnz(basis) at factorization
  long kernel_solves = 0;    ///< FTRAN + BTRAN calls this solve
  long hypersparse_hits = 0; ///< kernel solves that skipped > half the sweep
  int reorderings = 0;       ///< fill-blowup re-orderings this solve
};

/// \brief Tuning knobs for the revised simplex and its re-solve paths.
///
/// A warm basis that is primal-infeasible (a violated cut row, a branched
/// bound) but dual-feasible is always restored by dual simplex pivots,
/// priced by dual steepest edge (violation²/β with β ≈ ‖eᵣᵀB⁻¹‖², kept in
/// the Forrest–Goldfarb reference-weight approximation); a re-solve that
/// adopts kept factors resumes from the weights the previous solve handed
/// back (BasisFactors::dse_weights). Any other warm basis is repaired with
/// targeted artificials and a short Phase 1. The tolerances and the eta
/// budget are fixed constants of the engine (simplex.cpp, basis_lu.cpp).
struct SimplexOptions {
  int max_iterations = 50000;
  int refresh_interval = 64; ///< recompute x_B from scratch every N pivots
  /// LpSession only: keep the basis factorization alive across solves
  /// (BasisFactors). A re-solve whose warm basis matches the kept factors
  /// adopts them verbatim — bound-only deltas pivot straight away, and
  /// appended cut rows are absorbed as bordered updates — refactorizing
  /// only on the kernel's own triggers (eta limit, unstable pivot, x_B
  /// drift) or a basis mismatch. Irrelevant for one-shot solve_lp calls.
  bool keep_factors = true;
};

/// Solve `model` (ignoring integrality markers). Thread-compatible: no
/// shared state; safe to call from multiple threads on distinct models.
///
/// Compatibility wrapper: implemented on a throwaway solver::LpSession
/// (solver/lp_session.hpp). Callers that re-solve after model deltas —
/// appended cuts, branched bounds — should hold a session instead: it
/// keeps the basis live across calls and dispatches dual simplex.
[[nodiscard]] LpResult solve_lp(const LpModel& model,
                                const SimplexOptions& opts = {});

/// Warm-started solve: reuse `warm` (a Basis from a previous LpResult on a
/// related model — same structural variables, possibly appended rows or
/// tightened bounds). When the basis factorizes and is primal-feasible the
/// solve goes straight to Phase 2; small infeasibilities (a violated cut
/// row, a branched variable pushed off its value) are restored by dual
/// simplex pivots while the basis stays dual-feasible, and otherwise
/// repaired with targeted artificials and a short Phase 1. Falls back to a
/// cold start when `warm` is null, empty, lacks rows/vars the model has
/// since grown, or is singular; returns LpStatus::InvalidBasis when `warm`
/// references rows or variables beyond the model's current dimensions.
[[nodiscard]] LpResult solve_lp(const LpModel& model,
                                const SimplexOptions& opts,
                                const Basis* warm);

namespace detail {

/// Single-shot engine entry: one simplex run, no warm-failure cold retry.
/// LpSession (and through it the solve_lp wrappers) layer retry/dispatch
/// policy on top of this. `kept` (optional) is the session's live
/// factorization: the run moves its kernel in, adopts it when
/// `kept->basis_order` matches the warm basis (absorbing appended rows as
/// bordered updates), and moves the kernel back out on every exit —
/// with `basis_order` refreshed after an Optimal solve and cleared after
/// anything the next solve must not trust. `columns` is the CSC view of
/// the model's structural columns (LpModel::build_columns), which the
/// session keeps across solves and rebuilds after the rows change.
[[nodiscard]] LpResult simplex_solve(const LpModel& model,
                                     const SimplexOptions& opts,
                                     const Basis* warm, BasisFactors* kept,
                                     const SparseMatrix& columns);

}  // namespace detail

}  // namespace ovnes::solver
