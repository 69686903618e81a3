// Stateful incremental LP solver session.
//
// The orchestrator lives on *re-solves*: every Benders iteration appends a
// cut or two to the master and every branch-and-bound node flips a pair of
// variable bounds. The stateless solve_lp(model, opts, warm) entry re-loads
// the model, rebuilds its column view and refactorizes the warm basis on
// every call; nothing carries over to the next call. LpSession is
// the production-engine shape instead (CPLEX/soplex-style): construct once
// from an LpModel, mutate through typed deltas, and call solve() — the
// incumbent basis stays live across calls and the cheapest re-solve
// algorithm is dispatched per delta type:
//
//   * add_cut(...)      appended row, old basis dual-feasible but primal-
//                       infeasible  ->  dual simplex pivots (no Phase 1);
//   * set_bounds(...)   branched/tightened bounds — same dispatch: dual
//                       pivots when the incumbent stays dual-feasible,
//                       warm primal repair otherwise;
//   * set_cost(...)     objective delta, basis stays primal-feasible  ->
//                       warm primal Phase 2.
//
// Beyond the basis *statuses*, the session keeps the basis *factorization*
// itself alive between solves (BasisFactors, solver/basis_lu.hpp): a
// re-solve whose warm basis matches the kept factors adopts them verbatim,
// an appended cut row is absorbed as a bordered update (the new slack
// enters basic; one exact-pivot border instead of an O(m³/3)
// refactorization), and refactorization happens only on the kernel's own
// triggers — eta limit, unstable pivot, x_B drift — or a basis mismatch
// (a pop() to an older snapshot, an injected foreign warm basis).
// SimplexOptions::keep_factors = false opts out for callers that need
// solves to be a pure function of (model, warm basis): branch-and-bound
// lanes and strong-branching probes.
//
// The session also owns the simplex's CSC column view of the model and
// rebuilds it only after add_cut() or a pop() that drops rows: a run of
// bound-only frames — a branch-and-bound lane over a fixed set of rows —
// shares one build, and a frame that appends cuts rebuilds into the same
// allocation. A borrowed session cannot see its caller's edits, so it
// builds the view on every solve.
//
// push()/pop() open scoped delta frames for branch-and-bound: a frame
// records the row count, the previous value of every bound/cost touched
// inside it, and the incumbent basis *handle*; pop() restores all three.
// Bases are immutable snapshots shared refcounted (SharedBasis) — a frame
// or a queued B&B node holds a handle, never a copy.
//
// Thread compatibility matches solve_lp: no global state; one session per
// thread (the B&B lanes and Benders probe slaves each own one), sessions on
// distinct models never race.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "solver/basis_lu.hpp"
#include "solver/lp_model.hpp"
#include "solver/simplex.hpp"

namespace ovnes::solver {

/// \brief Refcounted immutable basis snapshot. Shared between an
/// LpSession's delta frames, sibling B&B nodes inheriting one parent
/// basis, and the session's own incumbent — replacing the full Basis
/// copy per holder.
using SharedBasis = std::shared_ptr<const Basis>;

/// \brief Stateful incremental LP solver session (the production-engine
/// shape: construct once, mutate through typed deltas, re-solve).
///
/// Between solve() calls the session keeps (1) the incumbent basis
/// snapshot (SharedBasis) and (2) the live basis factorization
/// (BasisFactors): re-solves dispatch the cheapest algorithm per delta
/// type (dual simplex after cuts/branched bounds, warm primal after cost
/// nudges) and adopt the kept factors instead of refactorizing whenever
/// the basis still matches — see docs/architecture.md for the dispatch
/// table and the cut-round lifecycle.
///
/// Thread compatibility matches solve_lp: no global state; one session
/// per thread (B&B lanes and Benders probe slaves each own one);
/// sessions on distinct models never race.
class LpSession {
 public:
  /// Take ownership of `model` (move in; pass a copy to keep the
  /// original).
  explicit LpSession(LpModel model, SimplexOptions opts = {});

  /// Non-owning one-shot session over a caller's model: no copy, but the
  /// typed-delta and frame APIs throw (the session does not own what it
  /// would mutate). This is what the solve_lp compatibility wrappers use;
  /// long-lived callers should move a model in instead.
  static LpSession borrow(const LpModel& model, SimplexOptions opts = {});

  // ------------------------------------------------------------- deltas
  /// Append a cut row; returns its row index. The incumbent basis stays
  /// valid (the new slack enters basic) and, when the cut is violated at
  /// the incumbent point, the next solve() runs dual simplex.
  int add_cut(std::string name, RowSense sense, double rhs,
              std::vector<Coef> coefs);
  int add_cut(Rowdef row);

  /// Tighten/relax a variable's box (branch-and-bound fix). Recorded in
  /// the innermost frame, if any, for pop() to undo.
  void set_bounds(int var, double lower, double upper);

  /// Adjust an objective coefficient. Recorded in the innermost frame.
  void set_cost(int var, double cost);

  // ------------------------------------------------------------- frames
  /// Open a scoped delta frame: the matching pop() discards every row
  /// appended and restores every bound/cost changed since, along with the
  /// incumbent basis handle held at push() time.
  void push();
  void pop();
  [[nodiscard]] int depth() const { return static_cast<int>(frames_.size()); }

  // -------------------------------------------------------------- solve
  /// Re-solve the current model from the incumbent basis. The result
  /// reference stays valid until the next solve() on this session.
  const LpResult& solve();
  [[nodiscard]] const LpResult& last() const { return result_; }
  /// Move the last result out (leaves last() hollow). For one-shot
  /// wrappers that return the result by value — avoids a deep copy of the
  /// primal/dual vectors.
  [[nodiscard]] LpResult take_last() { return std::move(result_); }

  // -------------------------------------------------------------- basis
  /// Incumbent basis handle (null until the first optimal solve, or after
  /// clear_basis). Hand it to sibling sessions / queued nodes instead of
  /// copying the snapshot.
  [[nodiscard]] SharedBasis basis() const { return basis_; }
  /// Seed the next solve from an externally produced snapshot (a B&B
  /// parent's basis, a persisted master basis).
  void set_warm_basis(SharedBasis basis) { basis_ = std::move(basis); }
  /// Drop the incumbent basis: the next solve starts cold.
  void clear_basis() { basis_.reset(); }

  [[nodiscard]] const LpModel& model() const {
    return borrowed_ != nullptr ? *borrowed_ : model_;
  }

  // -------------------------------------------------------------- stats
  struct Stats {
    long solves = 0;
    long dual_solves = 0;  ///< dual simplex restored primal feasibility
    long warm_solves = 0;  ///< incumbent basis adopted (includes dual)
    long cold_solves = 0;  ///< artificial cold start
    long kept_solves = 0;  ///< live factorization adopted, 0 refactorizations
                           ///< on entry (bound deltas verbatim, cuts bordered)
    long iterations = 0;   ///< total pivots across all solves
    long refactorizations = 0;  ///< from-scratch factorizations, all solves
    long column_builds = 0;     ///< CSC column-view builds (rows changed)
    // Sparsity counters (LpResult mirrors).
    long kernel_solves = 0;     ///< FTRAN + BTRAN calls, all solves
    long hypersparse_hits = 0;  ///< kernel solves that skipped > half the sweep
    long reorderings = 0;       ///< fill-blowup re-orderings, all solves
    long factor_nnz = 0;        ///< nnz(L)+nnz(U) of the latest factorization
    double fill_ratio = 0.0;    ///< factor_nnz / nnz(basis), latest
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct BoundDelta {
    int var;
    double lower, upper;  ///< values to restore on pop()
  };
  struct CostDelta {
    int var;
    double cost;  ///< value to restore on pop()
  };
  struct Frame {
    int num_rows = 0;  ///< row count at push(); pop() truncates back
    std::vector<BoundDelta> saved_bounds;
    std::vector<CostDelta> saved_costs;
    SharedBasis basis;  ///< incumbent handle at push() (shared, not copied)
  };

  /// Owning model when mutable_model() is allowed; throws for borrowed
  /// sessions so a wrapper can never silently edit a caller's model.
  [[nodiscard]] LpModel& mutable_model();

  LpModel model_;
  const LpModel* borrowed_ = nullptr;  ///< set only by borrow()
  SimplexOptions opts_;
  SharedBasis basis_;
  /// Live factorization carried across solves (kernel + slot order). The
  /// simplex adopts it when its order matches the warm basis and hands it
  /// back on every exit; after a failed solve its order is cleared, so a
  /// pop() back to a frame snapshot can never resume on failed factors.
  BasisFactors kept_;
  /// CSC view of model()'s structural columns (LpModel::build_columns),
  /// rebuilt by solve() while columns_stale_ is set.
  SparseMatrix columns_;
  bool columns_stale_ = true;  ///< set by add_cut() and a row-dropping pop()
  LpResult result_;
  std::vector<Frame> frames_;
  Stats stats_;
};

}  // namespace ovnes::solver
