// Primal heuristics for the branch-and-bound MILP solver: the bounded
// fix-and-dive sub-search that powers RENS.
//
// RENS (SCIP's rens idea, adapted to the LpSession frame API) runs once at
// the root:
//
//   1. open a session frame (push());
//   2. restrict the integer box — fix every variable that is near-integral
//      in the root LP relaxation and shrink the rest to [floor, ceil] of
//      its LP value (rens_restrict);
//   3. run fix_and_dive(): a depth-first fix-to-nearest dive WITH
//      backtracking over the restricted sub-MILP, under a hard LP-solve
//      budget, pruned against the incumbent cutoff;
//   4. pop() the frame — the session returns to the root box untouched.
//
// Integral candidates pass through the caller's AcceptGate before they can
// become incumbents: under Benders decomposition (MilpOptions::lazy_cuts) a
// candidate's θ may under-estimate the true reservation cost, and an
// unverified heuristic incumbent could wrongly prune the true optimum. The
// gate separates the candidate (pool lookup, then slave solve) exactly like
// a branch-and-bound lane's acceptance gate; Reject means cuts were
// appended to the session and the dive re-solves, Abandon aborts the
// heuristic conservatively (the candidate is discarded and the solve
// records a limit hit — see MilpResult status folding in milp.cpp).
//
// fix_and_dive never touches global bound bookkeeping: a sub-search under
// restricted bounds proves nothing about the optimum, so its only outputs
// are a feasible point (or none) and its budget consumption.
#pragma once

#include <functional>
#include <vector>

#include "solver/lp_session.hpp"

namespace ovnes::solver {

/// Caller's verdict on an integral fix-and-dive candidate.
enum class GateVerdict {
  Accept,   ///< candidate is feasible for the true problem
  Reject,   ///< violated cuts were appended to the session; re-solve
  Abandon,  ///< verification failed without a certificate; stop the dive
};

/// Acceptance gate invoked at every integral candidate. On Reject the gate
/// must have appended at least one violated row to the dive's session (at
/// the current frame depth) or the dive would loop; fix_and_dive also
/// bounds gate invocations by SubDiveOptions::max_gate_rounds.
using AcceptGate = std::function<GateVerdict(const LpResult&)>;

struct SubDiveOptions {
  long max_lp_solves = 400;  ///< hard LP budget for the whole sub-search
  /// Only solutions with objective strictly below this are interesting;
  /// LP bounds at or above it prune immediately (incumbent cutoff).
  double cutoff = kInf;
  int max_gate_rounds = 64;  ///< acceptance-gate budget (branch-and-bound
                             ///< passes its per-node separation budget)
  /// External stop condition (global node/time limits); polled before
  /// every LP solve.
  std::function<bool()> should_stop;
};

struct SubDiveResult {
  bool found = false;       ///< x/objective hold a gate-accepted point
  bool hit_limit = false;   ///< budget/stop/gate truncation ended the search
  bool abandoned = false;   ///< the gate abandoned without a certificate
  double objective = 0.0;
  std::vector<double> x;    ///< integer entries exactly rounded
  long lp_solves = 0;       ///< budget consumed (caller folds into nodes)
  int gate_rounds = 0;      ///< acceptance-gate invocations
};

/// Depth-first fix-and-dive over the session's CURRENT model state (the
/// caller applies its RENS restriction in an enclosing frame first):
/// repeatedly fix the most fractional integer variable to its nearest
/// value in a fresh frame; on a dead end (infeasible LP or bound past the
/// cutoff) backtrack and try the adjacent integer once before giving up on
/// that level. Returns the first gate-accepted integral point found, and
/// always restores the session to its entry frame depth.
[[nodiscard]] SubDiveResult fix_and_dive(LpSession& sess,
                                         const std::vector<int>& int_vars,
                                         const SubDiveOptions& opts,
                                         const AcceptGate* gate = nullptr);

/// Apply the RENS restriction for root LP point `x` inside the caller's
/// open frame: integer variables within kIntTol of an integer are fixed
/// to it; the rest shrink to [floor(x_j), ceil(x_j)]. Returns how many
/// variables were hard-fixed.
long rens_restrict(LpSession& sess, const std::vector<int>& int_vars,
                   const std::vector<double>& x);

}  // namespace ovnes::solver
