// Branch-and-bound solver for mixed-integer linear programs.
//
// Replaces CPLEX's MIP engine for (i) the Benders master problem (Problem 5),
// (ii) the no-overbooking baseline, and (iii) exact reference solves of the
// full AC-RR MILP (Problem 2) in tests.
//
// Design notes:
//  * best-first search over a shared node pool with best-bound incumbent
//    pruning; ties broken (deeper, then most recently created) so a single
//    lane explores the preferred branch first, like the old DFS;
//  * parallel node evaluation: `threads` lanes pop nodes from the shared
//    pool, each with its own working LpModel (bound apply/undo deltas, no
//    per-node model copy) — solve_lp is thread-compatible on distinct
//    models (solver/simplex.hpp). Serial and parallel runs report the same
//    objective and a valid (conservative) best_bound/gap;
//  * branching variable chosen by (branch_priority, fractionality): the
//    AC-RR master marks per-tenant acceptance indicators with priority 0 and
//    raw path variables with priority 10, which realizes the "tenant
//    acceptance dichotomy" branching described in DESIGN.md §4;
//  * node and wall-clock limits make the solver an anytime algorithm —
//    the incumbent plus `best_bound` give a certified optimality gap. The
//    root dive heuristic honors the same limits and counts toward `nodes`.
#pragma once

#include <chrono>
#include <functional>
#include <vector>

#include "solver/branching.hpp"
#include "solver/lp_model.hpp"
#include "solver/lp_session.hpp"
#include "solver/simplex.hpp"

namespace ovnes::exec {
class ThreadPool;
}  // namespace ovnes::exec

namespace ovnes::solver {

/// \brief Candidate point handed to the lazy-cut callback.
struct LazyCutContext {
  const std::vector<double>& x;  ///< candidate solution (structural vars)
  double objective = 0.0;        ///< its LP objective
  /// True for an integer-feasible candidate (acceptance gate), false for a
  /// fractional point (root rounds under MilpOptions::benders_lp_cuts).
  bool integral = true;
};

/// \brief One separation round's verdict on a candidate.
struct LazyCutResult {
  /// Rows violated at the candidate; every returned row must be globally
  /// valid (it is pooled and appended to every lane's model, not just this
  /// node's). Empty + !abandon accepts the candidate.
  std::vector<Rowdef> cuts;
  /// Globally valid rows to pool WITHOUT rejecting the candidate (e.g. the
  /// Magnanti–Wong core cut of single-tree Benders): pooled in order,
  /// before `cuts`, and reaching every lane through the pool sync.
  std::vector<Rowdef> pool_cuts;
  /// Separation failed without a certificate (e.g. a slave hit its
  /// iteration limit): the candidate is rejected AND its node is dropped
  /// conservatively — the node's bound folds into best_bound and the solve
  /// can never claim Optimal past it.
  bool abandon = false;
};

/// Lazy-constraint callback (single-tree Branch-and-Benders-cut): invoked
/// when a lane finds an integer-feasible candidate — and, with
/// MilpOptions::benders_lp_cuts, on fractional root points — returning the
/// violated rows that cut it off, or an empty set to accept it. Calls are
/// serialized by the solver (one lane separates at a time), so the callback
/// may keep per-decomposition state (slave sessions, core points) without
/// its own locking.
using LazyCutCallback = std::function<LazyCutResult(const LazyCutContext&)>;

enum class MilpStatus {
  Optimal,        ///< incumbent proved optimal (within gap tolerance)
  Feasible,       ///< stopped at a limit with an incumbent
  Infeasible,     ///< no integer-feasible point exists
  NoSolution,     ///< stopped at a limit before finding any incumbent
};

[[nodiscard]] const char* to_string(MilpStatus s);

/// \brief Search counters of one solve, shared by every result type that
/// reports a solve: MilpResult, acrr::AdmissionResult, orch::EpochReport,
/// orch::ScenarioResult and svc::ShardStats take it as a public base.
/// Results of several solves combine with merge(), the one rule for all.
struct SolveStats {
  // -- Lazy-cut observability (all zero unless MilpOptions::lazy_cuts ran).
  /// Rows admitted to the solve's cut pool from callback separation
  /// (LazyCutResult::cuts and ::pool_cuts). Multi-tree Benders counts
  /// every cut it appends to the master instead.
  long cuts_separated = 0;
  /// Pooled rows that rejected a candidate without a separation call: the
  /// pool lookup found them violated first. The pool lives for one solve,
  /// so every such row was separated earlier in the same solve.
  long cuts_from_pool = 0;
  /// Pooled rows a strictly tighter row of the same support replaced in
  /// the solve's pool (the pool has no other eviction).
  long cuts_evicted = 0;
  /// Separation callback invocations (integral + fractional rounds); for
  /// multi-tree Benders, slave solves (the master's x̄ plus probes).
  long separation_rounds = 0;
  // -- Branching observability (zero under BranchRule::MostFractional).
  /// Branch decisions taken by the pseudocost score with the chosen
  /// variable already reliable (no strong-branching probes needed).
  long pseudocost_branchings = 0;
  /// Strong-branching probe LPs solved to initialize unreliable
  /// candidates; bounded by MilpOptions::max_strong_probes.
  long strong_probes = 0;
  // -- Primal-heuristic observability.
  /// Incumbents installed by a heuristic (root dive, RENS, LNS) rather
  /// than by tree search.
  long heuristic_incumbents = 0;
  /// Value of `nodes` when the first incumbent (from any source) was
  /// installed; -1 if the solve never found one. The anytime metric the
  /// heuristics target: lower is better.
  long first_incumbent_nodes = -1;

  /// Fold in another solve's counters: every counter sums, except
  /// first_incumbent_nodes, which keeps the minimum over values >= 0 (the
  /// best anytime profile). A default-constructed value is the identity.
  void merge(const SolveStats& o);
};

/// \brief Outcome of a branch-and-bound solve: incumbent, certified
/// bound/gap, and search statistics.
struct MilpResult : SolveStats {
  MilpStatus status = MilpStatus::NoSolution;
  double objective = 0.0;       ///< incumbent objective (valid unless NoSolution)
  double best_bound = -kInf;    ///< global lower bound on the optimum (min)
  std::vector<double> x;
  long nodes = 0;
  int lp_iterations = 0;
  /// High-water mark of the open-node pool: with refcounted parent-basis
  /// handles each queued node costs O(fixes) + one shared_ptr, so this
  /// bounds the search's memory footprint (see BM_MilpBnbThroughput's
  /// peak_rss counter).
  long peak_open_nodes = 0;
  /// (objective - best_bound) / max(1, |objective|); 0 when proved optimal.
  [[nodiscard]] double gap() const;
};

/// \brief Tuning knobs for the branch-and-bound MILP solver.
///
/// The node/time limits make the solver an anytime algorithm; `threads`
/// and `pool` select the parallel lane count (serial and parallel runs
/// report the same objective); `lp` is forwarded to every node's LP
/// re-solve. Lane sessions force SimplexOptions::keep_factors off so a
/// node's result stays a pure function of (bounds, warm basis).
struct MilpOptions {
  long max_nodes = 200000;
  double time_limit_sec = 60.0;
  double gap_tol = 1e-6;      ///< relative optimality gap for early stop
  /// Run an LP-guided rounding dive at the root to seed the incumbent
  /// (fix the most fractional integer to its nearest value, re-solve,
  /// repeat). Greatly improves anytime behaviour on packing-style models.
  bool dive_heuristic = true;
  // ---- Branching rule (solver/branching.hpp). The default keeps the
  // historical most-fractional rule so existing trajectories (paper
  // figures, pinned bench counters) are bit-identical.
  BranchRule branching = BranchRule::MostFractional;
  /// Reliability threshold for BranchRule::Pseudocost: a candidate whose
  /// per-direction observation count is below this is strong-branched
  /// (both child LPs probe-solved) before selection, seeding its
  /// pseudocosts with measured degradations.
  int reliability = 4;
  /// Total strong-branching probe LP budget per solve (a probe pair per
  /// candidate); 0 disables strong branching — unreliable candidates fall
  /// back to the average-pseudocost estimate.
  long max_strong_probes = 2000;
  // ---- Primal heuristics (solver/heuristics.hpp). Off by default for
  // the same trajectory-pinning reason; svc/ re-solves and the heuristics
  // bench cases turn them on.
  /// RENS: after the root LP, fix near-integral integers, shrink the rest
  /// to their rounding box, and run a budgeted fix-and-dive sub-search;
  /// an accepted point seeds/improves the incumbent.
  bool rens_heuristic = false;
  /// LP-solve budget per heuristic episode (RENS run or LNS re-run); each
  /// solve consumed also counts toward max_nodes like a dive step.
  long heur_node_budget = 400;
  /// Re-run an LNS neighborhood search from the current incumbent every
  /// `lns_interval` nodes (0 disables). Each run fixes a deterministic
  /// seeded subset of integers (a quarter freed) to the incumbent and
  /// dives the rest under heur_node_budget, with the incumbent objective
  /// as cutoff.
  long lns_interval = 0;
  /// Branch-and-bound lanes: 0 picks exec::default_threads() (the
  /// OVNES_THREADS environment default), 1 is fully serial/deterministic,
  /// n > 1 evaluates up to n nodes concurrently. The parallel search
  /// returns the same objective as the serial one (any integer solution
  /// better than the final incumbent by more than gap_tol cannot be
  /// pruned in either order); under ties the solution *vector* may be a
  /// different optimal vertex.
  int threads = 0;
  /// Pool supplying the extra lanes (not owned); nullptr uses
  /// exec::ThreadPool::global(). Tests inject a local pool here.
  exec::ThreadPool* pool = nullptr;
  /// Lazy-constraint hook (single-tree Branch-and-Benders-cut): when set,
  /// every integer-feasible candidate is offered to the callback and
  /// accepted as incumbent only if separation returns no violated row.
  /// Returned rows go to the solve's cut pool (created for the run, shared
  /// by its lanes, gone when solve_milp returns) and are appended to every
  /// lane's LpSession before its next node (cuts must therefore be
  /// *globally valid*, like Benders cuts — they may not cut off integer
  /// points that are feasible for the true problem). Each separation
  /// re-solve counts toward `max_nodes` like a dive step, so repeated
  /// rejections consume the node budget instead of looping forever; a
  /// node abandoned mid-separation by any limit folds its bound into
  /// best_bound conservatively. With threads > 1 the *trajectory* (which
  /// cuts get separated, in which order) depends on lane interleaving —
  /// determinism is explicitly relaxed; objective correctness is not
  /// (incumbents are separation-verified, bounds stay valid).
  LazyCutCallback lazy_cuts;
  /// Also separate *fractional* root points (SCIP's `benderslp` idea):
  /// before branching at the root, run up to 8 callback rounds with
  /// integral=false to tighten the root bound. Integral candidates get at
  /// most 64 separation rounds per node; hitting that drops the node
  /// conservatively (never claims Optimal past it).
  bool benders_lp_cuts = false;
  SimplexOptions lp;
};

[[nodiscard]] MilpResult solve_milp(const LpModel& model,
                                    const MilpOptions& opts = {});

/// Stateful overload for cut loops (the Benders master): the session owns
/// the model — append cuts through it between calls — and its live basis
/// warm-starts the root LP, which re-solves with dual simplex when the
/// appended cuts left the incumbent basis dual-feasible. The root basis is
/// left in the session afterwards, so the next call warm-starts from it.
[[nodiscard]] MilpResult solve_milp(LpSession& session,
                                    const MilpOptions& opts = {});

}  // namespace ovnes::solver
