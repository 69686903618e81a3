// Branching-rule machinery for the branch-and-bound MILP solver.
//
// Two rules are dispatched by MilpOptions::branching (solver/milp.hpp):
//
//   * MostFractional — the historical rule: within the best (lowest)
//     branch_priority class, pick the variable whose LP value is furthest
//     from an integer. Deterministic and stateless; the paper-figure
//     trajectories are pinned against it.
//   * Pseudocost — reliability-initialized pseudocost branching. Per
//     integer variable the solver maintains the observed objective
//     degradation *per unit of fractionality* in each branching direction
//     (Pseudocosts below). Candidates whose per-direction observation
//     count is below MilpOptions::reliability are strong-branched first:
//     both child LPs are probe-solved (bound-delta re-solves, fanned over
//     idle exec-pool lanes) and the measured degradations seed the
//     pseudocosts. Selection maximizes the classic product score
//     max(ψ⁻·f, ε)·max(ψ⁺·(1−f), ε) with deterministic tie-breaking
//     (larger fractional distance, then lower variable index), so a
//     serial solve is a pure function of the instance and the parallel
//     solve keeps the objective guarantee the most-fractional rule gives.
//
// The Pseudocosts container is solver-agnostic and unit-tested directly
// (tests/branching_test.cpp); milp.cpp owns locking around it.
#pragma once

#include <vector>

#include "solver/lp_model.hpp"

namespace ovnes::solver {

enum class BranchRule {
  MostFractional,  ///< stateless: deepest fractionality in best priority class
  Pseudocost,      ///< reliability-initialized pseudocost product score
};

[[nodiscard]] const char* to_string(BranchRule r);

/// Integrality tolerance of branch-and-bound and its heuristics: an
/// integer variable within this distance of an integer counts as integral.
inline constexpr double kIntTol = 1e-6;

/// \brief One fractional branching candidate at an LP-optimal point.
struct BranchCandidate {
  int var = -1;
  double value = 0.0;  ///< LP value
  double frac = 0.0;   ///< value - floor(value), in (kIntTol, 1 - kIntTol)
  /// min(frac, 1 - frac): distance to the nearest integer, the
  /// most-fractional rule's score and every rule's final tie-break.
  [[nodiscard]] double dist() const { return frac < 0.5 ? frac : 1.0 - frac; }
};

/// Fractional integer variables within the best (lowest) branch_priority
/// class that has any fractional member, in ascending variable order.
/// Empty means the point is integral. All branching rules draw from this
/// set, so priority semantics (the tenant-acceptance dichotomy) are
/// rule-independent.
[[nodiscard]] std::vector<BranchCandidate> fractional_candidates(
    const LpModel& model, const std::vector<int>& int_vars,
    const std::vector<double>& x);

/// \brief Per-variable up/down pseudocosts: mean observed LP bound
/// degradation per unit of fractionality, per branching direction.
///
/// An observation (delta, frac) records that moving a variable `frac`
/// units toward the branch (frac = f for the down child, 1 − f for the up
/// child, where f is the parent's fractional part) raised the child LP
/// bound by `delta` >= 0. The stored pseudocost is the running mean of
/// delta / frac, i.e. degradation normalized to one unit of fractionality
/// — the quantity that makes observations from different nodes
/// comparable. Variables with no observation in a direction fall back to
/// the average pseudocost over initialized variables (SCIP's
/// uninitialized-pseudocost convention), and to 1.0 before any
/// observation exists at all, which reduces the product score to
/// fractionality — the most-fractional rule as the cold-start behaviour.
///
/// Not internally synchronized: milp.cpp guards it with a dedicated
/// mutex; tests drive it single-threaded.
class Pseudocosts {
 public:
  Pseudocosts() = default;
  explicit Pseudocosts(std::size_t num_vars) : entries_(num_vars) {}

  void resize(std::size_t num_vars) { entries_.resize(num_vars); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Record a down-branch observation: fixing var below its LP value cost
  /// `delta` objective over `frac` units of fractionality. Non-positive
  /// `frac` observations are ignored (no information content); negative
  /// deltas are clamped to 0 (a child bound can only tighten).
  void observe_down(int var, double delta, double frac);
  void observe_up(int var, double delta, double frac);

  /// Estimated degradation per unit fractionality (>= 0). Falls back to
  /// the cross-variable average, then 1.0, when uninitialized.
  [[nodiscard]] double down_cost(int var) const;
  [[nodiscard]] double up_cost(int var) const;

  [[nodiscard]] long down_count(int var) const {
    return entries_[static_cast<std::size_t>(var)].down_count;
  }
  [[nodiscard]] long up_count(int var) const {
    return entries_[static_cast<std::size_t>(var)].up_count;
  }

  /// Reliability test: both directions carry at least `threshold`
  /// observations. Candidates failing this are strong-branched first.
  [[nodiscard]] bool reliable(int var, int threshold) const {
    const Entry& e = entries_[static_cast<std::size_t>(var)];
    return e.down_count >= threshold && e.up_count >= threshold;
  }

  /// Product score for a candidate with fractional part `frac`:
  /// max(ψ⁻·frac, ε) · max(ψ⁺·(1−frac), ε). Both-sided degradation is
  /// what shrinks a tree; the ε floor keeps one-sided candidates ordered
  /// by their strong side.
  [[nodiscard]] double score(int var, double frac) const;

  /// Total observations across variables and directions.
  [[nodiscard]] long observations() const { return observations_; }

 private:
  struct Entry {
    double down_sum = 0.0;  ///< Σ delta / frac of down observations
    double up_sum = 0.0;
    long down_count = 0;
    long up_count = 0;
  };
  std::vector<Entry> entries_;
  double global_down_sum_ = 0.0;  ///< Σ of per-variable means' inputs
  double global_up_sum_ = 0.0;
  long global_down_count_ = 0;
  long global_up_count_ = 0;
  long observations_ = 0;
};

/// Deterministic argmax over candidate scores: highest score wins; ties
/// break to the larger fractional distance, then the lower variable
/// index — the ordering that keeps a serial pseudocost solve a pure
/// function of the instance. Returns -1 for an empty candidate set.
[[nodiscard]] int select_by_score(const std::vector<BranchCandidate>& cands,
                                  const std::vector<double>& scores);

}  // namespace ovnes::solver
