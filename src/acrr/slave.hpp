// Benders slave problem P_S(x̄) (Problem 3) and cut extraction.
//
// Given a fixed admission/placement vector x̄, the coupling constraints
// (8)-(12) collapse to box bounds z ∈ [λ̂, Λ] on the *active* paths and the
// slave reduces to
//     min  Σ −w_j z_j  (+ M·(δr+δb+δc) under the §3.4 relaxation)
//     s.t. compute / transport / radio capacity rows (14)-(16)
// which we solve with the in-repo simplex. From the LP duals (or the Farkas
// ray when x̄ is overcommitted) we rebuild the paper's Benders cuts
// g(x, µ) ≤ θ (optimality, eq. 21) and g(x, µ_ray) ≤ 0 (feasibility,
// eq. 22) as closed-form linear functions of the *full* x vector — see
// DESIGN.md "Deliberate modelling choices" #1 for the equivalence argument.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "acrr/instance.hpp"
#include "solver/lp_model.hpp"
#include "solver/lp_session.hpp"
#include "solver/simplex.hpp"

namespace ovnes::acrr {

/// A cut over master variables: optimality  θ >= constant + Σ coef_j·x_j,
/// feasibility  0 >= constant + Σ coef_j·x_j.
struct BendersCut {
  bool optimality = true;
  double constant = 0.0;
  std::vector<std::pair<int, double>> coefs;  ///< (var index, coefficient)

  /// Evaluate constant + Σ coef·x at the given activation vector.
  [[nodiscard]] double value_at(const std::vector<char>& x_active) const;
};

struct SlaveResult {
  bool feasible = false;
  double objective = 0.0;          ///< Σ −w_j z_j (+ M·δ); the θ* value
  std::vector<double> z;           ///< per instance-var; 0 for inactive vars
  double deficit = 0.0;            ///< Σ δ under the big-M relaxation
  BendersCut cut;                  ///< optimality or feasibility cut

  /// The slave failed without a certificate (e.g. its LP hit the
  /// iteration limit): infeasible with a vacuous cut — no coefficients,
  /// constant <= 0 — that can exclude no master point.
  [[nodiscard]] bool uncertified() const {
    return !feasible && cut.coefs.empty() && cut.constant <= 0.0;
  }
};

class SlaveProblem {
 public:
  explicit SlaveProblem(const AcrrInstance& inst) : inst_(&inst) {}

  /// Solve P_S(x̄). `x_active[j]` marks variable j active. When
  /// `allow_deficit` the §3.4 aggregate deficit variables δr/δb/δc are
  /// added (the slave is then always feasible). The LpSession built for
  /// the previous activation vector is kept alive and re-solved directly
  /// whenever the master proposes the same x̄ again — the model is not
  /// even rebuilt and the incumbent basis re-verifies in zero pivots.
  [[nodiscard]] SlaveResult solve(const std::vector<char>& x_active,
                                  bool allow_deficit) const;

 private:
  /// LP row provenance for dual/Farkas extraction: which resource each
  /// capacity row prices.
  enum class RowKind : unsigned char { Compute, Transport, Radio };
  struct RowRef {
    RowKind kind;
    std::uint32_t id;
  };

  const AcrrInstance* inst_;
  // The session of the last solve, cached for repeated activation vectors,
  // along with the row/variable maps needed to read its solution back.
  // Mutable: the slave stays logically const per call; note this makes
  // concurrent solve() calls on ONE SlaveProblem racy — use distinct
  // instances per thread (solve_benders already does).
  mutable std::optional<solver::LpSession> session_;
  mutable std::map<int, int> z_of_;        ///< instance var -> lp var
  mutable std::vector<RowRef> row_refs_;   ///< per LP row
  mutable std::vector<int> deficit_cols_;  ///< δc/δb/δr lp vars (or empty)
  mutable std::vector<char> warm_active_;
  mutable bool warm_deficit_ = false;
};

}  // namespace ovnes::acrr
