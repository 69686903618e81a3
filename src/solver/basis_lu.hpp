// Sparse LU basis factorization for the revised simplex.
//
// The simplex needs four operations on the basis matrix B (m×m, columns
// drawn from [A | I | ±I]):
//
//   factorize(basis)       rebuild the factorization from scratch,
//   ftran(v)               v := B⁻¹ v   (entering column, x_B refresh),
//   btran(v)               v := B⁻ᵀ v   (duals, tableau rows),
//   update(w, r)           replace basis column r; w = B⁻¹ a_entering.
//
// and, since the factorization is now kept alive across LpSession solves,
// a fifth that grows the basis when a cut row is appended:
//
//   append_row(r)          bordered update: B' = [[B, 0], [rᵀ, 1]] — the
//                          new row's slack enters basic at the new slot.
//
// BasisLu implements them as a sparse LU (Gilbert–Peierls left-looking
// elimination with threshold-Markowitz pivoting) plus product-form (eta)
// updates. Columns are eliminated singletons-first (a slack-heavy Benders
// master basis is mostly free), each column's pattern is predicted by a
// depth-first reach over the partially built L, and the row pivot is the
// sparsest row whose magnitude clears `kMarkowitzTol` relative to the
// column — so factorization and the triangular solves cost O(nnz + fill),
// not O(m³)/O(m²). FTRAN and BTRAN sweep the stored factors (and their
// transposes) column-wise and skip columns whose solution entry is exactly
// zero, which short-circuits hypersparse right-hand sides (a unit slack
// column, a single-row BTRAN for dual pricing) to the few columns actually
// reachable. When the fill ratio of a factorization exceeds
// `max_fill_ratio` the kernel re-orders — it retries with a
// Markowitz-product column order and a looser pivot threshold — instead of
// silently densifying; stats() reports the fill and the retries. Each
// pivot appends an O(nnz(w)) eta vector; the kernel asks for a
// refactorization (update() returning false) once the update file grows
// past `max_etas` or a pivot is too small relative to ‖w‖∞ to be applied
// stably. A bordered append is one more entry in the same update file with
// an exact ±1 pivot (the slack column), so a cut round costs O(nnz(cut))
// instead of a refactorization. Singularity during factorization is judged
// per column *relative to that column's magnitude* so badly scaled but
// perfectly regular bases (e.g. 1e-10-coefficient rows next to 1e7
// capacities) are not rejected.
#pragma once

#include <utility>
#include <vector>

#include "solver/sparse.hpp"

namespace ovnes::solver {

/// \brief Tuning knobs of the basis factorization. The pivot thresholds
/// (singularity, threshold-Markowitz, update stability, eta drop) are
/// fixed constants in basis_lu.cpp.
struct BasisKernelOptions {
  /// Refactorize after this many product-form updates. Bordered appends
  /// (append_row) count against the same budget — each one adds the same
  /// O(nnz) term to every subsequent ftran/btran an eta does.
  int max_etas = 64;
  /// When nnz(L+U)/nnz(B) exceeds this after a factorization, the
  /// kernel re-orders (Markowitz-product column order, looser threshold)
  /// and refactorizes instead of keeping the densified factors.
  double max_fill_ratio = 16.0;
};

/// \brief Counters the kernel reports about its own numerical work.
/// Cumulative over the kernel's lifetime except where noted — a kernel
/// kept alive in an LpSession accumulates across solves, and callers diff
/// snapshots for per-solve figures.
struct KernelStats {
  long factor_nnz = 0;       ///< nnz(L)+nnz(U) at the last factorization
  double fill_ratio = 0.0;   ///< factor_nnz / nnz(B) at the last factorization
  double max_fill_ratio = 0.0;  ///< worst fill_ratio seen (lifetime)
  long factorizations = 0;   ///< successful factorize() calls
  long reorderings = 0;      ///< factorizations that re-ordered on fill blowup
  long solves = 0;           ///< ftran() + btran() calls
  long hypersparse_hits = 0; ///< solves that skipped > half their sweep columns
};

/// \brief Sparse LU (Gilbert–Peierls, threshold-Markowitz pivoting) with
/// hypersparse triangular solves and product-form updates (etas and
/// bordered row appends).
///
/// One instance represents the factorization of a single basis matrix B.
/// The simplex keeps it in sync with its basis ordering: every pivot is
/// either absorbed with update() or answered with a full factorize();
/// appended cut rows are absorbed with append_row(). Not thread-safe; each
/// LpSession / simplex run owns its own.
class BasisLu {
 public:
  BasisLu() = default;
  explicit BasisLu(int m, const BasisKernelOptions& opts = {});

  /// \brief Rebuild the factorization from the basis matrix in CSC form
  /// (column k of `basis` is basis column k; basis.n_inner == outer()).
  ///
  /// The kernel adopts basis.outer() as its new dimension (this is how a
  /// kernel kept alive across LpSession solves is recycled after the model
  /// grew or shrank). Returns false when B is numerically singular; the
  /// kernel state is then unusable until a successful factorize.
  [[nodiscard]] bool factorize(const SparseMatrix& basis);

  /// \brief Dense-columns convenience overload (tests, small callers):
  /// compresses `cols` (cols[j] is dense column j, size cols.size()) and
  /// forwards to the sparse factorize.
  [[nodiscard]] bool factorize(const std::vector<std::vector<double>>& cols);

  /// \brief v := B⁻¹ v (v.size() == dim()).
  void ftran(std::vector<double>& v) const;

  /// \brief v := B⁻ᵀ v (v.size() == dim()).
  void btran(std::vector<double>& v) const;

  /// \brief Absorb one basis change (column `leaving_row` replaced).
  ///
  /// `w` is the FTRAN image of the entering column (w = B⁻¹ a_entering,
  /// computed by the caller; the pivot element is w[leaving_row]). Returns
  /// false when the kernel declines — the eta file is full or the pivot is
  /// unstable — and the caller must then refactorize from the updated
  /// basis columns instead.
  [[nodiscard]] bool update(const std::vector<double>& w, int leaving_row);

  /// \brief Grow the basis by one appended row (bordered update).
  ///
  /// The new basis is B' = [[B, 0], [rᵀ, 1]]: the appended row's slack
  /// enters basic at the new slot, and `row_on_basis` lists the appended
  /// row's coefficients on the incumbent basic columns as (slot, value)
  /// pairs (slot < dim()). The border pivot is exactly 1, so the update is
  /// unconditionally stable; it is declined (returning false) only when
  /// the update budget is exhausted — the caller then refactorizes at the
  /// full new dimension.
  [[nodiscard]] bool append_row(
      const std::vector<std::pair<int, double>>& row_on_basis);

  /// \brief Current dimension: rows of the factorized basis plus any
  /// bordered appends absorbed since.
  [[nodiscard]] int dim() const { return dim_; }

  /// \brief Product-form updates (etas + borders) absorbed since the last
  /// factorize.
  [[nodiscard]] int updates_since_factorize() const {
    return static_cast<int>(updates_.size());
  }

  /// \brief Replace the tuning knobs (used when a kernel kept alive in an
  /// LpSession is re-adopted by a solve whose model size implies a
  /// different eta budget).
  void set_options(const BasisKernelOptions& opts) { opts_ = opts; }

  /// \brief Fill / sparsity counters (see KernelStats).
  [[nodiscard]] KernelStats stats() const { return stats_; }

 private:
  /// One product-form update. Two kinds:
  ///  * Eta: B_new = B_old · E with E = I except column `row`, which holds
  ///    w (pivot + off-pivot nonzeros, stored sparsely);
  ///  * Border: B_new = [[B_old, 0], [rᵀ, 1]] for an appended cut row —
  ///    `row` is the new slot index, `col` holds rᵀ (slot, value) pairs,
  ///    and the pivot is exactly 1.
  struct Update {
    enum class Kind : unsigned char { Eta, Border };
    Kind kind = Kind::Eta;
    int row = 0;
    double pivot = 1.0;
    std::vector<std::pair<int, double>> col;
  };

  /// One Gilbert–Peierls elimination pass over `basis` with the given
  /// column order and relative pivot threshold. Fills L_/U_/udiag_/p_/q_
  /// (L_/U_ row indices in pivot coordinates) and reports the fill ratio.
  [[nodiscard]] bool eliminate(const SparseMatrix& basis,
                               const std::vector<int>& order, double tau,
                               double* fill_ratio);

  int m_ = 0;    ///< dimension of the LU factors (at last factorize)
  int dim_ = 0;  ///< m_ plus bordered appends absorbed since
  BasisKernelOptions opts_;
  // B = Pᵀ·L·U·Qᵀ in pivot coordinates: the k-th pivot eliminated original
  // column q_[k] against original row p_[k]. L_ holds the strict lower
  // part (unit diagonal implicit), U_ the strict upper part with the
  // diagonal split into udiag_; Lt_/Ut_ are their transposes so both
  // FTRAN and BTRAN run as forward/backward column sweeps that skip
  // columns whose solution entry is zero (the hypersparse short-circuit).
  SparseMatrix L_, U_, Lt_, Ut_;
  std::vector<double> udiag_;
  std::vector<int> p_, q_;
  std::vector<Update> updates_;  ///< applied in order after the LU solve
  mutable KernelStats stats_;    ///< solve counters bump in const ftran/btran
  mutable std::vector<double> x_;  ///< solve buffer (no per-call alloc)
  // Elimination workspaces (factorize-only, kept allocated across calls).
  std::vector<int> pinv_, topo_, dfs_stack_, dfs_pos_, rowcount_;
  std::vector<char> mark_;
  std::vector<double> xnum_, colscale_;
};

/// \brief Live factorization handed across solves.
///
/// LpSession owns one of these and threads it through every solve: the
/// simplex moves `kernel` out on entry and back in on every exit. When
/// `basis_order` is non-empty the kernel is the factorization of exactly
/// those columns (slot i ↔ basis_order[i], taken at a solve that ended
/// Optimal on a model with `num_vars` variables and `num_rows` rows); a
/// later solve whose warm basis marks the same variable set Basic adopts
/// the factors verbatim — zero refactorizations — and absorbs rows
/// appended since as bordered updates. After a failed solve or any other
/// state the next solve must not trust, `basis_order` is empty and only
/// the kernel's allocation is recycled.
struct BasisFactors {
  BasisLu kernel;
  std::vector<int> basis_order;  ///< column index per slot; empty = stale
  /// Dual steepest-edge weights per basis slot, snapshotted when a solve
  /// ends Optimal straight out of the dual loop (no primal pivots since).
  /// A re-solve that adopts the factors resumes DSE pricing from these
  /// instead of resetting to the reference framework (all ones); empty
  /// whenever the weights no longer describe the handed-back basis.
  std::vector<double> dse_weights;
  int num_vars = 0;              ///< structural vars at snapshot time
  int num_rows = 0;              ///< model rows at snapshot time (== dim)
};

}  // namespace ovnes::solver
