#include "solver/basis_lu.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ovnes::solver {

using std::size_t;

namespace {

/// Singularity threshold during factorize(), applied relative to each
/// column's largest magnitude.
constexpr double kPivotTol = 1e-9;
/// Threshold-Markowitz pivoting: a row is an eligible pivot when its
/// magnitude is at least this fraction of the column's largest eliminated
/// magnitude; among eligible rows the sparsest (fewest basis nonzeros)
/// wins. 1.0 would degenerate to partial pivoting (stablest, most fill);
/// smaller values trade a bounded element-growth risk for sparsity.
constexpr double kMarkowitzTol = 0.1;
/// update() declines (forcing refactorization) when the pivot is smaller
/// than this fraction of ‖w‖∞.
constexpr double kStabilityTol = 1e-8;
/// Eta entries below this magnitude are dropped.
constexpr double kEtaDropTol = 1e-12;

}  // namespace

bool BasisLu::factorize(const std::vector<std::vector<double>>& cols) {
  SparseMatrix b;
  b.clear(static_cast<int>(cols.size()));
  for (const std::vector<double>& col : cols) {
    for (size_t r = 0; r < col.size(); ++r) {
      if (col[r] != 0.0) b.push(static_cast<int>(r), col[r]);
    }
    b.close_outer();
  }
  return factorize(b);
}

BasisLu::BasisLu(int m, const BasisKernelOptions& opts)
    : m_(m), dim_(m), opts_(opts) {
  x_.resize(static_cast<size_t>(m));
}

bool BasisLu::factorize(const SparseMatrix& basis) {
  // Adopt the column count as the new dimension: a kernel kept alive in an
  // LpSession is recycled by refactorizing it at whatever size the model
  // has grown (appended cuts) or shrunk (popped frames) to.
  m_ = basis.outer();
  dim_ = m_;
  updates_.clear();
  const auto m = static_cast<size_t>(m_);
  x_.resize(m);
  p_.resize(m);
  q_.resize(m);
  udiag_.resize(m);
  pinv_.resize(m);
  mark_.assign(m, 0);
  xnum_.assign(m, 0.0);
  dfs_stack_.resize(m);
  dfs_pos_.resize(m);
  topo_.clear();
  topo_.reserve(m);
  // Per-column scale for the *relative* singularity / threshold test and
  // static row counts for the Markowitz tie-break (sparsest eligible row).
  colscale_.assign(m, 0.0);
  rowcount_.assign(m, 0);
  for (int j = 0; j < m_; ++j) {
    for (int pp = basis.begin(j); pp < basis.end(j); ++pp) {
      const auto pu = static_cast<size_t>(pp);
      colscale_[static_cast<size_t>(j)] = std::max(
          colscale_[static_cast<size_t>(j)], std::abs(basis.val[pu]));
      ++rowcount_[static_cast<size_t>(basis.ind[pu])];
    }
  }

  // Column preorder: singletons (slack/unit columns) first, then ascending
  // nonzero count — the cheap approximation of Markowitz ordering that is
  // exact on the slack-heavy bases Benders masters produce.
  std::vector<int> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return basis.end(a) - basis.begin(a) < basis.end(b) - basis.begin(b);
  });

  double fill = 0.0;
  if (!eliminate(basis, order, kMarkowitzTol, &fill)) return false;
  if (fill > opts_.max_fill_ratio && m_ > 1) {
    // Fill blowup: re-order instead of silently keeping densified factors.
    // Second attempt orders columns by the static Markowitz product
    // (colnnz−1)·(sparsest row in column − 1) and loosens the pivot
    // threshold tenfold, giving the row choice more freedom to chase
    // sparsity; element growth stays bounded by the relative
    // singularity test.
    ++stats_.reorderings;
    std::vector<long> product(m, 0);
    for (int j = 0; j < m_; ++j) {
      int rmin = m_;
      for (int pp = basis.begin(j); pp < basis.end(j); ++pp) {
        rmin = std::min(
            rmin, rowcount_[static_cast<size_t>(
                      basis.ind[static_cast<size_t>(pp)])]);
      }
      const long cn = basis.end(j) - basis.begin(j);
      product[static_cast<size_t>(j)] =
          (cn - 1) * static_cast<long>(std::max(0, rmin - 1));
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return product[static_cast<size_t>(a)] < product[static_cast<size_t>(b)];
    });
    double refill = 0.0;
    if (!eliminate(basis, order, 0.1 * kMarkowitzTol, &refill)) {
      return false;
    }
    fill = refill;
  }

  // Transposes give BTRAN the same skip-zero-columns sweep FTRAN gets from
  // L_/U_ directly.
  transpose(L_, Lt_);
  transpose(U_, Ut_);

  ++stats_.factorizations;
  stats_.factor_nnz = L_.nnz() + U_.nnz() + m_;
  stats_.fill_ratio =
      static_cast<double>(stats_.factor_nnz) /
      static_cast<double>(std::max<long>(1, basis.nnz()));
  stats_.max_fill_ratio = std::max(stats_.max_fill_ratio, stats_.fill_ratio);
  return true;
}

bool BasisLu::eliminate(const SparseMatrix& basis,
                        const std::vector<int>& order, double tau,
                        double* fill_ratio) {
  std::fill(pinv_.begin(), pinv_.end(), -1);
  L_.clear(m_);
  U_.clear(m_);

  for (int k = 0; k < m_; ++k) {
    const int j = order[static_cast<size_t>(k)];

    // --- Symbolic: the pattern of x = L⁻¹·B(:,j) is the set of nodes
    // reachable from B(:,j)'s nonzeros in the DAG of the partially built L
    // (node = original row; pivotal rows link to their L column). The DFS
    // emits nodes in postorder; processing topo_ in reverse gives a valid
    // elimination order.
    topo_.clear();
    for (int pp = basis.begin(j); pp < basis.end(j); ++pp) {
      int node = basis.ind[static_cast<size_t>(pp)];
      if (mark_[static_cast<size_t>(node)]) continue;
      int top = 0;
      dfs_stack_[0] = node;
      dfs_pos_[0] = pinv_[static_cast<size_t>(node)] >= 0
                        ? L_.begin(pinv_[static_cast<size_t>(node)])
                        : 0;
      mark_[static_cast<size_t>(node)] = 1;
      while (top >= 0) {
        const int i = dfs_stack_[static_cast<size_t>(top)];
        const int kk = pinv_[static_cast<size_t>(i)];
        const int pend = kk >= 0 ? L_.end(kk) : 0;
        bool descended = false;
        while (dfs_pos_[static_cast<size_t>(top)] < pend) {
          const int child =
              L_.ind[static_cast<size_t>(dfs_pos_[static_cast<size_t>(top)]++)];
          if (mark_[static_cast<size_t>(child)]) continue;
          mark_[static_cast<size_t>(child)] = 1;
          ++top;
          dfs_stack_[static_cast<size_t>(top)] = child;
          dfs_pos_[static_cast<size_t>(top)] =
              pinv_[static_cast<size_t>(child)] >= 0
                  ? L_.begin(pinv_[static_cast<size_t>(child)])
                  : 0;
          descended = true;
          break;
        }
        if (descended) continue;
        topo_.push_back(i);
        --top;
      }
    }

    // --- Numeric: scatter B(:,j), then eliminate along the reach in
    // topological (reverse-postorder) order.
    for (int pp = basis.begin(j); pp < basis.end(j); ++pp) {
      xnum_[static_cast<size_t>(basis.ind[static_cast<size_t>(pp)])] =
          basis.val[static_cast<size_t>(pp)];
    }
    for (size_t t = topo_.size(); t-- > 0;) {
      const int i = topo_[t];
      const int kk = pinv_[static_cast<size_t>(i)];
      if (kk < 0) continue;  // not yet pivotal: no column to eliminate with
      const double xi = xnum_[static_cast<size_t>(i)];
      if (xi == 0.0) continue;
      for (int pp = L_.begin(kk); pp < L_.end(kk); ++pp) {
        xnum_[static_cast<size_t>(L_.ind[static_cast<size_t>(pp)])] -=
            L_.val[static_cast<size_t>(pp)] * xi;
      }
    }

    // --- Pivot: among not-yet-pivotal rows, the sparsest whose magnitude
    // clears tau·(column max); ties toward the larger magnitude.
    double colmax = 0.0;
    for (const int i : topo_) {
      if (pinv_[static_cast<size_t>(i)] < 0) {
        colmax = std::max(colmax, std::abs(xnum_[static_cast<size_t>(i)]));
      }
    }
    const double scale = colscale_[static_cast<size_t>(j)];
    if (scale == 0.0 || colmax <= kPivotTol * scale) {
      // Singular (or empty) column: clean the workspace and give up.
      for (const int i : topo_) {
        mark_[static_cast<size_t>(i)] = 0;
        xnum_[static_cast<size_t>(i)] = 0.0;
      }
      return false;
    }
    const double threshold =
        std::max(tau * colmax, kPivotTol * scale);
    int piv_row = -1;
    int piv_count = m_ + 1;
    double piv_mag = 0.0;
    for (const int i : topo_) {
      if (pinv_[static_cast<size_t>(i)] >= 0) continue;
      const double mag = std::abs(xnum_[static_cast<size_t>(i)]);
      if (mag < threshold) continue;
      const int rc = rowcount_[static_cast<size_t>(i)];
      if (rc < piv_count || (rc == piv_count && mag > piv_mag)) {
        piv_count = rc;
        piv_mag = mag;
        piv_row = i;
      }
    }
    const double piv = xnum_[static_cast<size_t>(piv_row)];

    // --- Emit column k of the factors. U entries live in pivot
    // coordinates already (row = pinv of an eliminated row); L entries
    // keep original row indices until the end-of-factorization renumber.
    for (const int i : topo_) {
      const int kk = pinv_[static_cast<size_t>(i)];
      const double v = xnum_[static_cast<size_t>(i)];
      if (kk >= 0) {
        if (v != 0.0) U_.push(kk, v);
      } else if (i != piv_row && v != 0.0) {
        L_.push(i, v / piv);
      }
      mark_[static_cast<size_t>(i)] = 0;
      xnum_[static_cast<size_t>(i)] = 0.0;
    }
    U_.close_outer();
    L_.close_outer();
    udiag_[static_cast<size_t>(k)] = piv;
    pinv_[static_cast<size_t>(piv_row)] = k;
    p_[static_cast<size_t>(k)] = piv_row;
    q_[static_cast<size_t>(k)] = j;
  }

  // Renumber L into pivot coordinates (every entry's row pivoted later
  // than its column, so L is strictly lower triangular there).
  for (size_t pp = 0; pp < L_.ind.size(); ++pp) {
    L_.ind[pp] = pinv_[static_cast<size_t>(L_.ind[pp])];
  }
  *fill_ratio = static_cast<double>(L_.nnz() + U_.nnz() + m_) /
                static_cast<double>(std::max<long>(1, basis.nnz()));
  return true;
}

void BasisLu::ftran(std::vector<double>& v) const {
  const auto m = static_cast<size_t>(m_);
  // Base solve on the first m_ entries (entries beyond m_ belong to
  // bordered rows, which the base factors treat as an identity block).
  // B = Pᵀ·L·U·Qᵀ: permute (x = Pv), L then U column sweeps, permute back.
  // Sweeps skip columns whose solution entry is exactly zero — a
  // hypersparse right-hand side (unit slack column) only pays for the
  // columns it actually reaches.
  if (m != 0) {
    std::vector<double>& x = x_;
    for (size_t k = 0; k < m; ++k) {
      x[k] = v[static_cast<size_t>(p_[k])];
    }
    long skipped = 0;
    for (int k = 0; k < m_; ++k) {
      const double xk = x[static_cast<size_t>(k)];
      if (xk == 0.0) {
        ++skipped;
        continue;
      }
      for (int pp = L_.begin(k); pp < L_.end(k); ++pp) {
        x[static_cast<size_t>(L_.ind[static_cast<size_t>(pp)])] -=
            L_.val[static_cast<size_t>(pp)] * xk;
      }
    }
    for (int k = m_; k-- > 0;) {
      double xk = x[static_cast<size_t>(k)];
      if (xk == 0.0) {
        ++skipped;
        continue;
      }
      xk /= udiag_[static_cast<size_t>(k)];
      x[static_cast<size_t>(k)] = xk;
      for (int pp = U_.begin(k); pp < U_.end(k); ++pp) {
        x[static_cast<size_t>(U_.ind[static_cast<size_t>(pp)])] -=
            U_.val[static_cast<size_t>(pp)] * xk;
      }
    }
    for (size_t k = 0; k < m; ++k) {
      v[static_cast<size_t>(q_[k])] = x[k];
    }
    ++stats_.solves;
    if (skipped > m_) ++stats_.hypersparse_hits;
  }
  // Product-form updates, oldest first: B = B₀U₁…U_K ⇒ B⁻¹ = U_K⁻¹…U₁⁻¹B₀⁻¹.
  for (const Update& u : updates_) {
    if (u.kind == Update::Kind::Border) {
      // [[B,0],[rᵀ,1]]⁻¹ acts as x_d := v_d − rᵀ·x on the prefix solved so
      // far (border pivot is exactly 1).
      double s = v[static_cast<size_t>(u.row)];
      for (const auto& [i, ri] : u.col) s -= ri * v[static_cast<size_t>(i)];
      v[static_cast<size_t>(u.row)] = s;
    } else {
      const auto r = static_cast<size_t>(u.row);
      const double xr = v[r] / u.pivot;
      v[r] = xr;
      if (xr == 0.0) continue;
      for (const auto& [i, wi] : u.col) v[static_cast<size_t>(i)] -= wi * xr;
    }
  }
}

void BasisLu::btran(std::vector<double>& v) const {
  // B⁻ᵀ = B₀⁻ᵀ U₁⁻ᵀ … U_K⁻ᵀ: apply update transposes newest first, then the
  // base solve on the first m_ entries.
  for (auto it = updates_.rbegin(); it != updates_.rend(); ++it) {
    const Update& u = *it;
    if (u.kind == Update::Kind::Border) {
      // [[B,0],[rᵀ,1]]⁻ᵀ: v_p := v_p − r_p·v_d for the border's support;
      // v_d itself passes through.
      const double vd = v[static_cast<size_t>(u.row)];
      if (vd == 0.0) continue;
      for (const auto& [i, ri] : u.col) v[static_cast<size_t>(i)] -= ri * vd;
    } else {
      // E⁻ᵀ v: only entry `row` changes.
      double s = v[static_cast<size_t>(u.row)];
      for (const auto& [i, wi] : u.col) s -= wi * v[static_cast<size_t>(i)];
      v[static_cast<size_t>(u.row)] = s / u.pivot;
    }
  }
  const auto m = static_cast<size_t>(m_);
  if (m == 0) return;
  // Bᵀ = Q·Uᵀ·Lᵀ·P: permute (x = Qᵀv), forward sweep over Uᵀ (stored as
  // Ut_), backward sweep over Lᵀ (stored as Lt_), permute back. Same
  // skip-zero-columns short-circuit as ftran — a single-row BTRAN (dual
  // pivot-row pricing) touches only the columns its row reaches.
  std::vector<double>& x = x_;
  for (size_t k = 0; k < m; ++k) {
    x[k] = v[static_cast<size_t>(q_[k])];
  }
  long skipped = 0;
  for (int k = 0; k < m_; ++k) {
    double xk = x[static_cast<size_t>(k)];
    if (xk == 0.0) {
      ++skipped;
      continue;
    }
    xk /= udiag_[static_cast<size_t>(k)];
    x[static_cast<size_t>(k)] = xk;
    if (xk == 0.0) continue;
    for (int pp = Ut_.begin(k); pp < Ut_.end(k); ++pp) {
      x[static_cast<size_t>(Ut_.ind[static_cast<size_t>(pp)])] -=
          Ut_.val[static_cast<size_t>(pp)] * xk;
    }
  }
  for (int k = m_; k-- > 0;) {
    const double xk = x[static_cast<size_t>(k)];
    if (xk == 0.0) {
      ++skipped;
      continue;
    }
    for (int pp = Lt_.begin(k); pp < Lt_.end(k); ++pp) {
      x[static_cast<size_t>(Lt_.ind[static_cast<size_t>(pp)])] -=
          Lt_.val[static_cast<size_t>(pp)] * xk;
    }
  }
  for (size_t k = 0; k < m; ++k) {
    v[static_cast<size_t>(p_[k])] = x[k];
  }
  ++stats_.solves;
  if (skipped > m_) ++stats_.hypersparse_hits;
}

bool BasisLu::update(const std::vector<double>& w, int leaving_row) {
  if (static_cast<int>(updates_.size()) >= opts_.max_etas) return false;
  const double piv = w[static_cast<size_t>(leaving_row)];
  double wmax = 0.0;
  for (const double x : w) wmax = std::max(wmax, std::abs(x));
  // A pivot tiny relative to the rest of the eta column would amplify
  // round-off on every subsequent ftran/btran; refactorize instead.
  if (std::abs(piv) <= kStabilityTol * std::max(1.0, wmax)) return false;
  Update u;
  u.kind = Update::Kind::Eta;
  u.row = leaving_row;
  u.pivot = piv;
  for (size_t i = 0; i < w.size(); ++i) {
    if (static_cast<int>(i) == leaving_row) continue;
    if (std::abs(w[i]) > kEtaDropTol) {
      u.col.emplace_back(static_cast<int>(i), w[i]);
    }
  }
  updates_.push_back(std::move(u));
  return true;
}

bool BasisLu::append_row(
    const std::vector<std::pair<int, double>>& row_on_basis) {
  // Borders share the eta budget: each adds the same O(nnz) term to every
  // subsequent ftran/btran, so past the limit a refactorization (which
  // folds them all back into the LU factors) is the cheaper steady state.
  if (static_cast<int>(updates_.size()) >= opts_.max_etas) return false;
  Update u;
  u.kind = Update::Kind::Border;
  u.row = dim_;
  u.pivot = 1.0;
  u.col.reserve(row_on_basis.size());
  for (const auto& [i, ri] : row_on_basis) {
    // Border entries are exact constraint coefficients (not a correction
    // term like an eta), so only exact zeros are dropped.
    if (ri != 0.0) u.col.emplace_back(i, ri);
  }
  updates_.push_back(std::move(u));
  ++dim_;
  return true;
}

}  // namespace ovnes::solver
