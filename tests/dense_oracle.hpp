// Test-only dense reference for basis solves: Bx = v and Bᵀy = v by
// Gaussian elimination with partial pivoting on an explicit copy of B.
// O(m³) per solve and no update machinery — it exists only to cross-check
// the sparse LU kernel (solver/basis_lu.hpp) at sizes where that is cheap.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "solver/sparse.hpp"

namespace ovnes::solver::oracle {

/// Dense columns of a CSC matrix (cols[j] is column j, size n_inner).
inline std::vector<std::vector<double>> dense_columns(const SparseMatrix& b) {
  std::vector<std::vector<double>> cols(
      static_cast<std::size_t>(b.outer()),
      std::vector<double>(static_cast<std::size_t>(b.n_inner), 0.0));
  for (int c = 0; c < b.outer(); ++c) {
    scatter(b, c, cols[static_cast<std::size_t>(c)]);
  }
  return cols;
}

/// Solve B·x = v, or Bᵀ·x = v when `transpose` is set, where cols[j] is
/// dense column j of the m×m matrix B. Returns x; B must be nonsingular.
inline std::vector<double> dense_solve(
    const std::vector<std::vector<double>>& cols, std::vector<double> v,
    bool transpose) {
  const std::size_t m = cols.size();
  // Row-major working copy a[r][c] of B (or Bᵀ).
  std::vector<std::vector<double>> a(m, std::vector<double>(m));
  for (std::size_t c = 0; c < m; ++c) {
    for (std::size_t r = 0; r < m; ++r) {
      if (transpose) {
        a[c][r] = cols[c][r];
      } else {
        a[r][c] = cols[c][r];
      }
    }
  }
  for (std::size_t k = 0; k < m; ++k) {
    std::size_t p = k;
    for (std::size_t r = k + 1; r < m; ++r) {
      if (std::abs(a[r][k]) > std::abs(a[p][k])) p = r;
    }
    std::swap(a[p], a[k]);
    std::swap(v[p], v[k]);
    for (std::size_t r = k + 1; r < m; ++r) {
      const double f = a[r][k] / a[k][k];
      if (f == 0.0) continue;
      for (std::size_t c = k; c < m; ++c) a[r][c] -= f * a[k][c];
      v[r] -= f * v[k];
    }
  }
  for (std::size_t k = m; k-- > 0;) {
    double s = v[k];
    for (std::size_t c = k + 1; c < m; ++c) s -= a[k][c] * v[c];
    v[k] = s / a[k][k];
  }
  return v;
}

}  // namespace ovnes::solver::oracle
