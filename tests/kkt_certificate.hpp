// Test-only KKT certificate for LP answers. From the model and the answer's
// x, row duals y and basis statuses alone it checks primal feasibility,
// reduced-cost signs and complementary slackness, and strong duality.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "solver/lp_model.hpp"
#include "solver/simplex.hpp"

namespace ovnes::solver::oracle {

/// Strong-duality residual |c·x − (y·b + d·x)| scaled by max(1, |obj|).
inline double duality_residual(const LpModel& m, const LpResult& r) {
  double dual_obj = 0.0;
  for (int i = 0; i < m.num_rows(); ++i) {
    dual_obj += r.row_duals[static_cast<std::size_t>(i)] * m.row(i).rhs;
  }
  for (int j = 0; j < m.num_vars(); ++j) {
    dual_obj += r.reduced_costs[static_cast<std::size_t>(j)] *
                r.x[static_cast<std::size_t>(j)];
  }
  return std::abs(dual_obj - r.objective) /
         std::max(1.0, std::abs(r.objective));
}

/// KKT conditions of an Optimal answer within `tol`:
///  * primal violation (rows and bounds) ≤ tol;
///  * with reduced costs recomputed as d = c − Aᵀy, every basic column
///    prices at zero, and every nonbasic column sits at the bound its
///    status names with the sign of d that bound allows (≥ −tol at a
///    lower bound, ≤ tol at an upper bound). The slack of row i is
///    s_i = b_i − a_i·x and prices at −y_i;
///  * the answer's duality residual ≤ tol.
inline ::testing::AssertionResult kkt_holds(const LpModel& m,
                                            const LpResult& r,
                                            double tol = 1e-6) {
  if (r.status != LpStatus::Optimal) {
    return ::testing::AssertionFailure() << "status " << to_string(r.status);
  }
  const double viol = m.max_violation(r.x);
  if (viol > tol) {
    return ::testing::AssertionFailure() << "primal violation " << viol;
  }
  const int n = m.num_vars();
  const int rows = m.num_rows();
  if (r.basis.status.size() !=
      static_cast<std::size_t>(n) + static_cast<std::size_t>(rows)) {
    return ::testing::AssertionFailure() << "no basis snapshot";
  }
  std::vector<double> d(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    d[static_cast<std::size_t>(j)] = m.variable(j).cost;
  }
  for (int i = 0; i < rows; ++i) {
    const double yi = r.row_duals[static_cast<std::size_t>(i)];
    for (const Coef& c : m.row(i).coefs) {
      d[static_cast<std::size_t>(c.var)] -= yi * c.value;
    }
  }
  for (int j = 0; j < n + rows; ++j) {
    double lo = 0.0;
    double hi = 0.0;
    double dj = 0.0;
    double value = 0.0;  // x_j, or the row's slack
    double scale = 1.0;
    if (j < n) {
      const Variable& v = m.variable(j);
      lo = v.lower;
      hi = v.upper;
      dj = d[static_cast<std::size_t>(j)];
      value = r.x[static_cast<std::size_t>(j)];
    } else {
      const RowView row = m.row(j - n);
      lo = row.sense == RowSense::GreaterEq ? -kInf : 0.0;
      hi = row.sense == RowSense::LessEq ? kInf : 0.0;
      dj = -r.row_duals[static_cast<std::size_t>(j - n)];
      double lhs = 0.0;
      for (const Coef& c : row.coefs) {
        lhs += c.value * r.x[static_cast<std::size_t>(c.var)];
      }
      value = row.rhs - lhs;
      scale = std::max(1.0, std::abs(row.rhs));
    }
    if (lo == hi) continue;  // fixed: any sign is dual-feasible
    const Basis::Status st = r.basis.status[static_cast<std::size_t>(j)];
    if (st == Basis::Status::Basic) {
      if (std::abs(dj) > tol) {
        return ::testing::AssertionFailure()
               << "basic column " << j << " reduced cost " << dj;
      }
      continue;
    }
    const bool at_lower = st == Basis::Status::AtLower;
    if (at_lower ? dj < -tol : dj > tol) {
      return ::testing::AssertionFailure()
             << "column " << j << (at_lower ? " at lower" : " at upper")
             << " reduced cost " << dj;
    }
    const double bound = at_lower ? lo : hi;
    if (std::abs(value - bound) > tol * std::max(scale, std::abs(bound))) {
      return ::testing::AssertionFailure()
             << "column " << j << " value " << value << " off its bound "
             << bound;
    }
  }
  const double gap = duality_residual(m, r);
  if (gap > tol) {
    return ::testing::AssertionFailure() << "duality residual " << gap;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace ovnes::solver::oracle
