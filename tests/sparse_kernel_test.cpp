// Sparse kernel battery.
//
// Certifies the sparse Markowitz LU (BasisLu) on the slack-heavy
// Benders-master bases it was built for, at m ∈ {50, 200, 500, 2000}:
//
//  * FTRAN/BTRAN agree with the dense elimination oracle (dense_oracle.hpp)
//    within 1e-6 where the O(m³) oracle is tractable (m ≤ 500), and with a
//    residual oracle (‖B·x − v‖ ≤ 1e-6·scale, checkable in O(nnz))
//    everywhere;
//  * bordered appends + interleaved eta pivots agree with a from-scratch
//    refactorization of the grown basis (warm re-solve shape);
//  * full solve_lp answers pass a KKT certificate (kkt_certificate.hpp),
//    cold and warm re-solved after a sparse cut;
//  * the hypersparse short-circuit and the fill-blowup re-ordering
//    (KernelStats) actually fire.
//
// basis_lu_test.cpp keeps the dense-random battery; this file owns the
// sparse-workload coverage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dense_oracle.hpp"
#include "kkt_certificate.hpp"
#include "solver/basis_lu.hpp"
#include "solver/lp_model.hpp"
#include "solver/simplex.hpp"
#include "solver/sparse.hpp"

namespace ovnes::solver {
namespace {

using ovnes::RngStream;

// Slack-heavy sparse basis in CSC: `structurals` columns carry ~8 random
// entries plus a boosted diagonal (nonsingular by dominance); the rest are
// unit slack columns. This is the shape an optimal Benders-master basis
// actually has — mostly slacks, a few sparse structural columns.
SparseMatrix sparse_basis(int m, int structurals, RngStream& rng) {
  SparseMatrix b;
  b.clear(m);
  for (int c = 0; c < m; ++c) {
    if (c < structurals) {
      std::vector<std::pair<int, double>> entries;
      entries.emplace_back(c, rng.uniform(2.0, 5.0));  // dominant diagonal
      for (int t = 0; t < 8; ++t) {
        const int r = static_cast<int>(rng.uniform_int(0, m - 1));
        if (r != c) entries.emplace_back(r, rng.uniform(-1.0, 1.0));
      }
      std::sort(entries.begin(), entries.end());
      entries.erase(std::unique(entries.begin(), entries.end(),
                                [](const auto& a, const auto& b2) {
                                  return a.first == b2.first;
                                }),
                    entries.end());
      for (const auto& [r, v] : entries) b.push(r, v);
    } else {
      b.push(c, 1.0);
    }
    b.close_outer();
  }
  return b;
}

std::vector<double> random_vector(int m, RngStream& rng) {
  std::vector<double> v(static_cast<size_t>(m));
  for (double& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

double max_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

// Residual oracles: certify x = B⁻¹v / B⁻ᵀv in O(nnz), independent of any
// reference solve — the only equivalence check that stays tractable at
// m = 2000.
double ftran_residual(const SparseMatrix& b, const std::vector<double>& x,
                      const std::vector<double>& v) {
  std::vector<double> r = v;
  for (int c = 0; c < b.outer(); ++c) {
    const double xc = x[static_cast<size_t>(c)];
    if (xc == 0.0) continue;
    for (int p = b.begin(c); p < b.end(c); ++p) {
      r[static_cast<size_t>(b.ind[static_cast<size_t>(p)])] -=
          b.val[static_cast<size_t>(p)] * xc;
    }
  }
  double d = 0.0;
  for (const double e : r) d = std::max(d, std::abs(e));
  return d;
}

double btran_residual(const SparseMatrix& b, const std::vector<double>& x,
                      const std::vector<double>& v) {
  double d = 0.0;
  for (int c = 0; c < b.outer(); ++c) {
    double dot = 0.0;
    for (int p = b.begin(c); p < b.end(c); ++p) {
      dot += b.val[static_cast<size_t>(p)] *
             x[static_cast<size_t>(b.ind[static_cast<size_t>(p)])];
    }
    d = std::max(d, std::abs(dot - v[static_cast<size_t>(c)]));
  }
  return d;
}

// -------------------------------------------------------- sparse.hpp unit

TEST(SparseMatrix, TransposeRoundTripsAndScatterDensifies) {
  SparseMatrix a;
  a.clear(3);
  a.push(0, 1.0);
  a.push(2, -2.0);
  a.close_outer();  // col 0: rows {0, 2}
  a.close_outer();  // col 1: empty
  a.push(1, 4.0);
  a.close_outer();  // col 2: row {1}
  ASSERT_EQ(a.outer(), 3);
  ASSERT_EQ(a.nnz(), 3);

  SparseMatrix at, att;
  transpose(a, at);
  transpose(at, att);
  ASSERT_EQ(att.outer(), a.outer());
  ASSERT_EQ(att.nnz(), a.nnz());
  for (int c = 0; c < a.outer(); ++c) {
    std::vector<double> da(3, 0.0), db(3, 0.0);
    scatter(a, c, da);
    scatter(att, c, db);
    EXPECT_EQ(da, db) << "col " << c;
  }
  std::vector<double> d0(3, 0.0);
  scatter(a, 0, d0);
  EXPECT_EQ(d0, (std::vector<double>{1.0, 0.0, -2.0}));
}

// ---------------------------------------------------- kernel-level battery

struct KernelCase {
  int m;
  std::uint64_t seed;
};

class SparseKernelBattery : public ::testing::TestWithParam<KernelCase> {};

TEST_P(SparseKernelBattery, FtranBtranMatchReferenceAndResidual) {
  const auto [m, seed] = GetParam();
  RngStream rng(seed);
  const SparseMatrix b = sparse_basis(m, m / 8, rng);
  BasisLu lu(m);
  ASSERT_TRUE(lu.factorize(b));

  const bool dense_tractable = m <= 500;
  const std::vector<std::vector<double>> cols =
      dense_tractable ? oracle::dense_columns(b)
                      : std::vector<std::vector<double>>{};

  for (int rep = 0; rep < 4; ++rep) {
    const std::vector<double> v = random_vector(m, rng);
    std::vector<double> x = v;
    lu.ftran(x);
    EXPECT_LT(ftran_residual(b, x, v), 1e-6) << "rep " << rep;
    if (dense_tractable) {
      EXPECT_LT(max_diff(x, oracle::dense_solve(cols, v, false)), 1e-6)
          << "rep " << rep;
    }
    x = v;
    lu.btran(x);
    EXPECT_LT(btran_residual(b, x, v), 1e-6) << "rep " << rep;
    if (dense_tractable) {
      EXPECT_LT(max_diff(x, oracle::dense_solve(cols, v, true)), 1e-6)
          << "rep " << rep;
    }
  }
  // Slack-heavy basis: the factors must stay essentially fill-free.
  EXPECT_LT(lu.stats().fill_ratio, 2.0);
  EXPECT_GE(lu.stats().factor_nnz, static_cast<long>(m));
}

TEST_P(SparseKernelBattery, BorderedAppendsMatchRefactorization) {
  const auto [m, seed] = GetParam();
  RngStream rng(seed ^ 0xb0deull);
  SparseMatrix b = sparse_basis(m, m / 8, rng);
  BasisLu lu(m);
  ASSERT_TRUE(lu.factorize(b));

  // Warm re-solve shape: 8 appended cut rows (sparse border over the
  // incumbent slots, unit slack on the new slot), an eta pivot every third
  // append.
  const int appends = 8;
  // Rebuild the grown basis alongside as dense columns for the reference
  // refactorization.
  std::vector<std::vector<double>> cols = oracle::dense_columns(b);

  for (int a = 0; a < appends; ++a) {
    const int dim = lu.dim();
    std::vector<std::pair<int, double>> border;
    for (int t = 0; t < 6; ++t) {
      const int c = static_cast<int>(rng.uniform_int(0, dim - 1));
      border.emplace_back(c, rng.uniform(-2.0, 2.0));
    }
    std::sort(border.begin(), border.end());
    border.erase(std::unique(border.begin(), border.end(),
                             [](const auto& x, const auto& y) {
                               return x.first == y.first;
                             }),
                 border.end());
    for (auto& col : cols) col.push_back(0.0);
    for (const auto& [c, v] : border) cols[static_cast<size_t>(c)].back() = v;
    std::vector<double> slack(static_cast<size_t>(dim) + 1, 0.0);
    slack.back() = 1.0;
    cols.push_back(std::move(slack));
    ASSERT_TRUE(lu.append_row(border)) << "append " << a;

    if (a % 3 == 0) {
      const int d2 = lu.dim();
      const int r = static_cast<int>(rng.uniform_int(0, d2 - 1));
      std::vector<double> incoming(static_cast<size_t>(d2), 0.0);
      incoming[static_cast<size_t>(r)] = rng.uniform(2.0, 4.0);
      incoming[static_cast<size_t>(
          rng.uniform_int(0, d2 - 1))] += rng.uniform(-1.0, 1.0);
      cols[static_cast<size_t>(r)] = incoming;
      std::vector<double> w = incoming;
      lu.ftran(w);
      ASSERT_TRUE(lu.update(w, r)) << "append " << a;
    }
  }

  BasisLu fresh(m + appends);
  ASSERT_TRUE(fresh.factorize(cols));
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<double> v = random_vector(m + appends, rng);
    std::vector<double> x = v, y = v;
    lu.ftran(x);
    fresh.ftran(y);
    EXPECT_LT(max_diff(x, y), 1e-6) << "rep " << rep;
    x = v;
    y = v;
    lu.btran(x);
    fresh.btran(y);
    EXPECT_LT(max_diff(x, y), 1e-6) << "rep " << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseKernelBattery,
                         ::testing::Values(KernelCase{50, 11},
                                           KernelCase{200, 22},
                                           KernelCase{500, 33},
                                           KernelCase{2000, 44}));

// ------------------------------------------------------- LP-level battery

LpModel sparse_master_lp(int vars, int rows, std::uint64_t seed) {
  RngStream rng(seed);
  LpModel m;
  for (int j = 0; j < vars; ++j) {
    m.add_variable("x" + std::to_string(j), 0.0, rng.uniform(1.0, 10.0),
                   rng.uniform(-5.0, 5.0));
  }
  const int k = std::min(vars, 8);
  for (int i = 0; i < rows; ++i) {
    const int anchor = static_cast<int>(rng.uniform_int(0, vars - 1));
    std::vector<Coef> coefs;
    for (int t = 0; t < k; ++t) {
      coefs.push_back({(anchor + t) % vars, rng.uniform(0.1, 3.0)});
    }
    m.add_row("r" + std::to_string(i), RowSense::LessEq,
              rng.uniform(5.0, 50.0), std::move(coefs));
  }
  return m;
}

struct SolveCase {
  int m;
  std::uint64_t seed;
};

class SparseSolveBattery : public ::testing::TestWithParam<SolveCase> {};

TEST_P(SparseSolveBattery, KktHoldsColdAndAfterWarmCutResolve) {
  const auto [m, seed] = GetParam();
  LpModel model = sparse_master_lp(m, m, seed);

  const LpResult cold = solve_lp(model);
  ASSERT_TRUE(oracle::kkt_holds(model, cold));
  // The sparse path must actually report sparse work.
  EXPECT_GT(cold.kernel_solves, 0);
  EXPECT_GT(cold.factor_nnz, 0);

  // Warm re-solve after a sparse cut violated at the optimum.
  RngStream rng(seed ^ 0x5ca1ab1eull);
  std::vector<Coef> coefs;
  double lhs = 0.0;
  for (int j = 0; j < model.num_vars() && static_cast<int>(coefs.size()) < 24;
       ++j) {
    if (cold.x[static_cast<size_t>(j)] <= 1e-9) continue;
    const double a = rng.uniform(0.1, 1.0);
    coefs.push_back({j, a});
    lhs += a * cold.x[static_cast<size_t>(j)];
  }
  ASSERT_FALSE(coefs.empty());
  model.add_row("cut", RowSense::LessEq, 0.8 * lhs, std::move(coefs));

  const LpResult warm = solve_lp(model, {}, &cold.basis);
  EXPECT_TRUE(oracle::kkt_holds(model, warm));
  const LpResult regrown = solve_lp(model);
  ASSERT_EQ(regrown.status, LpStatus::Optimal);
  const double scale = std::max(1.0, std::abs(regrown.objective));
  EXPECT_LT(std::abs(warm.objective - regrown.objective) / scale, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseSolveBattery,
                         ::testing::Values(SolveCase{50, 7},
                                           SolveCase{200, 8},
                                           SolveCase{500, 9}));

// At m = 2000: after a cut, the warm re-solve matches the sparse path's own
// cold re-solve of the grown model, and warm starting saves pivots.
TEST(SparseSolveLarge, WarmResolveMatchesColdAt2000) {
  const int m = 2000;
  LpModel model = sparse_master_lp(m, m, 101);
  const LpResult cold = solve_lp(model, {});
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  EXPECT_LT(model.max_violation(cold.x), 1e-6);

  RngStream rng(0xfeedull);
  std::vector<Coef> coefs;
  double lhs = 0.0;
  for (int j = 0; j < model.num_vars() && static_cast<int>(coefs.size()) < 24;
       ++j) {
    if (cold.x[static_cast<size_t>(j)] <= 1e-9) continue;
    const double a = rng.uniform(0.1, 1.0);
    coefs.push_back({j, a});
    lhs += a * cold.x[static_cast<size_t>(j)];
  }
  ASSERT_FALSE(coefs.empty());
  model.add_row("cut", RowSense::LessEq, 0.8 * lhs, std::move(coefs));

  const LpResult warm = solve_lp(model, {}, &cold.basis);
  const LpResult cold2 = solve_lp(model, {});
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  ASSERT_EQ(cold2.status, LpStatus::Optimal);
  const double scale = std::max(1.0, std::abs(cold2.objective));
  EXPECT_LT(std::abs(warm.objective - cold2.objective) / scale, 1e-6);
  EXPECT_LT(model.max_violation(warm.x), 1e-6);
  EXPECT_LT(warm.iterations, cold2.iterations);  // warm start earns its keep
}

// ------------------------------------------------------ KernelStats paths

TEST(SparseKernelStats, HypersparseShortCircuitFiresOnSlackBasis) {
  const int m = 64;
  RngStream rng(55);
  const SparseMatrix b = sparse_basis(m, 0, rng);  // all-slack identity
  BasisLu lu(m);
  ASSERT_TRUE(lu.factorize(b));
  EXPECT_EQ(lu.stats().factor_nnz, static_cast<long>(m));  // diagonal only

  std::vector<double> v(static_cast<size_t>(m), 0.0);
  v[3] = 1.0;
  const long before = lu.stats().hypersparse_hits;
  lu.ftran(v);
  EXPECT_EQ(v[3], 1.0);  // identity basis: solve is the input
  lu.btran(v);
  EXPECT_EQ(lu.stats().hypersparse_hits, before + 2);
  EXPECT_EQ(lu.stats().solves, 2);
}

TEST(SparseKernelStats, FillBlowupTriggersReordering) {
  // An aggressively tight fill cap forces the re-ordering retry on a basis
  // with genuine fill; the factorization must still be correct afterwards
  // and the retry must be counted, not silently absorbed.
  const int m = 60;
  RngStream rng(77);
  const SparseMatrix b = sparse_basis(m, m, rng);  // every column structural
  BasisKernelOptions opts;
  opts.max_fill_ratio = 1.0;  // any fill at all "explodes"
  BasisLu lu(m, opts);
  ASSERT_TRUE(lu.factorize(b));
  EXPECT_GE(lu.stats().reorderings, 1);
  EXPECT_GT(lu.stats().max_fill_ratio, 1.0);

  RngStream vrng(78);
  const std::vector<double> v = random_vector(m, vrng);
  std::vector<double> x = v;
  lu.ftran(x);
  EXPECT_LT(ftran_residual(b, x, v), 1e-6);
}

}  // namespace
}  // namespace ovnes::solver
