// Tests for the basis factorization kernel (solver/basis_lu.hpp) and the
// KKT certificate battery for the revised simplex.
//
// Kernel-level solves are cross-checked against a dense Gaussian-elimination
// oracle (dense_oracle.hpp). On randomized LPs at m ∈ {50, 200, 500} every
// answer must pass a KKT certificate (kkt_certificate.hpp) within 1e-6, cold
// and after warm re-solves with appended (Benders-style) cuts.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "dense_oracle.hpp"
#include "kkt_certificate.hpp"
#include "solver/basis_lu.hpp"
#include "solver/lp_model.hpp"
#include "solver/simplex.hpp"

namespace ovnes::solver {
namespace {

using ovnes::RngStream;
using oracle::dense_solve;

std::vector<std::vector<double>> random_basis(int m, RngStream& rng) {
  // Random, diagonally boosted so it is comfortably nonsingular.
  std::vector<std::vector<double>> cols(
      static_cast<size_t>(m), std::vector<double>(static_cast<size_t>(m)));
  for (int c = 0; c < m; ++c) {
    for (int r = 0; r < m; ++r) {
      cols[static_cast<size_t>(c)][static_cast<size_t>(r)] =
          rng.uniform(-1.0, 1.0) + (r == c ? 3.0 : 0.0);
    }
  }
  return cols;
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

// ---------------------------------------------------------- kernel units

TEST(BasisKernels, FtranBtranMatchDenseReference) {
  const int m = 24;
  RngStream rng(1);
  const auto cols = random_basis(m, rng);
  BasisLu lu(m);
  ASSERT_TRUE(lu.factorize(cols));
  for (int rep = 0; rep < 5; ++rep) {
    const std::vector<double> v = random_vector(m, rng);
    std::vector<double> a = v;
    lu.ftran(a);
    EXPECT_LT(max_diff(a, dense_solve(cols, v, false)), 1e-9);
    a = v;
    lu.btran(a);
    EXPECT_LT(max_diff(a, dense_solve(cols, v, true)), 1e-9);
  }
}

TEST(BasisKernels, ProductFormUpdatesTrackColumnReplacements) {
  const int m = 16;
  RngStream rng(2);
  auto cols = random_basis(m, rng);
  BasisLu lu(m);
  ASSERT_TRUE(lu.factorize(cols));

  for (int rep = 0; rep < 10; ++rep) {
    // Replace a random basis column with a fresh one; the eta file must
    // track the replaced basis the oracle solves directly.
    const int r = static_cast<int>(rng.uniform_int(0, m - 1));
    std::vector<double> incoming(static_cast<size_t>(m));
    for (double& x : incoming) x = rng.uniform(-1.0, 1.0);
    incoming[static_cast<size_t>(r)] += 3.0;
    cols[static_cast<size_t>(r)] = incoming;

    std::vector<double> w = incoming;
    lu.ftran(w);
    ASSERT_TRUE(lu.update(w, r));

    const std::vector<double> v = random_vector(m, rng);
    std::vector<double> a = v;
    lu.ftran(a);
    EXPECT_LT(max_diff(a, dense_solve(cols, v, false)), 1e-7) << "rep " << rep;
    a = v;
    lu.btran(a);
    EXPECT_LT(max_diff(a, dense_solve(cols, v, true)), 1e-7) << "rep " << rep;

    // The eta chain must also agree with a from-scratch refactorization.
    BasisLu fresh(m);
    ASSERT_TRUE(fresh.factorize(cols));
    std::vector<double> b = v;
    a = v;
    lu.ftran(a);
    fresh.ftran(b);
    EXPECT_LT(max_diff(a, b), 1e-7) << "rep " << rep;
  }
  EXPECT_EQ(lu.updates_since_factorize(), 10);
}

TEST(BasisKernels, EtaLimitForcesRefactorization) {
  const int m = 8;
  RngStream rng(3);
  const auto cols = random_basis(m, rng);
  BasisKernelOptions opts;
  opts.max_etas = 2;
  BasisLu lu(m, opts);
  ASSERT_TRUE(lu.factorize(cols));
  std::vector<double> w(static_cast<size_t>(m), 0.1);
  w[0] = 1.0;
  EXPECT_TRUE(lu.update(w, 0));
  EXPECT_TRUE(lu.update(w, 1));
  EXPECT_FALSE(lu.update(w, 2));  // eta file full -> caller refactorizes
  ASSERT_TRUE(lu.factorize(cols));
  EXPECT_EQ(lu.updates_since_factorize(), 0);
  EXPECT_TRUE(lu.update(w, 2));
}

TEST(BasisKernels, RelativeSingularityThresholdAcceptsTinyScales) {
  // A perfectly regular but tiny-scale basis: the relative per-column test
  // accepts it where an absolute 1e-9 pivot threshold would reject it.
  const int m = 3;
  std::vector<std::vector<double>> cols(
      static_cast<size_t>(m), std::vector<double>(static_cast<size_t>(m), 0.0));
  for (int i = 0; i < m; ++i) {
    cols[static_cast<size_t>(i)][static_cast<size_t>(i)] = 1e-11;
  }
  BasisLu lu(m);
  EXPECT_TRUE(lu.factorize(cols));

  std::vector<double> v{1e-11, 2e-11, -3e-11};
  lu.ftran(v);
  EXPECT_NEAR(v[0], 1.0, 1e-9);
  EXPECT_NEAR(v[1], 2.0, 1e-9);
  EXPECT_NEAR(v[2], -3.0, 1e-9);
}

TEST(BasisKernels, TrulySingularBasisIsStillRejected) {
  const int m = 3;
  RngStream rng(4);
  auto cols = random_basis(m, rng);
  cols[2] = cols[1];  // duplicate column
  BasisLu lu(m);
  EXPECT_FALSE(lu.factorize(cols));
}

TEST(BasisKernels, FactorizeResizesAcrossDimensions) {
  // A kernel kept alive in an LpSession gets recycled at whatever size
  // the model has grown or shrunk to: factorize adopts cols.size().
  RngStream rng(12);
  BasisLu lu(4);
  for (const int m : {4, 9, 3}) {
    const auto cols = random_basis(m, rng);
    ASSERT_TRUE(lu.factorize(cols));
    EXPECT_EQ(lu.dim(), m);
    BasisLu fresh(m);
    ASSERT_TRUE(fresh.factorize(cols));
    const std::vector<double> v = random_vector(m, rng);
    std::vector<double> a = v, b = v;
    lu.ftran(a);
    fresh.ftran(b);
    EXPECT_LT(max_diff(a, b), 1e-9) << "m=" << m;
  }
}

// ------------------------------------------- bordered updates (append_row)

/// Grow `cols` by one bordered row/column: every existing column gains an
/// entry in the new row (the cut's coefficient on that slot, sparse with
/// density `p`), and the new column is the unit slack e_new.
void append_bordered_column(std::vector<std::vector<double>>& cols,
                            std::vector<std::pair<int, double>>& border,
                            double p, RngStream& rng) {
  const int old_m = static_cast<int>(cols.size());
  border.clear();
  for (int c = 0; c < old_m; ++c) {
    double v = 0.0;
    if (rng.flip(p)) {
      v = rng.uniform(-2.0, 2.0);
      border.emplace_back(c, v);
    }
    cols[static_cast<size_t>(c)].push_back(v);
  }
  std::vector<double> slack(static_cast<size_t>(old_m) + 1, 0.0);
  slack.back() = 1.0;
  cols.push_back(std::move(slack));
}

struct AppendCase {
  int m;
  int k;  ///< appended rows
};

class BorderedAppendBattery : public ::testing::TestWithParam<AppendCase> {};

// The append-row-vs-refactorize battery (ISSUE 5): after k bordered
// appends interleaved with regular eta pivots, FTRAN and BTRAN through the
// kept kernel must agree with a from-scratch refactorization of the grown
// basis within 1e-6 at m ∈ {50, 200, 500}, k ∈ {1, 8, 32}.
TEST_P(BorderedAppendBattery, FtranBtranMatchRefactorizationAfterAppends) {
  const auto [m, k] = GetParam();
  RngStream rng(static_cast<std::uint64_t>(97 + m * 7 + k));
  auto cols = random_basis(m, rng);
  BasisKernelOptions opts;
  opts.max_etas = 2 * k + 8;  // keep the whole battery inside one budget
  BasisLu lu(m, opts);
  ASSERT_TRUE(lu.factorize(cols));

  std::vector<std::pair<int, double>> border;
  for (int a = 0; a < k; ++a) {
    append_bordered_column(cols, border, 0.2, rng);
    ASSERT_TRUE(lu.append_row(border)) << "append " << a;
    ASSERT_EQ(lu.dim(), m + a + 1);

    // Interleave a regular column-replacement pivot so borders and etas
    // compose in file order, like a dual pivot following a cut append.
    if (a % 3 == 0) {
      const int dim = lu.dim();
      const int r = static_cast<int>(rng.uniform_int(0, dim - 1));
      std::vector<double> incoming(static_cast<size_t>(dim));
      for (double& x : incoming) x = rng.uniform(-1.0, 1.0);
      incoming[static_cast<size_t>(r)] += 4.0;
      cols[static_cast<size_t>(r)] = incoming;
      std::vector<double> w = incoming;
      lu.ftran(w);
      ASSERT_TRUE(lu.update(w, r)) << "append " << a;
    }
  }

  BasisLu fresh(m + k);
  ASSERT_TRUE(fresh.factorize(cols));
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<double> v = random_vector(m + k, rng);
    std::vector<double> a = v, b = v;
    lu.ftran(a);
    fresh.ftran(b);
    EXPECT_LT(max_diff(a, b), 1e-6) << "rep " << rep;
    a = v;
    b = v;
    lu.btran(a);
    fresh.btran(b);
    EXPECT_LT(max_diff(a, b), 1e-6) << "rep " << rep;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BorderedAppendBattery,
    ::testing::Values(AppendCase{50, 1}, AppendCase{50, 8}, AppendCase{50, 32},
                      AppendCase{200, 1}, AppendCase{200, 8},
                      AppendCase{200, 32}, AppendCase{500, 1},
                      AppendCase{500, 8}, AppendCase{500, 32}));

TEST(BasisKernels, AppendRowSharesTheUpdateBudget) {
  const int m = 6;
  RngStream rng(21);
  const auto cols = random_basis(m, rng);
  BasisKernelOptions opts;
  opts.max_etas = 2;
  BasisLu lu(m, opts);
  ASSERT_TRUE(lu.factorize(cols));
  EXPECT_TRUE(lu.append_row({{0, 1.0}}));
  EXPECT_TRUE(lu.append_row({{1, -1.0}, {3, 0.5}}));
  EXPECT_EQ(lu.updates_since_factorize(), 2);
  // Budget exhausted: both kinds decline, the caller refactorizes.
  EXPECT_FALSE(lu.append_row({{2, 1.0}}));
  std::vector<double> w(static_cast<size_t>(lu.dim()), 0.1);
  w[0] = 1.0;
  EXPECT_FALSE(lu.update(w, 0));
}

// ------------------------------------------------- randomized LP battery

LpModel battery_lp(int vars, int rows, std::uint64_t seed) {
  RngStream rng(seed);
  LpModel m;
  for (int j = 0; j < vars; ++j) {
    m.add_variable("x" + std::to_string(j), 0.0, rng.uniform(1.0, 10.0),
                   rng.uniform(-5.0, 5.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coef> coefs;
    for (int j = 0; j < vars; ++j) {
      if (rng.flip(0.3)) coefs.push_back({j, rng.uniform(0.0, 3.0)});
    }
    m.add_row("r" + std::to_string(i), RowSense::LessEq,
              rng.uniform(5.0, 50.0), std::move(coefs));
  }
  return m;
}

struct BatteryCase {
  int m;
  std::uint64_t seed;
};

class LuCertificateBattery : public ::testing::TestWithParam<BatteryCase> {};

TEST_P(LuCertificateBattery, KktHoldsColdAndAfterWarmCutResolve) {
  const auto [m, seed] = GetParam();
  LpModel model = battery_lp(m, m, seed);

  const LpResult cold = solve_lp(model);
  ASSERT_TRUE(oracle::kkt_holds(model, cold));

  // Benders shape: append a cut violated at the optimum, warm re-solve from
  // the cold basis, certify again and match a cold solve of the grown model.
  RngStream rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<Coef> coefs;
  double lhs = 0.0;
  for (int j = 0; j < model.num_vars(); ++j) {
    const double a = rng.uniform(0.1, 1.0);
    coefs.push_back({j, a});
    lhs += a * cold.x[static_cast<size_t>(j)];
  }
  model.add_row("cut", RowSense::LessEq, 0.8 * lhs, std::move(coefs));

  const LpResult warm = solve_lp(model, {}, &cold.basis);
  EXPECT_TRUE(oracle::kkt_holds(model, warm));
  EXPECT_TRUE(warm.used_warm_start);
  const LpResult regrown = solve_lp(model);
  ASSERT_EQ(regrown.status, LpStatus::Optimal);
  const double scale = std::max(1.0, std::abs(regrown.objective));
  EXPECT_LT(std::abs(warm.objective - regrown.objective) / scale, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LuCertificateBattery,
    ::testing::Values(BatteryCase{50, 101}, BatteryCase{50, 102},
                      BatteryCase{50, 103}, BatteryCase{200, 201},
                      BatteryCase{200, 202}, BatteryCase{500, 301}));

}  // namespace
}  // namespace ovnes::solver
