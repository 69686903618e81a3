// LpSession: stateful incremental re-solves (ISSUE 4).
//  * dual simplex after a violated cut: the incumbent basis stays
//    dual-feasible, feasibility is restored without Phase 1, and the
//    session reaches the cold-solve objective within 1e-9;
//  * session-vs-solve_lp equivalence battery over the m ∈ {50, 200, 500}
//    LU test instances (same generator family as basis_lu_test);
//  * push()/pop() delta frames restore rows, bounds, costs and the
//    incumbent basis handle exactly;
//  * two sessions on distinct models are race-free (TSan job coverage);
//  * a stale warm basis referencing rows beyond the model's current row
//    count reports LpStatus::InvalidBasis instead of silently repairing;
//  * the session's column view is rebuilt exactly when the rows change;
//  * dual ratio ties go to the lowest column index, whatever order the
//    pivot row's gather met the tied columns in.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "solver/lp_session.hpp"
#include "solver/simplex.hpp"
#include "stuck_dual_lp.hpp"

namespace ovnes::solver {
namespace {

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

/// The textbook LP used across solver_test's warm-start suite: optimum at
/// (2, 6) with objective -36.
LpModel textbook_lp() {
  LpModel m;
  const int x = m.add_variable("x", 0, kInf, -3.0);
  const int y = m.add_variable("y", 0, kInf, -5.0);
  m.add_row("r1", RowSense::LessEq, 4.0, {{x, 1.0}});
  m.add_row("r2", RowSense::LessEq, 12.0, {{y, 2.0}});
  m.add_row("r3", RowSense::LessEq, 18.0, {{x, 3.0}, {y, 2.0}});
  return m;
}

TEST(LpSessionDual, ViolatedCutResolvesViaDualSimplex) {
  LpSession sess(textbook_lp());
  const LpResult& base = sess.solve();
  ASSERT_EQ(base.status, LpStatus::Optimal);
  EXPECT_NEAR(base.x[0], 2.0, 1e-8);
  EXPECT_NEAR(base.x[1], 6.0, 1e-8);

  // Cut violated at (2, 6): 2 + 6 > 6. The incumbent basis is primal-
  // infeasible in exactly the new row but still dual-feasible, so the
  // re-solve must take the dual path — no artificials, no Phase 1.
  sess.add_cut("cut", RowSense::LessEq, 6.0, {{0, 1.0}, {1, 1.0}});
  const LpResult& warm = sess.solve();
  ASSERT_EQ(warm.status, LpStatus::Optimal);
  EXPECT_TRUE(warm.used_warm_start);
  EXPECT_TRUE(warm.used_dual_simplex);

  const LpResult cold = solve_lp(sess.model());
  ASSERT_EQ(cold.status, LpStatus::Optimal);
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-9 * std::max(1.0, std::abs(cold.objective)));
  EXPECT_LT(sess.model().max_violation(warm.x), 1e-7);
  EXPECT_LT(warm.iterations, cold.iterations);

  // Post-cut optimum is dual-feasible: every reduced cost sits on the
  // feasible side of its variable's active bound (min problem).
  for (int j = 0; j < sess.model().num_vars(); ++j) {
    const Variable& v = sess.model().variable(j);
    const double d = warm.reduced_costs[static_cast<size_t>(j)];
    if (std::abs(warm.x[static_cast<size_t>(j)] - v.lower) < 1e-7) {
      EXPECT_GE(d, -1e-6) << "var " << j;
    } else if (std::abs(warm.x[static_cast<size_t>(j)] - v.upper) < 1e-7) {
      EXPECT_LE(d, 1e-6) << "var " << j;
    }
  }

  EXPECT_EQ(sess.stats().solves, 2);
  EXPECT_EQ(sess.stats().dual_solves, 1);
}

TEST(LpSessionDual, BranchedBoundResolvesViaDualSimplex) {
  // B&B shape: fixing a basic variable past its LP value keeps the basis
  // dual-feasible; the session re-solve takes the dual path as well.
  LpModel m;
  m.add_variable("x", 0.0, 1.0, -6.0);
  m.add_variable("y", 0.0, 1.0, -5.0);
  m.add_variable("z", 0.0, 1.0, -4.0);
  m.add_row("cap", RowSense::LessEq, 4.0, {{0, 3.0}, {1, 2.0}, {2, 2.0}});

  LpSession sess(m);
  ASSERT_EQ(sess.solve().status, LpStatus::Optimal);
  for (const auto& [lo, hi] : {std::pair{0.0, 0.0}, std::pair{1.0, 1.0}}) {
    sess.push();
    sess.set_bounds(0, lo, hi);
    const LpResult& warm = sess.solve();
    LpModel child = m;
    child.set_bounds(0, lo, hi);
    const LpResult cold = solve_lp(child);
    ASSERT_EQ(warm.status, cold.status);
    if (cold.status == LpStatus::Optimal) {
      EXPECT_TRUE(warm.used_warm_start);
      EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
      EXPECT_LT(child.max_violation(warm.x), 1e-7);
    }
    sess.pop();
  }
  EXPECT_GE(sess.stats().dual_solves, 1);
}

// ---------------------------------------------------------------------
// Session-vs-solve_lp equivalence battery on the LU test instances.

struct BatteryCase {
  int m;
  std::uint64_t seed;
};

class SessionVsSolveLpBattery : public ::testing::TestWithParam<BatteryCase> {};

TEST_P(SessionVsSolveLpBattery, CutLoopMatchesStatelessSolves) {
  const auto [m, seed] = GetParam();
  // The m = 500 instance spends 5-7 s in the stateless reference solves in
  // a Release build and over 140 s under TSan. Under OVNES_FAST (CI, the
  // TSan job) the smaller sizes carry the equivalence check and the big one
  // runs in full local suites only.
  if (m >= 500 && std::getenv("OVNES_FAST") != nullptr) {
    GTEST_SKIP() << "OVNES_FAST: skipping m=" << m << " battery case";
  }
  LpModel model = battery_lp(m, m, seed);
  LpSession sess(model);  // copy: `model` accumulates the same cuts

  const LpResult& first = sess.solve();
  const LpResult first_cold = solve_lp(model);
  ASSERT_EQ(first.status, LpStatus::Optimal);
  ASSERT_EQ(first_cold.status, LpStatus::Optimal);
  double scale = std::max(1.0, std::abs(first_cold.objective));
  EXPECT_LT(std::abs(first.objective - first_cold.objective) / scale, 1e-9);

  RngStream rng(seed ^ 0x9e3779b97f4a7c15ull);
  long dual_resolves = 0;
  for (int k = 0; k < 3; ++k) {
    std::vector<Coef> coefs;
    double lhs = 0.0;
    for (int j = 0; j < model.num_vars(); ++j) {
      const double a = rng.uniform(0.1, 1.0);
      coefs.push_back({j, a});
      lhs += a * sess.last().x[static_cast<size_t>(j)];
    }
    const std::string name = "cut" + std::to_string(k);
    model.add_row(name, RowSense::LessEq, 0.8 * lhs, coefs);
    sess.add_cut(name, RowSense::LessEq, 0.8 * lhs, std::move(coefs));

    const LpResult& warm = sess.solve();
    const LpResult cold = solve_lp(model);
    ASSERT_EQ(warm.status, LpStatus::Optimal) << "cut " << k;
    ASSERT_EQ(cold.status, LpStatus::Optimal) << "cut " << k;
    scale = std::max(1.0, std::abs(cold.objective));
    EXPECT_LT(std::abs(warm.objective - cold.objective) / scale, 1e-9)
        << "cut " << k;
    EXPECT_LT(model.max_violation(warm.x), 1e-6);
    if (warm.used_dual_simplex) ++dual_resolves;
  }
  // Each cut is violated at the previous optimum (0.8 × a positive lhs),
  // so every re-solve should have taken the dual path.
  EXPECT_GE(dual_resolves, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SessionVsSolveLpBattery,
    ::testing::Values(BatteryCase{50, 101}, BatteryCase{50, 102},
                      BatteryCase{50, 103}, BatteryCase{200, 201},
                      BatteryCase{200, 202}, BatteryCase{500, 301}));

// ---------------------------------------------------------------------
// Delta frames.

TEST(LpSessionFrames, PushPopRestoresRowsBoundsCostsAndBasis) {
  LpSession sess(textbook_lp());
  const LpResult& base = sess.solve();
  ASSERT_EQ(base.status, LpStatus::Optimal);
  const double base_obj = base.objective;
  const int base_rows = sess.model().num_rows();
  const SharedBasis base_basis = sess.basis();
  ASSERT_NE(base_basis, nullptr);

  sess.push();
  sess.set_bounds(0, 0.0, 1.0);
  sess.set_cost(1, -1.0);
  sess.add_cut("frame_cut", RowSense::LessEq, 5.0, {{0, 1.0}, {1, 1.0}});
  const LpResult& inner = sess.solve();
  ASSERT_EQ(inner.status, LpStatus::Optimal);
  EXPECT_NE(inner.objective, base_obj);
  EXPECT_EQ(sess.model().num_rows(), base_rows + 1);

  sess.pop();
  EXPECT_EQ(sess.model().num_rows(), base_rows);
  EXPECT_EQ(sess.model().variable(0).upper, kInf);
  EXPECT_EQ(sess.model().variable(1).cost, -5.0);
  // The pre-push basis handle is restored — the exact same snapshot, not a
  // copy — and re-verifies the original optimum in zero pivots.
  EXPECT_EQ(sess.basis(), base_basis);
  const LpResult& restored = sess.solve();
  ASSERT_EQ(restored.status, LpStatus::Optimal);
  EXPECT_TRUE(restored.used_warm_start);
  EXPECT_EQ(restored.iterations, 0);
  EXPECT_NEAR(restored.objective, base_obj, 1e-12);
}

TEST(LpSessionFrames, NestedFramesUnwindInOrder) {
  LpSession sess(textbook_lp());
  ASSERT_EQ(sess.solve().status, LpStatus::Optimal);
  const double base_obj = sess.last().objective;

  sess.push();
  sess.set_bounds(0, 1.0, 1.0);
  sess.push();
  sess.set_bounds(1, 2.0, 2.0);
  ASSERT_EQ(sess.depth(), 2);
  ASSERT_EQ(sess.solve().status, LpStatus::Optimal);
  EXPECT_NEAR(sess.last().objective, -13.0, 1e-8);  // x=1, y=2
  sess.pop();
  ASSERT_EQ(sess.solve().status, LpStatus::Optimal);
  EXPECT_NEAR(sess.last().objective, -33.0, 1e-8);  // x=1, y=6
  sess.pop();
  ASSERT_EQ(sess.solve().status, LpStatus::Optimal);
  EXPECT_NEAR(sess.last().objective, base_obj, 1e-9);
  EXPECT_EQ(sess.depth(), 0);
  EXPECT_THROW(sess.pop(), std::logic_error);
}

// ---------------------------------------------------------------------
// Thread compatibility: sessions are per-lane objects; two sessions on
// distinct models must not race (exercised under TSan in CI).

TEST(LpSessionThreads, TwoSessionsOnDistinctModelsAreRaceFree) {
  const auto worker = [](std::uint64_t seed, double* out) {
    LpSession sess(battery_lp(60, 60, seed));
    RngStream rng(seed * 31 + 7);
    const LpResult* r = &sess.solve();
    for (int k = 0; k < 4 && r->status == LpStatus::Optimal; ++k) {
      std::vector<Coef> coefs;
      double lhs = 0.0;
      for (int j = 0; j < sess.model().num_vars(); ++j) {
        const double a = rng.uniform(0.1, 1.0);
        coefs.push_back({j, a});
        lhs += a * r->x[static_cast<size_t>(j)];
      }
      sess.add_cut("c" + std::to_string(k), RowSense::LessEq, 0.8 * lhs,
                   std::move(coefs));
      r = &sess.solve();
    }
    *out = r->status == LpStatus::Optimal ? r->objective : kInf;
  };

  double obj_a = 0.0, obj_b = 0.0, obj_a_serial = 0.0, obj_b_serial = 0.0;
  std::thread ta(worker, 11, &obj_a);
  std::thread tb(worker, 12, &obj_b);
  ta.join();
  tb.join();
  worker(11, &obj_a_serial);
  worker(12, &obj_b_serial);
  EXPECT_DOUBLE_EQ(obj_a, obj_a_serial);
  EXPECT_DOUBLE_EQ(obj_b, obj_b_serial);
}

// ---------------------------------------------------------------------
// Stale-basis regression (ISSUE 4 small fix): a warm basis referencing
// rows beyond the model's current row count must report InvalidBasis, not
// silently repair or assert.

TEST(LpSessionInvalidBasis, StaleRowReferencesReportInvalidBasis) {
  LpModel grown = textbook_lp();
  grown.add_row("extra", RowSense::LessEq, 30.0, {{0, 1.0}, {1, 2.0}});
  const LpResult snapshot = solve_lp(grown);
  ASSERT_EQ(snapshot.status, LpStatus::Optimal);
  ASSERT_FALSE(snapshot.basis.empty());

  // The same model with the last row dropped: the snapshot now references
  // one row beyond the current count.
  LpModel shrunk = grown;
  shrunk.truncate_rows(grown.num_rows() - 1);
  const LpResult stale = solve_lp(shrunk, {}, &snapshot.basis);
  EXPECT_EQ(stale.status, LpStatus::InvalidBasis);
  EXPECT_FALSE(stale.used_warm_start);
  EXPECT_TRUE(stale.x.empty());

  // Sessions recover: the stale seed reports once, then the incumbent is
  // dropped and the next solve goes cold.
  LpSession sess(shrunk);
  sess.set_warm_basis(std::make_shared<const Basis>(snapshot.basis));
  EXPECT_EQ(sess.solve().status, LpStatus::InvalidBasis);
  EXPECT_EQ(sess.solve().status, LpStatus::Optimal);
}

// ---------------------------------------------------------------------
// Kept factorization (ISSUE 5 tentpole): the LU stays alive across
// solves — appended cuts become bordered updates, bound-only re-solves
// adopt the incumbent kernel verbatim — so refactorizations collapse
// compared with the rebuild-per-solve (PR 4) behaviour.

TEST(LpSessionKeptFactors, RefactorizationCountDropsUnderRepeatedAddCut) {
  const int n = 80;
  const auto run_cut_loop = [&](bool keep) {
    SimplexOptions opts;
    opts.keep_factors = keep;
    LpSession sess(battery_lp(n, n, 7), opts);
    RngStream rng(13);
    const LpResult* r = &sess.solve();
    EXPECT_EQ(r->status, LpStatus::Optimal);
    const long after_first = sess.stats().refactorizations;
    for (int k = 0; k < 6 && r->status == LpStatus::Optimal; ++k) {
      std::vector<Coef> coefs;
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) {
        const double a = rng.uniform(0.1, 1.0);
        coefs.push_back({j, a});
        lhs += a * r->x[static_cast<size_t>(j)];
      }
      sess.add_cut("cut" + std::to_string(k), RowSense::LessEq, 0.8 * lhs,
                   std::move(coefs));
      r = &sess.solve();
      EXPECT_EQ(r->status, LpStatus::Optimal) << "cut " << k;
    }
    return std::pair{sess.stats().refactorizations - after_first,
                     sess.stats().kept_solves};
  };

  const auto [kept_refacs, kept_solves] = run_cut_loop(true);
  const auto [rebuild_refacs, rebuild_kept] = run_cut_loop(false);
  // Rebuild-per-solve factorizes at least once per re-solve; the kept
  // path absorbs the cuts as borders and refactorizes strictly less.
  EXPECT_GE(rebuild_refacs, 6);
  EXPECT_LT(kept_refacs, rebuild_refacs);
  EXPECT_LT(kept_refacs, 6);
  // Every re-solve adopted the live factors; the rebuild control never does.
  EXPECT_GE(kept_solves, 6);
  EXPECT_EQ(rebuild_kept, 0);
}

TEST(LpSessionKeptFactors, CarriedDseWeightsStayPivotCompetitive) {
  // Dual steepest-edge weights ride through BasisFactors across
  // kept-factor re-solves. A keep_factors = false session never adopts
  // kept factors, so its weights reset to the reference framework (all
  // ones) every solve: that is the baseline. Both variants are
  // deterministic, so the pivot totals below are exact reproducible
  // numbers. The assertion pins the carry: carried weights must stay
  // within a 25% pivot band of the reset baseline across the instance set
  // — a misaligned carry (weights applied to the wrong slots) degrades
  // DSE pricing far past that — and every re-solve on the kept path must
  // ride the kept factors.
  const auto run_cut_loop = [](int n, std::uint64_t seed, bool keep) {
    SimplexOptions opts;
    opts.keep_factors = keep;
    LpSession sess(battery_lp(n, n, seed), opts);
    RngStream rng(13);
    const LpResult* r = &sess.solve();
    EXPECT_EQ(r->status, LpStatus::Optimal);
    long pivots = 0;
    for (int k = 0; k < 6 && r->status == LpStatus::Optimal; ++k) {
      std::vector<Coef> coefs;
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) {
        const double a = rng.uniform(0.1, 1.0);
        coefs.push_back({j, a});
        lhs += a * r->x[static_cast<size_t>(j)];
      }
      sess.add_cut("cut" + std::to_string(k), RowSense::LessEq, 0.8 * lhs,
                   std::move(coefs));
      r = &sess.solve();
      EXPECT_EQ(r->status, LpStatus::Optimal) << "cut " << k;
      pivots += r->iterations;
    }
    if (keep) {
      EXPECT_GE(sess.stats().kept_solves, 6) << "n=" << n;
    }
    return pivots;
  };

  long carried = 0;
  long reset = 0;
  for (const int n : {60, 80, 120}) {
    carried += run_cut_loop(n, 7, true);
    reset += run_cut_loop(n, 7, false);
  }
  EXPECT_GT(reset, 0);
  EXPECT_LE(carried * 4, reset * 5);  // carried <= 1.25 * reset
}

TEST(LpSessionKeptFactors, BoundOnlyFramesReuseKernelVerbatim) {
  // A push()ed frame that only touches bounds, solved and popped: the
  // restored snapshot marks the same variable set Basic whenever the
  // re-solve didn't move the basis, and the next solve must then adopt
  // the incumbent kernel with zero refactorizations.
  LpSession sess(textbook_lp());
  ASSERT_EQ(sess.solve().status, LpStatus::Optimal);
  const double base_obj = sess.last().objective;

  sess.push();
  sess.set_bounds(0, 0.0, 2.0);  // optimum already at x = 2: basis unmoved
  ASSERT_EQ(sess.solve().status, LpStatus::Optimal);
  sess.pop();

  const long refacs_before = sess.stats().refactorizations;
  const LpResult& restored = sess.solve();
  ASSERT_EQ(restored.status, LpStatus::Optimal);
  EXPECT_NEAR(restored.objective, base_obj, 1e-9);
  EXPECT_TRUE(restored.used_kept_factors);
  EXPECT_EQ(restored.iterations, 0);
  EXPECT_EQ(sess.stats().refactorizations, refacs_before);
}

TEST(LpSessionKeptFactors, SessionMatchesStatelessSolvesWithCutsAndFrames) {
  // Equivalence guard for the kept-kernel path: a session driven through
  // cuts, frames, and bound flips stays within 1e-9 of stateless solves
  // of the equivalent model.
  LpModel model = battery_lp(60, 60, 31);
  LpSession sess(model);
  ASSERT_EQ(sess.solve().status, LpStatus::Optimal);

  RngStream rng(77);
  for (int k = 0; k < 4; ++k) {
    std::vector<Coef> coefs;
    double lhs = 0.0;
    for (int j = 0; j < model.num_vars(); ++j) {
      const double a = rng.uniform(0.1, 1.0);
      coefs.push_back({j, a});
      lhs += a * sess.last().x[static_cast<size_t>(j)];
    }
    const std::string name = "cut" + std::to_string(k);
    model.add_row(name, RowSense::LessEq, 0.85 * lhs, coefs);
    sess.add_cut(name, RowSense::LessEq, 0.85 * lhs, std::move(coefs));

    sess.push();
    sess.set_bounds(k, 0.0, 0.5);
    LpModel tightened = model;
    tightened.set_bounds(k, 0.0, 0.5);
    const LpResult& warm = sess.solve();
    const LpResult cold = solve_lp(tightened);
    ASSERT_EQ(warm.status, cold.status) << "cut " << k;
    if (cold.status == LpStatus::Optimal) {
      EXPECT_NEAR(warm.objective, cold.objective,
                  1e-9 * std::max(1.0, std::abs(cold.objective)))
          << "cut " << k;
      EXPECT_LT(tightened.max_violation(warm.x), 1e-6);
    }
    sess.pop();

    const LpResult& back = sess.solve();
    const LpResult back_cold = solve_lp(model);
    ASSERT_EQ(back.status, LpStatus::Optimal);
    ASSERT_EQ(back_cold.status, LpStatus::Optimal);
    EXPECT_NEAR(back.objective, back_cold.objective,
                1e-9 * std::max(1.0, std::abs(back_cold.objective)))
        << "cut " << k;
  }
  // The cut re-solves all rode on the live factors.
  EXPECT_GE(sess.stats().kept_solves, 4);
}

// ---------------------------------------------------------------------
// pop() after a failed solve (ISSUE 5 small fix): the frame restore must
// bring back the pre-push basis/kernel state, never leave the session on
// the failed factors.

TEST(LpSessionFrames, PopAfterFailedSolveRestoresFrameSnapshot) {
  LpSession sess(textbook_lp());
  const LpResult& base = sess.solve();
  ASSERT_EQ(base.status, LpStatus::Optimal);
  const double base_obj = base.objective;
  const SharedBasis base_basis = sess.basis();
  ASSERT_NE(base_basis, nullptr);

  // Contradictory cut: x + y >= 100 with x <= 4, 2y <= 12 is infeasible.
  sess.push();
  sess.add_cut("impossible", RowSense::GreaterEq, 100.0, {{0, 1.0}, {1, 1.0}});
  const LpResult& failed = sess.solve();
  EXPECT_EQ(failed.status, LpStatus::Infeasible);
  EXPECT_EQ(sess.basis(), nullptr);  // failed solve drops the incumbent

  // pop() restores the frame snapshot: the exact pre-push basis handle,
  // and a re-solve that warm-verifies the original optimum — it must not
  // run on the failed factors (which the failed solve invalidated).
  sess.pop();
  EXPECT_EQ(sess.basis(), base_basis);
  const LpResult& restored = sess.solve();
  ASSERT_EQ(restored.status, LpStatus::Optimal);
  EXPECT_TRUE(restored.used_warm_start);
  EXPECT_EQ(restored.iterations, 0);
  EXPECT_NEAR(restored.objective, base_obj, 1e-12);

  // And the session keeps working for further frames after the recovery.
  sess.push();
  sess.add_cut("tight", RowSense::LessEq, 7.0, {{0, 1.0}, {1, 1.0}});
  ASSERT_EQ(sess.solve().status, LpStatus::Optimal);
  sess.pop();
  const LpResult& again = sess.solve();
  ASSERT_EQ(again.status, LpStatus::Optimal);
  EXPECT_NEAR(again.objective, base_obj, 1e-9);
}

// ---------------------------------------------------------------------
// A dual-simplex pivot disagreement that survives a refactorization ends
// the dual loop at once. Without that rule the captured node LP
// (stuck_dual_lp.hpp) retries its row until max_iterations: ~50,000
// iterations and as many refactorizations before the artificial-repair
// path takes over and reaches the same answer.

/// Parse the stuck_dual_lp.hpp record format into a model and basis.
std::pair<LpModel, Basis> parse_captured_lp(const char* text) {
  std::istringstream in(text);
  const auto num = [&in] {
    std::string tok;
    in >> tok;
    return std::strtod(tok.c_str(), nullptr);
  };
  int n = 0;
  int m = 0;
  in >> n >> m;
  LpModel model;
  for (int j = 0; j < n; ++j) {
    const double lo = num();
    const double hi = num();
    model.add_variable("x" + std::to_string(j), lo, hi, num());
  }
  for (int i = 0; i < m; ++i) {
    char sense = 0;
    in >> sense;
    const double rhs = num();
    int k = 0;
    in >> k;
    std::vector<Coef> coefs(static_cast<size_t>(k));
    for (Coef& c : coefs) {
      in >> c.var;
      c.value = num();
    }
    model.add_row("r" + std::to_string(i),
                  sense == 'L'   ? RowSense::LessEq
                  : sense == 'G' ? RowSense::GreaterEq
                                 : RowSense::Equal,
                  rhs, std::move(coefs));
  }
  std::string status;
  in >> status;
  Basis basis;
  basis.num_vars = n;
  basis.num_rows = m;
  for (const char c : status) {
    basis.status.push_back(c == 'B'   ? Basis::Status::Basic
                           : c == 'L' ? Basis::Status::AtLower
                                      : Basis::Status::AtUpper);
  }
  EXPECT_TRUE(in) << "truncated capture";
  EXPECT_EQ(static_cast<int>(basis.status.size()), n + m);
  return {std::move(model), std::move(basis)};
}

TEST(LpSessionDual, PivotDisagreementAbandonsAfterOneRetry) {
  const auto [model, basis] = parse_captured_lp(testdata::kStuckDualLp);
  ASSERT_EQ(model.num_vars(), 404);
  ASSERT_EQ(model.num_rows(), 63);

  const LpResult cold = solve_lp(model);
  const LpResult warm = solve_lp(model, {}, &basis);
  EXPECT_EQ(cold.status, LpStatus::Infeasible);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_TRUE(warm.used_warm_start);
  EXPECT_LT(warm.iterations, 1000);
  EXPECT_LT(warm.refactorizations, 20);
}

// ---------------------------------------------------------------------
// The session-owned column view. A B&B lane re-solves one set of rows
// under many bound frames and must build the CSC view once; a frame that
// changes the rows must rebuild it, even when the row count comes back to
// a value an older view was built at.

/// Lane setting: no kept factors, so a session solve is a pure function
/// of (model, warm basis) and can be compared bit for bit with solve_lp.
SimplexOptions lane_options() {
  SimplexOptions opts;
  opts.keep_factors = false;
  return opts;
}

/// A cut over every `stride`-th column, violated at `x` (rhs = 0.8·lhs).
Rowdef violated_cut(const std::vector<double>& x, int first, int stride,
                    std::uint64_t seed) {
  RngStream rng(seed);
  Rowdef row;
  row.name = "cut" + std::to_string(seed);
  double lhs = 0.0;
  for (int j = first; j < static_cast<int>(x.size()); j += stride) {
    const double a = rng.uniform(0.1, 1.0);
    row.coefs.push_back({j, a});
    lhs += a * x[static_cast<size_t>(j)];
  }
  row.rhs = 0.8 * lhs;
  return row;
}

/// The session's current solve against a one-shot solve_lp of a copy of
/// its model from the same warm basis: the same answer, bit for bit.
void expect_matches_one_shot(LpSession& sess, const char* where) {
  SCOPED_TRACE(where);
  const SharedBasis warm = sess.basis();
  ASSERT_NE(warm, nullptr);
  const LpResult& got = sess.solve();
  ASSERT_EQ(got.status, LpStatus::Optimal);

  const LpModel copy = sess.model();
  const LpResult want = solve_lp(copy, lane_options(), warm.get());
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
            std::bit_cast<std::uint64_t>(want.objective));
  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.basis.status, want.basis.status);
  EXPECT_EQ(got.iterations, want.iterations);
}

TEST(LpSessionColumns, RowChangeAtSameRowCountRebuildsColumnView) {
  LpSession sess(battery_lp(40, 30, 17), lane_options());
  ASSERT_EQ(sess.solve().status, LpStatus::Optimal);
  const std::vector<double> x0 = sess.last().x;

  sess.push();
  sess.add_cut(violated_cut(x0, 0, 2, 1));
  ASSERT_EQ(sess.solve().status, LpStatus::Optimal);
  sess.pop();
  // The pop dropped the cut: solving the base rows again must not reuse
  // the view built with it. Halving a positive variable's upper bound
  // makes the solve pivot.
  int moved = 0;
  while (x0[static_cast<size_t>(moved)] < 1e-6) ++moved;
  sess.push();
  sess.set_bounds(moved, 0.0, 0.5 * x0[static_cast<size_t>(moved)]);
  expect_matches_one_shot(sess, "after pop");
  sess.pop();

  // A different row at the same row count as inside the first frame.
  sess.push();
  sess.add_cut(violated_cut(x0, 1, 2, 2));
  expect_matches_one_shot(sess, "different cut");
  EXPECT_TRUE(sess.last().used_dual_simplex);
  sess.pop();

  EXPECT_EQ(sess.stats().column_builds, 4);  // base, cut 1, base, cut 2
}

TEST(LpSessionColumns, BoundOnlyFramesBuildColumnViewOnce) {
  LpSession sess(battery_lp(40, 30, 23), lane_options());
  ASSERT_EQ(sess.solve().status, LpStatus::Optimal);
  for (int k = 0; k < 6; ++k) {
    sess.push();
    sess.set_bounds(k, 0.0, 0.5);
    sess.set_cost(k + 1, 1.0);
    EXPECT_EQ(sess.solve().status, LpStatus::Optimal) << "frame " << k;
    sess.pop();
  }
  ASSERT_EQ(sess.solve().status, LpStatus::Optimal);
  EXPECT_EQ(sess.stats().solves, 8);
  EXPECT_EQ(sess.stats().column_builds, 1);
}

// ---------------------------------------------------------------------
// Dual ratio-test order. Candidates with exactly tied ratios and pivot
// magnitudes go to the first one priced, which must be the lowest column
// index, whatever order the pivot row's gather met them in.

/// An LP whose first dual pivot from `warm` has two candidates tied
/// exactly on ratio and pivot magnitude: `winner` (the lower index) must
/// enter, `loser` stay at its lower bound.
struct TieCase {
  const char* name;
  LpModel model;
  Basis warm;
  int winner;
  int loser;
};

/// Warm basis with every variable at its lower bound and the slacks of
/// `basic_rows` basic, plus `basic_vars`.
Basis lower_bound_basis(const LpModel& m, const std::vector<int>& basic_vars,
                        const std::vector<int>& basic_rows) {
  Basis warm;
  warm.num_vars = m.num_vars();
  warm.num_rows = m.num_rows();
  warm.status.assign(static_cast<size_t>(m.num_vars() + m.num_rows()),
                     Basis::Status::AtLower);
  for (const int j : basic_vars) {
    warm.status[static_cast<size_t>(j)] = Basis::Status::Basic;
  }
  for (const int i : basic_rows) {
    warm.status[static_cast<size_t>(m.num_vars() + i)] = Basis::Status::Basic;
  }
  return warm;
}

/// Tied candidates gathered out of index order: x1 sits in row 0 and x0 in
/// row 1, so the pivot row (which spans both rows) meets x1 first.
///   min x0 + z   s.t.  z - x1 = 0,  z + x0 >= 1,  0 <= x0, x1, z <= 2,
/// from the basis {z, slack of row 1}: x0 and x1 both price at ratio 1
/// with pivot 1, and x0 must enter.
TieCase gather_order_case() {
  LpModel m;
  const int x0 = m.add_variable("x0", 0.0, 2.0, 1.0);
  const int x1 = m.add_variable("x1", 0.0, 2.0, 0.0);
  const int z = m.add_variable("z", 0.0, 2.0, 1.0);
  m.add_row("track", RowSense::Equal, 0.0, {{x1, -1.0}, {z, 1.0}});
  m.add_row("need", RowSense::GreaterEq, 1.0, {{x0, 1.0}, {z, 1.0}});
  Basis warm = lower_bound_basis(m, {z}, {1});
  return {"gather order", std::move(m), std::move(warm), x0, x1};
}

/// Twin columns a < b (identical cost and coefficients). From the slack
/// basis at x = 0 the row a + b >= 1 is violated and both twins price at
/// ratio 1 with pivot 1; a must enter.
TieCase twin_columns_case() {
  LpModel m;
  const int a = m.add_variable("a", 0.0, 2.0, 1.0);
  const int b = m.add_variable("b", 0.0, 2.0, 1.0);
  m.add_row("cap", RowSense::LessEq, 10.0, {{a, 1.0}, {b, 1.0}});
  m.add_row("need", RowSense::GreaterEq, 1.0, {{a, 1.0}, {b, 1.0}});
  Basis warm = lower_bound_basis(m, {}, {0, 1});
  return {"twin columns", std::move(m), std::move(warm), a, b};
}

TEST(LpSessionDual, TieBreakFollowsIndexNotGatherOrder) {
  for (TieCase c : {gather_order_case(), twin_columns_case()}) {
    SCOPED_TRACE(c.name);
    LpSession sess(std::move(c.model));
    sess.set_warm_basis(std::make_shared<const Basis>(std::move(c.warm)));
    const LpResult& r = sess.solve();
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_TRUE(r.used_dual_simplex);
    EXPECT_EQ(r.iterations, 1);
    EXPECT_EQ(r.objective, 1.0);
    EXPECT_EQ(r.basis.status[static_cast<size_t>(c.winner)],
              Basis::Status::Basic);
    EXPECT_EQ(r.basis.status[static_cast<size_t>(c.loser)],
              Basis::Status::AtLower);
  }
}

}  // namespace
}  // namespace ovnes::solver
