// Primal-heuristics battery (ISSUE 10): fix-and-dive correctness and
// budgets, RENS/LNS restriction semantics, end-to-end incumbent injection
// through solve_milp, and the conservative folding of heuristic candidates
// whose acceptance gate abandoned without a certificate.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "solver/heuristics.hpp"
#include "solver/lp_session.hpp"
#include "solver/milp.hpp"

namespace ovnes::solver {
namespace {

/// min -(x0 + x1) s.t. 2 x0 + 2 x1 <= 3, binaries. The LP vertex holds one
/// variable at 1 and the other at 0.5; rounding the fractional one UP is
/// infeasible, so a plain fix-to-nearest dive dead-ends — only the
/// backtracking dive reaches the optimum of -1.
LpModel rounding_trap() {
  LpModel m;
  m.add_binary("x0", -1.0);
  m.add_binary("x1", -1.0);
  m.add_row("cap", RowSense::LessEq, 3.0, {{0, 2.0}, {1, 2.0}});
  return m;
}

// ------------------------------------------------------------ fix_and_dive

TEST(FixAndDive, BacktracksWhereNearestRoundingDeadEnds) {
  LpSession sess(rounding_trap(), {});
  const SubDiveResult sub = fix_and_dive(sess, {0, 1}, {});
  ASSERT_TRUE(sub.found);
  EXPECT_FALSE(sub.hit_limit);
  EXPECT_NEAR(sub.objective, -1.0, 1e-9);
  // Integer entries come back exactly rounded and feasible.
  ASSERT_EQ(sub.x.size(), 2u);
  EXPECT_DOUBLE_EQ(sub.x[0] + sub.x[1], 1.0);
  EXPECT_DOUBLE_EQ(sess.model().max_violation(sub.x), 0.0);
  // Root solve + first fix + infeasible probe + backtracked alternative.
  EXPECT_EQ(sub.lp_solves, 4);
  // The search restored the session to its entry frame depth.
  EXPECT_EQ(sess.depth(), 0);
}

TEST(FixAndDive, LpBudgetIsAHardCap) {
  LpSession sess(rounding_trap(), {});
  SubDiveOptions opts;
  opts.max_lp_solves = 3;  // one short of what the trap needs
  const SubDiveResult sub = fix_and_dive(sess, {0, 1}, opts);
  EXPECT_FALSE(sub.found);
  EXPECT_TRUE(sub.hit_limit);
  EXPECT_LE(sub.lp_solves, 3);
  EXPECT_EQ(sess.depth(), 0);
}

TEST(FixAndDive, ShouldStopPollsBeforeEverySolve) {
  LpSession sess(rounding_trap(), {});
  SubDiveOptions opts;
  int polls = 0;
  opts.should_stop = [&] { return ++polls >= 3; };
  const SubDiveResult sub = fix_and_dive(sess, {0, 1}, opts);
  EXPECT_FALSE(sub.found);
  EXPECT_TRUE(sub.hit_limit);
  EXPECT_EQ(sub.lp_solves, 2);  // stopped before the third solve
  EXPECT_EQ(sess.depth(), 0);
}

TEST(FixAndDive, CutoffPrunesDominatedSubBoxes) {
  // With the incumbent already at -1, every point in the trap is dominated
  // (nothing is strictly below the cutoff), so the dive finds nothing.
  LpSession sess(rounding_trap(), {});
  SubDiveOptions opts;
  opts.cutoff = -1.0;
  const SubDiveResult sub = fix_and_dive(sess, {0, 1}, opts);
  EXPECT_FALSE(sub.found);
  EXPECT_FALSE(sub.abandoned);
  EXPECT_EQ(sess.depth(), 0);
}

// ---------------------------------------------------------- acceptance gate

TEST(FixAndDive, GateRejectAppendsCutsAndResolves) {
  // min -(x0 + x1), no rows: the root LP is already integral at (1, 1).
  LpModel m;
  m.add_binary("x0", -1.0);
  m.add_binary("x1", -1.0);
  LpSession sess(std::move(m), {});
  int calls = 0;
  const AcceptGate gate = [&](const LpResult& lp) {
    ++calls;
    if (calls == 1) {
      EXPECT_NEAR(lp.objective, -2.0, 1e-9);
      sess.add_cut("pair", RowSense::LessEq, 1.0, {{0, 1.0}, {1, 1.0}});
      return GateVerdict::Reject;
    }
    return GateVerdict::Accept;
  };
  const SubDiveResult sub = fix_and_dive(sess, {0, 1}, {}, &gate);
  ASSERT_TRUE(sub.found);
  EXPECT_EQ(sub.gate_rounds, 2);
  EXPECT_NEAR(sub.objective, -1.0, 1e-9);
  EXPECT_DOUBLE_EQ(sess.model().max_violation(sub.x), 0.0);
}

TEST(FixAndDive, GateAbandonDiscardsTheCandidate) {
  LpModel m;
  m.add_binary("x0", -1.0);
  LpSession sess(std::move(m), {});
  const AcceptGate gate = [](const LpResult&) { return GateVerdict::Abandon; };
  const SubDiveResult sub = fix_and_dive(sess, {0}, {}, &gate);
  EXPECT_FALSE(sub.found);
  EXPECT_TRUE(sub.abandoned);
  EXPECT_TRUE(sub.hit_limit);
  EXPECT_EQ(sub.gate_rounds, 1);
  EXPECT_EQ(sess.depth(), 0);
}

TEST(FixAndDive, GateRoundBudgetTruncatesWithoutAccepting) {
  LpModel m;
  m.add_binary("x0", -1.0);
  m.add_binary("x1", -1.0);
  LpSession sess(std::move(m), {});
  SubDiveOptions opts;
  opts.max_gate_rounds = 1;
  const AcceptGate gate = [&](const LpResult&) {
    sess.add_cut("pair", RowSense::LessEq, 1.0, {{0, 1.0}, {1, 1.0}});
    return GateVerdict::Reject;
  };
  const SubDiveResult sub = fix_and_dive(sess, {0, 1}, opts, &gate);
  EXPECT_FALSE(sub.found);
  EXPECT_TRUE(sub.hit_limit);
  EXPECT_EQ(sub.gate_rounds, 1);  // second candidate hit the budget instead
}

// ------------------------------------------------------------- restrictions

TEST(RensRestrict, FixesNearIntegralAndShrinksTheRest) {
  LpModel m;
  m.add_binary("x0", -1.0);
  m.add_binary("x1", -1.0);
  const int y = m.add_variable("y", 0.0, 10.0, -1.0);  // treated as integer
  LpSession sess(std::move(m), {});
  sess.push();
  const long fixed =
      rens_restrict(sess, {0, 1, y}, {1.0 - 1e-9, 0.4, 3.6});
  EXPECT_EQ(fixed, 1);
  EXPECT_DOUBLE_EQ(sess.model().variable(0).lower, 1.0);
  EXPECT_DOUBLE_EQ(sess.model().variable(0).upper, 1.0);
  EXPECT_DOUBLE_EQ(sess.model().variable(1).lower, 0.0);
  EXPECT_DOUBLE_EQ(sess.model().variable(1).upper, 1.0);
  EXPECT_DOUBLE_EQ(sess.model().variable(y).lower, 3.0);
  EXPECT_DOUBLE_EQ(sess.model().variable(y).upper, 4.0);
  sess.pop();
  // The frame pop restores the root box untouched.
  EXPECT_DOUBLE_EQ(sess.model().variable(0).lower, 0.0);
  EXPECT_DOUBLE_EQ(sess.model().variable(y).upper, 10.0);
}

TEST(LnsRestrict, FixesEverythingOutsideTheDestroySet) {
  LpModel m;
  m.add_binary("x0", -1.0);
  m.add_binary("x1", -1.0);
  m.add_binary("x2", -1.0);
  LpSession sess(std::move(m), {});
  sess.push();
  const long fixed = lns_restrict(sess, {0, 1, 2}, {1.0, 0.0, 1.0},
                                  [](int j) { return j == 1; });
  EXPECT_EQ(fixed, 2);
  EXPECT_DOUBLE_EQ(sess.model().variable(0).lower, 1.0);
  EXPECT_DOUBLE_EQ(sess.model().variable(0).upper, 1.0);
  EXPECT_DOUBLE_EQ(sess.model().variable(1).upper, 1.0);  // destroyed: free
  EXPECT_DOUBLE_EQ(sess.model().variable(1).lower, 0.0);
  EXPECT_DOUBLE_EQ(sess.model().variable(2).lower, 1.0);
  sess.pop();
}

// --------------------------------------------------- solve_milp integration

/// Integer-coefficient correlated knapsack (see branching_test.cpp): the
/// root LP leaves about `rows` variables fractional, which is the regime
/// RENS is built for (most of the box pins instantly).
LpModel correlated_knapsack(RngStream& rng, int n, int rows) {
  LpModel m;
  std::vector<double> w(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    w[static_cast<std::size_t>(j)] =
        static_cast<double>(rng.uniform_int(2, 12));
    const double profit = w[static_cast<std::size_t>(j)] +
                          static_cast<double>(rng.uniform_int(0, 4));
    m.add_binary("x" + std::to_string(j), -profit);
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<Coef> coefs;
    double sum = 0.0;
    for (int j = 0; j < n; ++j) {
      const double a = w[static_cast<std::size_t>(j)] +
                       static_cast<double>(rng.uniform_int(0, 3));
      coefs.push_back({j, a});
      sum += a;
    }
    m.add_row("cap" + std::to_string(r), RowSense::LessEq,
              std::floor(0.5 * sum), std::move(coefs));
  }
  return m;
}

TEST(RensHeuristic, SeedsTheIncumbentAndStaysFeasible) {
  RngStream rng(7);
  const LpModel m = correlated_knapsack(rng, 24, 4);
  MilpOptions plain;
  plain.dive_heuristic = false;
  plain.threads = 1;
  const MilpResult ref = solve_milp(m, plain);
  ASSERT_EQ(ref.status, MilpStatus::Optimal);

  MilpOptions opts = plain;
  opts.rens_heuristic = true;
  const MilpResult res = solve_milp(m, opts);
  ASSERT_EQ(res.status, MilpStatus::Optimal);
  EXPECT_GE(res.heuristic_incumbents, 1);
  EXPECT_NEAR(res.objective, ref.objective, 1e-9);
  // The returned point prices its own objective and satisfies the model.
  EXPECT_NEAR(m.objective_value(res.x), res.objective, 1e-9);
  EXPECT_LE(m.max_violation(res.x), 1e-6);
}

// Incumbent injection is the anytime win: on a pinned battery where the
// plain rounding dive dead-ends, RENS must produce the first incumbent
// with less search work (nodes at install time) than tree search alone.
TEST(RensHeuristic, ShrinksFirstIncumbentNodesOnPinnedBattery) {
  long tree_total = 0;
  long rens_total = 0;
  for (int seed = 0; seed < 5; ++seed) {
    RngStream rng(static_cast<std::uint64_t>(seed) * 271 + 9);
    const LpModel m = correlated_knapsack(rng, 40, 6);
    MilpOptions base;
    base.dive_heuristic = false;
    base.threads = 1;
    base.max_nodes = 4000;
    const MilpResult tree = solve_milp(m, base);
    MilpOptions with_rens = base;
    with_rens.rens_heuristic = true;
    const MilpResult rens = solve_milp(m, with_rens);
    ASSERT_GE(tree.first_incumbent_nodes, 0);
    ASSERT_GE(rens.first_incumbent_nodes, 0);
    EXPECT_GE(rens.heuristic_incumbents, 1);
    tree_total += tree.first_incumbent_nodes;
    rens_total += rens.first_incumbent_nodes;
  }
  EXPECT_LT(rens_total, tree_total);
}

class HeuristicFeasibilityTest : public ::testing::TestWithParam<int> {};

TEST_P(HeuristicFeasibilityTest, IncumbentsNeverViolateTheOriginalModel) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()) * 131 + 29);
  const LpModel m = correlated_knapsack(
      rng, 16 + static_cast<int>(rng.uniform_int(0, 10)), 4);
  MilpOptions opts;
  opts.branching = BranchRule::Pseudocost;
  opts.rens_heuristic = true;
  opts.lns_interval = 30;
  opts.threads = 2;
  const MilpResult res = solve_milp(m, opts);
  ASSERT_EQ(res.status, MilpStatus::Optimal);
  // Heuristic solutions found under restricted bounds are re-checked here
  // against the ORIGINAL model: restriction must never leak.
  EXPECT_LE(m.max_violation(res.x), 1e-6);
  EXPECT_NEAR(m.objective_value(res.x), res.objective, 1e-9);
  EXPECT_LE(res.best_bound, res.objective + 1e-9);
  // Heuristics change the search, never the answer.
  MilpOptions plain;
  plain.threads = 1;
  const MilpResult ref = solve_milp(m, plain);
  ASSERT_EQ(ref.status, MilpStatus::Optimal);
  EXPECT_NEAR(res.objective, ref.objective, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SeedBattery, HeuristicFeasibilityTest,
                         ::testing::Range(0, 8));

TEST(RensHeuristic, NodeBudgetKeepsTheSolveAnytime) {
  RngStream rng(11);
  const LpModel m = correlated_knapsack(rng, 40, 6);
  MilpOptions opts;
  opts.rens_heuristic = true;
  opts.heur_node_budget = 5;  // far below what the dive needs
  opts.max_nodes = 50;
  opts.threads = 1;
  const MilpResult res = solve_milp(m, opts);
  // Heuristic LP solves count toward the node limit like tree nodes; a
  // tiny budget cannot blow past max_nodes.
  EXPECT_LE(res.nodes, opts.max_nodes + 1);
  if (!res.x.empty()) {
    EXPECT_LE(res.best_bound, res.objective + 1e-9);
    EXPECT_LE(m.max_violation(res.x), 1e-6);
  }
}

// Mirror of single_tree_test's AbandonedSeparationDropsNodeConservatively
// for the heuristic channel: a RENS candidate whose acceptance gate
// abandons (separation failed without a certificate) must be discarded AND
// fold into hit_limit — the solve may never claim Optimal past it.
TEST(RensHeuristic, AbandonedGateFoldsConservatively) {
  LpModel m;
  m.add_binary("x", -1.0);
  MilpOptions opts;
  opts.dive_heuristic = false;
  opts.rens_heuristic = true;
  opts.threads = 1;
  opts.lazy_cuts = [](const LazyCutContext&) {
    LazyCutResult r;
    r.abandon = true;
    return r;
  };
  const MilpResult res = solve_milp(m, opts);
  EXPECT_EQ(res.status, MilpStatus::NoSolution);
  EXPECT_TRUE(res.x.empty());
  EXPECT_EQ(res.heuristic_incumbents, 0);
  // The abandoned candidate's bound still folds into best_bound: the true
  // optimum -1 stays below the certified bound.
  EXPECT_LE(res.best_bound, -1.0 + 1e-9);
}

}  // namespace
}  // namespace ovnes::solver
