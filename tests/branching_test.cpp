// Branching-rule battery (ISSUE 10): pseudocost update correctness,
// reliability-triggered strong branching, probe-budget accounting, and the
// serial-vs-parallel determinism contract of the pseudocost rule.
//
// The Pseudocosts container and selection helpers are unit-tested directly
// (they are unsynchronized value types); the solver-level tests drive
// solve_milp on integer-coefficient knapsacks so objectives are exact and
// the 1e-9 agreement assertions carry no LP-noise slack.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "solver/branching.hpp"
#include "solver/milp.hpp"

namespace ovnes::solver {
namespace {

// ------------------------------------------------------------- Pseudocosts

TEST(Pseudocosts, StoresMeanDegradationPerUnitFractionality) {
  Pseudocosts pc(2);
  // Fixing var 0 down over 0.3 units of fractionality cost 0.6 objective:
  // 2.0 per unit. A second observation of 4.0 per unit averages to 3.0.
  pc.observe_down(0, 0.6, 0.3);
  EXPECT_DOUBLE_EQ(pc.down_cost(0), 2.0);
  pc.observe_down(0, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(pc.down_cost(0), 3.0);
  EXPECT_EQ(pc.down_count(0), 2);
  EXPECT_EQ(pc.up_count(0), 0);

  pc.observe_up(1, 1.5, 0.75);
  EXPECT_DOUBLE_EQ(pc.up_cost(1), 2.0);
  EXPECT_EQ(pc.observations(), 3);
}

TEST(Pseudocosts, NegativeDeltaClampsToZero) {
  // A child bound can only tighten; a (numerically) negative delta is an
  // observation of zero degradation, not negative cost.
  Pseudocosts pc(1);
  pc.observe_up(0, -5.0, 0.5);
  EXPECT_DOUBLE_EQ(pc.up_cost(0), 0.0);
  EXPECT_EQ(pc.up_count(0), 1);
}

TEST(Pseudocosts, NonPositiveFractionalityIsIgnored) {
  Pseudocosts pc(1);
  pc.observe_down(0, 1.0, 0.0);
  pc.observe_up(0, 1.0, -0.25);
  EXPECT_EQ(pc.down_count(0), 0);
  EXPECT_EQ(pc.up_count(0), 0);
  EXPECT_EQ(pc.observations(), 0);
}

TEST(Pseudocosts, FallbackChainPerVarThenGlobalThenUnit) {
  Pseudocosts pc(3);
  // Cold start: unit pseudocosts everywhere (score == fractionality).
  EXPECT_DOUBLE_EQ(pc.down_cost(1), 1.0);
  EXPECT_DOUBLE_EQ(pc.up_cost(1), 1.0);
  // One down observation on var 0 seeds the *global* down average, which
  // uninitialized vars inherit; the up direction stays at the unit prior.
  pc.observe_down(0, 3.0, 1.0);
  EXPECT_DOUBLE_EQ(pc.down_cost(0), 3.0);
  EXPECT_DOUBLE_EQ(pc.down_cost(1), 3.0);
  EXPECT_DOUBLE_EQ(pc.up_cost(1), 1.0);
  // A per-variable observation overrides the global fallback.
  pc.observe_down(1, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(pc.down_cost(1), 1.0);
  EXPECT_DOUBLE_EQ(pc.down_cost(2), 2.0);  // global mean of {3, 1}
}

TEST(Pseudocosts, ReliableRequiresBothDirections) {
  Pseudocosts pc(1);
  EXPECT_TRUE(pc.reliable(0, 0));
  EXPECT_FALSE(pc.reliable(0, 1));
  pc.observe_down(0, 1.0, 0.5);
  pc.observe_down(0, 1.0, 0.5);
  EXPECT_FALSE(pc.reliable(0, 1));  // up direction still empty
  pc.observe_up(0, 1.0, 0.5);
  EXPECT_TRUE(pc.reliable(0, 1));
  EXPECT_FALSE(pc.reliable(0, 2));  // up has one observation, not two
}

TEST(Pseudocosts, ProductScoreFormula) {
  Pseudocosts pc(1);
  pc.observe_down(0, 2.0, 1.0);  // psi- = 2
  pc.observe_up(0, 4.0, 1.0);    // psi+ = 4
  // score = max(2 * 0.25, eps) * max(4 * 0.75, eps) = 0.5 * 3.
  EXPECT_NEAR(pc.score(0, 0.25), 1.5, 1e-12);
}

TEST(Pseudocosts, ScoreFloorKeepsOneSidedCandidatesOrdered) {
  Pseudocosts pc(2);
  pc.observe_down(0, 0.0, 0.5);
  pc.observe_up(0, 5.0, 0.5);
  pc.observe_down(1, 0.0, 0.5);
  pc.observe_up(1, 2.0, 0.5);
  // Both down-sides are zero; the eps floor keeps the pair ordered by
  // their (strong) up-sides instead of collapsing both scores to 0.
  EXPECT_GT(pc.score(0, 0.5), pc.score(1, 0.5));
}

// ----------------------------------------------- candidates and selection

TEST(FractionalCandidates, FiltersToBestPriorityClassInVarOrder) {
  LpModel m;
  m.add_binary("a", -1.0, /*branch_priority=*/10);
  m.add_binary("b", -1.0, /*branch_priority=*/0);
  m.add_binary("c", -1.0, /*branch_priority=*/0);
  m.add_binary("d", -1.0, /*branch_priority=*/10);
  const std::vector<int> ints = m.integer_vars();
  // b is integral, so the priority-0 class still wins via c alone.
  auto cands = fractional_candidates(m, ints, {0.5, 1.0, 0.25, 0.5});
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].var, 2);
  EXPECT_DOUBLE_EQ(cands[0].frac, 0.25);
  EXPECT_DOUBLE_EQ(cands[0].dist(), 0.25);
  // Fully integral point: no candidates.
  EXPECT_TRUE(fractional_candidates(m, ints, {0.0, 1.0, 1.0, 0.0}).empty());
  // Priority-0 class fully integral: the priority-10 vars surface, in
  // ascending variable order.
  cands = fractional_candidates(m, ints, {0.5, 1.0, 0.0, 0.75});
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].var, 0);
  EXPECT_EQ(cands[1].var, 3);
}

TEST(SelectByScore, DeterministicTieBreaks) {
  const std::vector<BranchCandidate> cands = {
      {0, 0.3, 0.3}, {1, 0.5, 0.5}, {2, 0.5, 0.5}, {3, 0.7, 0.7}};
  // Highest score wins outright.
  EXPECT_EQ(select_by_score(cands, {1.0, 2.0, 1.5, 1.0}), 1);
  // Score tie: larger fractional distance wins (var 1, dist 0.5 > 0.3).
  EXPECT_EQ(select_by_score(cands, {2.0, 2.0, 1.0, 1.0}), 1);
  // Score and distance tie: lower variable index wins (1 over 2).
  EXPECT_EQ(select_by_score(cands, {0.0, 2.0, 2.0, 0.0}), 1);
  // Distance tie-break also fires with var order reversed in the input.
  const std::vector<BranchCandidate> rev = {{2, 0.5, 0.5}, {1, 0.5, 0.5}};
  EXPECT_EQ(select_by_score(rev, {3.0, 3.0}), 1);
  EXPECT_EQ(select_by_score({}, {}), -1);
}

// ------------------------------------------------------ solver integration

/// Integer-coefficient correlated knapsack: profits track weights, so LP
/// relaxations are fractional and the tree actually branches. Integer data
/// keeps optimal objectives exact across branching rules.
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

TEST(PseudocostBranching, UnreliableCandidatesAreStrongBranched) {
  RngStream rng(41);
  const LpModel m = correlated_knapsack(rng, 14, 3);
  MilpOptions opts;
  opts.branching = BranchRule::Pseudocost;
  opts.reliability = 4;
  opts.threads = 1;
  const MilpResult res = solve_milp(m, opts);
  ASSERT_EQ(res.status, MilpStatus::Optimal);
  // Cold pseudocosts below the reliability threshold must trigger probe
  // pairs; the counter moves in pairs by construction.
  EXPECT_GE(res.strong_probes, 2);
  EXPECT_EQ(res.strong_probes % 2, 0);
}

TEST(PseudocostBranching, ProbeBudgetNeverOversubscribed) {
  RngStream rng(42);
  const LpModel m = correlated_knapsack(rng, 14, 3);
  MilpOptions opts;
  opts.branching = BranchRule::Pseudocost;
  opts.reliability = 100;  // nothing ever becomes reliable
  opts.max_strong_probes = 6;
  opts.threads = 1;
  const MilpResult res = solve_milp(m, opts);
  ASSERT_EQ(res.status, MilpStatus::Optimal);
  EXPECT_GE(res.strong_probes, 2);
  EXPECT_LE(res.strong_probes, 6);

  // A zero budget disables strong branching entirely; selection falls back
  // to the average-pseudocost estimate and the solve stays correct.
  MilpOptions no_probe = opts;
  no_probe.max_strong_probes = 0;
  const MilpResult res0 = solve_milp(m, no_probe);
  ASSERT_EQ(res0.status, MilpStatus::Optimal);
  EXPECT_EQ(res0.strong_probes, 0);
  EXPECT_NEAR(res0.objective, res.objective, 1e-9);
}

TEST(PseudocostBranching, ReliableSelectionsCountAsPseudocostBranchings) {
  // reliability = 0 marks every candidate reliable up front: no probes may
  // run, and every multi-candidate selection is a pure pseudocost branch.
  long branchings = 0;
  for (int seed = 0; seed < 6; ++seed) {
    RngStream rng(static_cast<std::uint64_t>(seed) * 613 + 11);
    const LpModel m = correlated_knapsack(rng, 16, 4);
    MilpOptions opts;
    opts.branching = BranchRule::Pseudocost;
    opts.reliability = 0;
    opts.threads = 1;
    const MilpResult res = solve_milp(m, opts);
    ASSERT_EQ(res.status, MilpStatus::Optimal);
    EXPECT_EQ(res.strong_probes, 0);
    branchings += res.pseudocost_branchings;
  }
  EXPECT_GE(branchings, 1);
}

TEST(MostFractionalBranching, ReportsNoBranchingCounters) {
  RngStream rng(43);
  const LpModel m = correlated_knapsack(rng, 14, 3);
  MilpOptions opts;  // default rule
  opts.threads = 1;
  const MilpResult res = solve_milp(m, opts);
  ASSERT_EQ(res.status, MilpStatus::Optimal);
  EXPECT_EQ(res.strong_probes, 0);
  EXPECT_EQ(res.pseudocost_branchings, 0);
}

// Serial-vs-parallel determinism: the pseudocost rule's tie-breaking is
// deterministic, so a 1-lane solve is a pure function of the instance and
// a 4-lane solve must land on the same objective (gap_tol = 0 removes the
// gap-width acceptance band that could otherwise admit distinct values).
class PseudocostDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(PseudocostDeterminismTest, SerialAndFourLaneObjectivesIdentical) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const LpModel m = correlated_knapsack(
      rng, 12 + static_cast<int>(rng.uniform_int(0, 6)), 3);
  MilpOptions serial;
  serial.branching = BranchRule::Pseudocost;
  serial.gap_tol = 0.0;
  serial.threads = 1;
  const MilpResult a = solve_milp(m, serial);
  const MilpResult a2 = solve_milp(m, serial);
  ASSERT_EQ(a.status, MilpStatus::Optimal);
  // Serial replay is bit-identical: same objective, same vector, same tree.
  EXPECT_EQ(a.objective, a2.objective);
  EXPECT_EQ(a.x, a2.x);
  EXPECT_EQ(a.nodes, a2.nodes);
  EXPECT_EQ(a.strong_probes, a2.strong_probes);

  MilpOptions par = serial;
  par.threads = 4;
  const MilpResult b = solve_milp(m, par);
  ASSERT_EQ(b.status, MilpStatus::Optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
  EXPECT_LE(b.best_bound, b.objective + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SeedBattery, PseudocostDeterminismTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace ovnes::solver
