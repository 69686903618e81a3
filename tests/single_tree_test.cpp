// Single-tree Branch-and-Benders-cut coverage, both layers:
//  * solver: the MilpOptions::lazy_cuts hook — transparent acceptance,
//    fractional root rounds, cut-driven incumbent refinement, conservative
//    accounting when a candidate is repeatedly rejected or separation
//    abandons a node,
//    pool-only rows rejecting later candidates without a callback call;
//  * acrr: solve_benders(single_tree=true) agrees with the classic
//    multi-tree loop on the admission objective (serial and parallel) and
//    reports the cut counters.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "acrr/benders.hpp"
#include "acrr/instance.hpp"
#include "common/rng.hpp"
#include "solver/milp.hpp"
#include "topo/generators.hpp"

namespace ovnes {
namespace {

using acrr::AcrrConfig;
using acrr::AcrrInstance;
using acrr::AdmissionResult;
using acrr::BendersOptions;
using acrr::TenantModel;
using slice::SliceType;

// ------------------------------------------------------------ solver layer

solver::Rowdef cut_row(std::string name, std::vector<solver::Coef> coefs,
                       double rhs) {
  solver::Rowdef r;
  r.name = std::move(name);
  r.sense = solver::RowSense::LessEq;
  r.rhs = rhs;
  r.coefs = std::move(coefs);
  return r;
}

/// min -x0 - x1, both binary — optimum (1,1) at -2 without cuts.
solver::LpModel two_binary_model() {
  solver::LpModel m;
  m.add_binary("x0", -1.0);
  m.add_binary("x1", -1.0);
  return m;
}

TEST(LazyCuts, HookIsTransparentWhenCallbackAcceptsEverything) {
  const solver::LpModel m = two_binary_model();
  const solver::MilpResult plain = solver::solve_milp(m);
  solver::MilpOptions opts;
  long calls = 0;
  opts.lazy_cuts = [&calls](const solver::LazyCutContext& ctx) {
    EXPECT_TRUE(ctx.integral);
    ++calls;
    return solver::LazyCutResult{};
  };
  const solver::MilpResult lazy = solver::solve_milp(m, opts);
  EXPECT_EQ(lazy.status, plain.status);
  EXPECT_DOUBLE_EQ(lazy.objective, plain.objective);
  EXPECT_GE(calls, 1);
  EXPECT_GE(lazy.separation_rounds, 1);
  EXPECT_EQ(lazy.cuts_separated, 0);
}

TEST(LazyCuts, FractionalRootRoundsComeWithTheHook) {
  // max 3·x0 + 4·x1 + 5·x2 s.t. 2·x0 + 3·x1 + 4·x2 <= 6 (binaries): the
  // root LP stops at x2 = 0.25, the integer optimum is x0 = x2 = 1 (-8).
  // Setting lazy_cuts alone must offer that fractional root point to the
  // callback, and accepting it must not change the answer.
  solver::LpModel m;
  m.add_binary("x0", -3.0);
  m.add_binary("x1", -4.0);
  m.add_binary("x2", -5.0);
  m.add_row("cap", solver::RowSense::LessEq, 6.0,
            {{0, 2.0}, {1, 3.0}, {2, 4.0}});
  solver::MilpOptions plain_opts;
  plain_opts.threads = 1;
  const solver::MilpResult plain = solver::solve_milp(m, plain_opts);
  ASSERT_EQ(plain.status, solver::MilpStatus::Optimal);

  solver::MilpOptions opts = plain_opts;
  long fractional_calls = 0;
  opts.lazy_cuts = [&fractional_calls](const solver::LazyCutContext& ctx) {
    if (!ctx.integral) ++fractional_calls;
    return solver::LazyCutResult{};
  };
  const solver::MilpResult lazy = solver::solve_milp(m, opts);
  EXPECT_GE(fractional_calls, 1);
  EXPECT_EQ(lazy.status, plain.status);
  EXPECT_DOUBLE_EQ(lazy.objective, plain.objective);
  EXPECT_DOUBLE_EQ(lazy.objective, -8.0);
}

TEST(LazyCuts, ViolatedCutRefinesIncumbentToCutOptimum) {
  // Separation enforces x0 + x1 <= 1.5 lazily: every (1,1) candidate is
  // rejected, and the accepted optimum under the cut is -1.
  solver::MilpOptions opts;
  opts.lazy_cuts = [](const solver::LazyCutContext& ctx) {
    solver::LazyCutResult out;
    if (ctx.x[0] + ctx.x[1] > 1.5) {
      out.cuts.push_back(cut_row("cap", {{0, 1.0}, {1, 1.0}}, 1.5));
    }
    return out;
  };
  const solver::MilpResult res = solver::solve_milp(two_binary_model(), opts);
  EXPECT_EQ(res.status, solver::MilpStatus::Optimal);
  EXPECT_DOUBLE_EQ(res.objective, -1.0);
  EXPECT_NEAR(res.x[0] + res.x[1], 1.0, 1e-6);
  // The same row separates once; later rejections of (1,1) candidates (the
  // other lane orderings, the dive) come from the pool or never re-fire.
  EXPECT_EQ(res.cuts_separated, 1);
  EXPECT_GE(res.separation_rounds, 1);
  EXPECT_LE(res.best_bound, res.objective + 1e-9);
}

TEST(LazyCuts, RepeatedRejectionTerminatesWithoutFalseIncumbent) {
  // Pathological separation that rejects EVERY integral candidate of
  // min -x0 (x0 binary): x0 = 1 draws "x0 <= 0.9", x0 = 0 draws
  // "x0 >= 0.1". The solver must terminate (no infinite separation loop),
  // accept nothing, and never claim an incumbent.
  solver::MilpOptions opts;
  solver::LpModel m;
  m.add_binary("x0", -1.0);
  opts.lazy_cuts = [](const solver::LazyCutContext& ctx) {
    solver::LazyCutResult out;
    if (ctx.x[0] > 0.5) {
      out.cuts.push_back(cut_row("ub", {{0, 1.0}}, 0.9));
    } else {
      out.cuts.push_back(cut_row("lb", {{0, -1.0}}, -0.1));
    }
    return out;
  };
  const solver::MilpResult res = solver::solve_milp(m, opts);
  EXPECT_TRUE(res.status == solver::MilpStatus::Infeasible ||
              res.status == solver::MilpStatus::NoSolution);
  EXPECT_TRUE(res.x.empty());
  EXPECT_GE(res.separation_rounds, 2);
  EXPECT_LE(res.nodes, solver::MilpOptions{}.max_nodes);
}

TEST(LazyCuts, AbandonedSeparationDropsNodeConservatively) {
  // A slave with no certificate must not let the candidate in, and the
  // result must stay conservative: no incumbent, no Optimal claim, and a
  // best_bound that still covers the true optimum (-1).
  solver::MilpOptions opts;
  solver::LpModel m;
  m.add_binary("x0", -1.0);
  opts.lazy_cuts = [](const solver::LazyCutContext&) {
    solver::LazyCutResult out;
    out.abandon = true;
    return out;
  };
  const solver::MilpResult res = solver::solve_milp(m, opts);
  EXPECT_EQ(res.status, solver::MilpStatus::NoSolution);
  EXPECT_TRUE(res.x.empty());
  EXPECT_LE(res.best_bound, -1.0 + 1e-9);
}

TEST(LazyCuts, PoolCutsRejectLaterCandidatesWithoutTheCallback) {
  // min -2·x0 - x1 over binaries. The first candidate (1,1) draws the
  // rejection row x0 + x1 <= 1 plus the pool-only row x0 <= 0. The dive
  // re-solves to (1,0), which violates the pooled row: the pool rejects it
  // with no callback call, and the dive settles on (0,1).
  solver::MilpOptions opts;
  opts.threads = 1;
  long calls = 0;
  bool callback_saw_10 = false;
  opts.lazy_cuts = [&](const solver::LazyCutContext& ctx) {
    ++calls;
    solver::LazyCutResult out;
    if (ctx.x[0] > 0.5 && ctx.x[1] > 0.5) {
      out.cuts.push_back(cut_row("pair", {{0, 1.0}, {1, 1.0}}, 1.0));
      out.pool_cuts.push_back(cut_row("x0_off", {{0, 1.0}}, 0.0));
    } else if (ctx.x[0] > 0.5) {
      callback_saw_10 = true;
      out.cuts.push_back(cut_row("x0_off", {{0, 1.0}}, 0.0));
    }
    return out;
  };
  solver::LpModel m;
  m.add_binary("x0", -2.0);
  m.add_binary("x1", -1.0);
  const solver::MilpResult res = solver::solve_milp(m, opts);
  EXPECT_EQ(res.status, solver::MilpStatus::Optimal);
  EXPECT_DOUBLE_EQ(res.objective, -1.0);
  EXPECT_NEAR(res.x[0], 0.0, 1e-9);
  EXPECT_NEAR(res.x[1], 1.0, 1e-9);
  EXPECT_FALSE(callback_saw_10);
  EXPECT_GT(res.cuts_from_pool, 0);
  EXPECT_EQ(calls, 2);  // at (1,1) and at the accepted (0,1)
  EXPECT_EQ(res.cuts_separated, 2);  // the rejection row and the pool row
}

// -------------------------------------------------------------- acrr layer

TenantModel make_tenant(std::uint32_t id, SliceType type, double lambda_hat,
                        double sigma_hat, std::size_t duration = 20,
                        double m = 1.0) {
  TenantModel tm;
  tm.request.tenant = TenantId(id);
  tm.request.name = "t" + std::to_string(id);
  tm.request.tmpl = slice::standard_template(type);
  tm.request.duration_epochs = duration;
  tm.request.penalty_factor = m;
  tm.lambda_hat = lambda_hat;
  tm.sigma_hat = sigma_hat;
  return tm;
}

struct Fixture {
  topo::Topology topo;
  std::unique_ptr<topo::PathCatalog> catalog;

  explicit Fixture(std::size_t num_bs = 2, Cores edge = 40.0,
                   Cores core = 200.0, Mbps link_cap = 1000.0) {
    topo = topo::make_mini(num_bs, edge, core, 20000.0, link_cap);
    catalog = std::make_unique<topo::PathCatalog>(topo, 2);
  }

  AcrrInstance instance(std::vector<TenantModel> tenants,
                        AcrrConfig cfg = {}) const {
    return AcrrInstance(topo, *catalog, std::move(tenants), cfg);
  }
};

std::vector<TenantModel> mixed_tenants(int n, RngStream& rng) {
  std::vector<TenantModel> ts;
  for (int i = 0; i < n; ++i) {
    const auto type = static_cast<SliceType>(rng.uniform_int(0, 2));
    const auto tmpl = slice::standard_template(type);
    ts.push_back(make_tenant(static_cast<std::uint32_t>(i), type,
                             rng.uniform(0.1, 1.0) * tmpl.sla_rate,
                             rng.uniform(0.05, 0.9),
                             static_cast<std::size_t>(rng.uniform_int(5, 40)),
                             rng.uniform(0.5, 8.0)));
  }
  return ts;
}

class SingleTreeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SingleTreeRandomTest, MatchesMultiTreeObjective) {
  RngStream rng(static_cast<uint64_t>(GetParam()) * 7177 + 5);
  Fixture f(/*num_bs=*/2,
            /*edge=*/rng.uniform(20.0, 60.0),
            /*core=*/rng.uniform(60.0, 300.0),
            /*link_cap=*/rng.uniform(150.0, 800.0));
  const AcrrInstance inst =
      f.instance(mixed_tenants(static_cast<int>(rng.uniform_int(2, 6)), rng));
  const AdmissionResult multi = acrr::solve_benders(inst);
  BendersOptions st;
  st.single_tree = true;
  const AdmissionResult single = acrr::solve_benders(inst, st);
  ASSERT_TRUE(multi.optimal);
  EXPECT_TRUE(single.optimal);
  EXPECT_NEAR(single.objective, multi.objective,
              1e-4 * (1.0 + std::abs(multi.objective)));
  EXPECT_GE(single.separation_rounds, 1);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SingleTreeRandomTest,
                         ::testing::Range(0, 10));

TEST(SingleTree, ParallelLanesMatchSerialObjective) {
  RngStream rng(4242);
  Fixture f;
  const AcrrInstance inst = f.instance(mixed_tenants(6, rng));
  BendersOptions serial;
  serial.single_tree = true;
  serial.master.threads = 1;
  BendersOptions par;
  par.single_tree = true;
  par.master.threads = 4;
  const AdmissionResult a = acrr::solve_benders(inst, serial);
  const AdmissionResult b = acrr::solve_benders(inst, par);
  ASSERT_TRUE(a.optimal);
  ASSERT_TRUE(b.optimal);
  // Trajectory determinism is explicitly relaxed under threads > 1; the
  // admission objective is not.
  EXPECT_NEAR(a.objective, b.objective, 1e-5 * (1.0 + std::abs(a.objective)));
}

/// A convergence-grid instance: the Romanian topology at `scale`, with
/// `tenants` random tenants drawn from `seed` in their drawn order.
struct GridCase {
  double scale;
  std::size_t tenants;
  std::uint64_t seed;
};

void PrintTo(const GridCase& c, std::ostream* os) {
  *os << "(" << c.scale << ", " << c.tenants << ", " << c.seed << ")";
}

class SingleTreeGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(SingleTreeGridTest, IncumbentIsTheMultiTreeOptimum) {
  // Regression: fractional root points once priced into the incumbent, so
  // these instances returned admissions worth less than their reported
  // objective, some below the solve's own bound.
  const GridCase c = GetParam();
  const topo::Topology topo = topo::make_romanian({c.scale, c.seed});
  const topo::PathCatalog catalog(topo, 2);
  RngStream rng(c.seed);
  std::vector<TenantModel> ts;
  for (std::size_t i = 0; i < c.tenants; ++i) {
    const auto type = static_cast<SliceType>(rng.uniform_int(0, 2));
    const double lambda_hat =
        rng.uniform(0.2, 0.6) * slice::standard_template(type).sla_rate;
    const double sigma_hat = rng.uniform(0.05, 0.3);
    ts.push_back(make_tenant(static_cast<std::uint32_t>(i), type, lambda_hat,
                             sigma_hat));
  }
  const AcrrInstance inst(topo, catalog, std::move(ts));
  // No wall-clock limit: the verdict must not depend on machine speed
  // (sanitizer builds run these solves 10-20x slower).
  BendersOptions mt_opts;
  mt_opts.time_limit_sec = 1e9;
  mt_opts.master.time_limit_sec = 1e9;
  BendersOptions st_opts = mt_opts;
  st_opts.single_tree = true;
  const AdmissionResult mt = acrr::solve_benders(inst, mt_opts);
  const AdmissionResult st = acrr::solve_benders(inst, st_opts);
  ASSERT_TRUE(mt.optimal);
  EXPECT_TRUE(st.optimal);
  const double tol = 1e-6 * (1.0 + std::abs(st.objective));
  EXPECT_NEAR(st.objective, mt.objective, 1e-6 * (1.0 + std::abs(mt.objective)));
  EXPECT_NEAR(acrr::evaluate_objective(inst, st), st.objective, tol);
  EXPECT_LE(st.bound, st.objective + tol);
}

INSTANTIATE_TEST_SUITE_P(ConvergenceGrid, SingleTreeGridTest,
                         ::testing::Values(GridCase{0.06, 16, 17},
                                           GridCase{0.06, 16, 18},
                                           GridCase{0.08, 24, 17},
                                           GridCase{0.08, 24, 18}));

TEST(SingleTree, ReportsCutCounters) {
  Fixture f;
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 6; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 10.0 + i, 0.25));
  }
  const AcrrInstance inst = f.instance(ts);
  BendersOptions st;
  st.single_tree = true;
  const AdmissionResult res = acrr::solve_benders(inst, st);
  EXPECT_TRUE(res.optimal);
  EXPECT_GE(res.separation_rounds, 1);
  EXPECT_GE(res.iterations, 1);
  EXPECT_GE(res.cuts_separated, 0);
  EXPECT_GE(res.cuts_from_pool, 0);
  // Multi-tree reports its counters too (appended cuts + slave rounds).
  const AdmissionResult multi = acrr::solve_benders(inst);
  EXPECT_GE(multi.cuts_separated, 1);
  EXPECT_GE(multi.separation_rounds, 1);
}

}  // namespace
}  // namespace ovnes
