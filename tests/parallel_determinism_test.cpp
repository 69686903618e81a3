// Determinism guarantees of the parallel runtime (ISSUE 3 acceptance):
//  * branch-and-bound with 1 and 4 lanes reports identical objectives and
//    valid gaps on knapsack-style MILPs and on an AC-RR master workload;
//  * the Benders loop — serial master plus concurrent probe slaves — is
//    trajectory-identical for every thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "acrr/benders.hpp"
#include "acrr/instance.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "slice/slice.hpp"
#include "solver/milp.hpp"
#include "topo/generators.hpp"

namespace {

using namespace ovnes;
using namespace ovnes::solver;

LpModel random_multi_knapsack(int n, int rows, std::uint64_t seed) {
  RngStream rng(seed);
  LpModel m;
  std::vector<std::vector<Coef>> caps(static_cast<size_t>(rows));
  for (int j = 0; j < n; ++j) {
    m.add_binary("b" + std::to_string(j), -rng.uniform(1.0, 10.0));
    for (int r = 0; r < rows; ++r) {
      caps[static_cast<size_t>(r)].push_back({j, rng.uniform(0.5, 5.0)});
    }
  }
  for (int r = 0; r < rows; ++r) {
    m.add_row("cap" + std::to_string(r), RowSense::LessEq,
              0.35 * 2.75 * static_cast<double>(n),
              std::move(caps[static_cast<size_t>(r)]));
  }
  return m;
}

TEST(ParallelMilp, SameObjectiveAsSerialOnKnapsacks) {
  exec::ThreadPool pool4(4);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const LpModel m = random_multi_knapsack(18, 2, seed);

    MilpOptions serial;
    serial.threads = 1;
    const MilpResult rs = solve_milp(m, serial);

    MilpOptions parallel;
    parallel.pool = &pool4;  // threads = 0 -> lanes = pool.size() = 4
    const MilpResult rp = solve_milp(m, parallel);

    ASSERT_EQ(rs.status, MilpStatus::Optimal) << "seed " << seed;
    ASSERT_EQ(rp.status, MilpStatus::Optimal) << "seed " << seed;
    EXPECT_NEAR(rp.objective, rs.objective,
                1e-8 * (1.0 + std::abs(rs.objective)))
        << "seed " << seed;
    EXPECT_NEAR(rp.best_bound, rs.best_bound,
                1e-8 * (1.0 + std::abs(rs.best_bound)));
    EXPECT_EQ(rs.gap(), 0.0);
    EXPECT_EQ(rp.gap(), 0.0);
    // The parallel solution must satisfy the model like the serial one.
    EXPECT_LE(m.max_violation(rp.x), 1e-6);
  }
}

TEST(ParallelMilp, ParallelLimitHitKeepsValidGap) {
  // Under a node limit the parallel search may truncate a different part
  // of the tree, but the reported bound must stay conservative: incumbent
  // >= best_bound, gap >= 0.
  exec::ThreadPool pool4(4);
  const LpModel m = random_multi_knapsack(26, 3, 99);
  MilpOptions opts;
  opts.pool = &pool4;
  opts.max_nodes = 40;
  const MilpResult r = solve_milp(m, opts);
  if (r.status == MilpStatus::Feasible) {
    EXPECT_LE(r.best_bound, r.objective + 1e-9);
    EXPECT_GE(r.gap(), 0.0);
  } else {
    EXPECT_TRUE(r.status == MilpStatus::Optimal ||
                r.status == MilpStatus::NoSolution);
  }
}

TEST(ParallelMilp, DiveHonorsNodeLimit) {
  const LpModel m = random_multi_knapsack(20, 2, 7);
  MilpOptions opts;
  opts.threads = 1;
  opts.max_nodes = 3;  // smaller than the dive depth
  const MilpResult r = solve_milp(m, opts);
  EXPECT_LE(r.nodes, 3);
  EXPECT_NE(r.status, MilpStatus::Optimal);  // 3 nodes cannot prove optimality
  if (r.status == MilpStatus::Feasible) {
    EXPECT_GE(r.gap(), 0.0);
  }
}

acrr::AcrrInstance make_acrr_instance(const topo::Topology& topo,
                                      const topo::PathCatalog& catalog,
                                      std::size_t tenants) {
  RngStream rng(3);
  std::vector<acrr::TenantModel> tms;
  for (std::size_t i = 0; i < tenants; ++i) {
    acrr::TenantModel tm;
    tm.request.tenant = TenantId(static_cast<std::uint32_t>(i));
    tm.request.tmpl = slice::standard_template(
        static_cast<slice::SliceType>(rng.uniform_int(0, 2)));
    tm.request.duration_epochs = 20;
    tm.lambda_hat = rng.uniform(0.2, 0.5) * tm.request.tmpl.sla_rate;
    tm.sigma_hat = 0.2;
    tms.push_back(std::move(tm));
  }
  return acrr::AcrrInstance(topo, catalog, tms);
}

TEST(ParallelBenders, TrajectoryIdenticalAcrossThreadCounts) {
  const topo::Topology topo = topo::make_romanian({0.03, 9});
  const topo::PathCatalog catalog(topo, 2);

  exec::ThreadPool pool1(1);
  exec::ThreadPool pool4(4);

  for (const std::size_t tenants : {5u, 9u}) {
    const acrr::AcrrInstance inst = make_acrr_instance(topo, catalog, tenants);

    acrr::BendersOptions o1;
    o1.pool = &pool1;
    acrr::BendersOptions o4;
    o4.pool = &pool4;
    const acrr::AdmissionResult r1 = acrr::solve_benders(inst, o1);
    const acrr::AdmissionResult r4 = acrr::solve_benders(inst, o4);

    // The probe set is a pure function of x̄ and the master runs serially,
    // so the cut stream — and with it every reported number — is
    // bit-identical regardless of pool width.
    EXPECT_EQ(r1.iterations, r4.iterations) << tenants << " tenants";
    EXPECT_DOUBLE_EQ(r1.objective, r4.objective);
    EXPECT_DOUBLE_EQ(r1.bound, r4.bound);
    EXPECT_EQ(r1.optimal, r4.optimal);
    EXPECT_EQ(r1.num_accepted(), r4.num_accepted());
    ASSERT_EQ(r1.admitted.size(), r4.admitted.size());
    for (std::size_t t = 0; t < r1.admitted.size(); ++t) {
      EXPECT_EQ(r1.admitted[t].has_value(), r4.admitted[t].has_value());
    }
  }
}

TEST(ParallelBenders, ProbeCutsPreserveObjective) {
  // Probe cuts are valid at any x, so enabling/disabling them may change
  // the iteration count but never the converged objective.
  const topo::Topology topo = topo::make_romanian({0.03, 9});
  const topo::PathCatalog catalog(topo, 2);
  const acrr::AcrrInstance inst = make_acrr_instance(topo, catalog, 7);

  acrr::BendersOptions with_probes;  // default probe_cuts = 4
  acrr::BendersOptions no_probes;
  no_probes.probe_cuts = 0;
  const acrr::AdmissionResult rp = acrr::solve_benders(inst, with_probes);
  const acrr::AdmissionResult rn = acrr::solve_benders(inst, no_probes);

  ASSERT_TRUE(rp.optimal);
  ASSERT_TRUE(rn.optimal);
  EXPECT_NEAR(rp.objective, rn.objective,
              1e-6 * (1.0 + std::abs(rn.objective)));
}

}  // namespace
