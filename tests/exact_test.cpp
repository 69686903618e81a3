// Cross-validation of the three AC-RR solvers: the monolithic Problem-2
// MILP (explicit §3.3 linearization), the Benders decomposition, and KAC.
// Equality of the exact MILP and Benders optima on randomized instances is
// the strongest internal-consistency check in the repo: it validates both
// the linearization rows (10)-(12) and the reduced-slave cut derivation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "acrr/benders.hpp"
#include "acrr/exact.hpp"
#include "acrr/kac.hpp"
#include "common/rng.hpp"
#include "overhead_topology.hpp"
#include "topo/generators.hpp"

namespace ovnes::acrr {
namespace {

using slice::SliceType;

// Same OVNES_FAST convention as bench/bench_util.hpp: ctest exports
// OVNES_FAST=1 (see CMakeLists.txt) so the suite runs the reduced
// enumeration grid; run the binary directly (or with OVNES_FAST=0) for the
// full sweep.
int grid(int full, int fast) {
  const char* v = std::getenv("OVNES_FAST");
  return (v != nullptr && std::string(v) != "0") ? fast : full;
}

TenantModel make_tenant(std::uint32_t id, SliceType type, double lambda_hat,
                        double sigma_hat, double m = 1.0) {
  TenantModel tm;
  tm.request.tenant = TenantId(id);
  tm.request.name = "t" + std::to_string(id);
  tm.request.tmpl = slice::standard_template(type);
  tm.request.duration_epochs = 20;
  tm.request.penalty_factor = m;
  tm.lambda_hat = lambda_hat;
  tm.sigma_hat = sigma_hat;
  return tm;
}

TEST(ExactMilp, SimpleInstanceMatchesHandComputation) {
  // One eMBB tenant, ample capacity: accept, z = Λ (risk 0), Ψ = -R.
  const topo::Topology topo = topo::make_mini(2, 40.0, 0.0);
  const topo::PathCatalog catalog(topo, 1);
  const AcrrInstance inst(topo, catalog,
                          {make_tenant(0, SliceType::eMBB, 10.0, 0.25)});
  const AdmissionResult r = solve_exact_milp(inst);
  ASSERT_TRUE(r.optimal);
  ASSERT_TRUE(r.admitted[0].has_value());
  EXPECT_NEAR(r.objective, -1.0, 1e-6);
  for (double z : r.admitted[0]->reservation) EXPECT_NEAR(z, 50.0, 1e-6);
}

TEST(ExactMilp, LinearizationEnforcesYequalsZX) {
  // Under contention z < Λ; the exact model must still price risk
  // correctly, i.e. match evaluate_objective on its own solution.
  const topo::Topology topo = topo::make_mini(2, 40.0, 0.0);
  const topo::PathCatalog catalog(topo, 1);
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 5; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 12.0, 0.4));
  }
  const AcrrInstance inst(topo, catalog, ts);
  const AdmissionResult r = solve_exact_milp(inst);
  ASSERT_TRUE(r.optimal);
  EXPECT_NEAR(evaluate_objective(inst, r), r.objective, 1e-5);
}

TEST(ExactMilp, NoOverbookingModePinsZToSla) {
  const topo::Topology topo = topo::make_mini(2, 40.0, 0.0);
  const topo::PathCatalog catalog(topo, 1);
  AcrrConfig cfg;
  cfg.no_overbooking = true;
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 5; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 12.0, 0.4));
  }
  const AcrrInstance inst(topo, catalog, ts, cfg);
  const AdmissionResult exact = solve_exact_milp(inst);
  const AdmissionResult direct = solve_no_overbooking(inst);
  ASSERT_TRUE(exact.optimal);
  ASSERT_TRUE(direct.optimal);
  EXPECT_EQ(exact.num_accepted(), 3u);  // radio-bound: 3 · 33.3 PRBs
  EXPECT_EQ(exact.num_accepted(), direct.num_accepted());
  for (const auto& p : exact.admitted) {
    if (!p) continue;
    for (double z : p->reservation) EXPECT_NEAR(z, 50.0, 1e-6);
  }
}

// The headline property: exact MILP == Benders on random instances, and
// KAC is feasible but never better. Link overheads η_e ≠ 1 exercise the η
// terms, which exact.cpp writes out independently of the Benders rows.
class SolverAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgreementTest, ExactEqualsBendersAndBoundsKac) {
  RngStream rng(static_cast<uint64_t>(GetParam()) * 6151 + 41);
  const auto num_bs = static_cast<std::size_t>(rng.uniform_int(2, 3));
  const topo::Topology topo = test_topo::make_mini_with_overheads(
      num_bs, rng.uniform(20.0, 90.0), rng.uniform(0.0, 250.0), 20000.0,
      rng.uniform(150.0, 900.0), rng.derive("eta"));
  const topo::PathCatalog catalog(topo, 1);
  std::vector<TenantModel> ts;
  const int n = static_cast<int>(rng.uniform_int(2, 6));
  for (int i = 0; i < n; ++i) {
    const auto type = static_cast<SliceType>(rng.uniform_int(0, 2));
    const auto tmpl = slice::standard_template(type);
    ts.push_back(make_tenant(static_cast<std::uint32_t>(i), type,
                             rng.uniform(0.1, 0.9) * tmpl.sla_rate,
                             rng.uniform(0.02, 0.8),
                             rng.uniform(0.5, 16.0)));
  }
  const AcrrInstance inst(topo, catalog, ts);

  const AdmissionResult exact = solve_exact_milp(inst);
  const AdmissionResult benders = solve_benders(inst);
  const AdmissionResult kac = solve_kac(inst);

  ASSERT_TRUE(exact.optimal);
  ASSERT_TRUE(benders.optimal);
  const double tol = 1e-4 * (1.0 + std::abs(exact.objective));
  EXPECT_NEAR(benders.objective, exact.objective, tol);
  EXPECT_GE(kac.objective, exact.objective - tol);
  // Both exact solvers price their own solutions consistently.
  EXPECT_NEAR(evaluate_objective(inst, exact), exact.objective, tol);
  EXPECT_NEAR(evaluate_objective(inst, benders), benders.objective, tol);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SolverAgreementTest,
                         ::testing::Range(0, grid(30, 12)));

TEST(ExactMilp, ScalesWorseThanBenders) {
  // Sanity for the paper's motivation: on a mid-size instance the
  // monolithic model carries ~3x the variables and more rows.
  const topo::Topology topo = topo::make_romanian({0.03, 5});
  const topo::PathCatalog catalog(topo, 2);
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 6; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 15.0, 0.3));
  }
  const AcrrInstance inst(topo, catalog, ts);
  const AdmissionResult exact = solve_exact_milp(inst);
  const AdmissionResult benders = solve_benders(inst);
  ASSERT_TRUE(benders.optimal);
  if (exact.optimal) {
    EXPECT_NEAR(exact.objective, benders.objective,
                1e-4 * (1.0 + std::abs(exact.objective)));
  }
}

}  // namespace
}  // namespace ovnes::acrr
