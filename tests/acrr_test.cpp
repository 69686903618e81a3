// Tests for the AC-RR core: the resource Ledger, instance construction &
// pruning, the Benders slave and its cuts, Benders optimality versus
// brute-force enumeration, the KAC heuristic, and the no-overbooking
// baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "acrr/benders.hpp"
#include "acrr/instance.hpp"
#include "acrr/kac.hpp"
#include "acrr/ledger.hpp"
#include "acrr/slave.hpp"
#include "common/rng.hpp"
#include "overhead_topology.hpp"
#include "topo/generators.hpp"

namespace ovnes::acrr {
namespace {

using slice::SliceType;

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

  explicit Fixture(std::size_t num_bs = 2, Cores edge = 40.0, Cores core = 200.0,
                   Mbps link_cap = 1000.0)
      : Fixture(topo::make_mini(num_bs, edge, core, 20000.0, link_cap)) {}
  /// The same data plane with every link's η_e drawn from [1.0, 1.2).
  Fixture(std::size_t num_bs, Cores edge, Cores core, Mbps link_cap,
          RngStream eta)
      : Fixture(test_topo::make_mini_with_overheads(num_bs, edge, core, 20000.0,
                                                    link_cap, std::move(eta))) {}
  explicit Fixture(topo::Topology t)
      : topo(std::move(t)),
        catalog(std::make_unique<topo::PathCatalog>(topo, 2)) {}

  AcrrInstance instance(std::vector<TenantModel> tenants,
                        AcrrConfig cfg = {}) const {
    return AcrrInstance(topo, *catalog, std::move(tenants), cfg);
  }
};

// Brute-force reference: enumerate every per-tenant (reject | CU) choice
// (valid for single-path catalogs) and take the best slave outcome.
double brute_force_objective(const AcrrInstance& inst) {
  const int t_count = static_cast<int>(inst.tenants().size());
  SlaveProblem slave(inst);
  double best = 0.0;  // rejecting everyone is always feasible, Ψ = 0
  std::vector<int> choice(static_cast<size_t>(t_count), -1);
  std::function<void(int)> recurse = [&](int t) {
    if (t == t_count) {
      std::vector<char> active(inst.vars().size(), 0);
      double first_stage = 0.0;
      for (int i = 0; i < t_count; ++i) {
        if (choice[static_cast<size_t>(i)] < 0) continue;
        const CuId c = inst.feasible_cus(i)[static_cast<size_t>(
            choice[static_cast<size_t>(i)])];
        for (const auto& group : inst.vars_by_bs(i, c)) {
          ASSERT_EQ(group.size(), 1u);  // single-path catalogs only
          active[static_cast<size_t>(group[0])] = 1;
          const VarInfo& v = inst.vars()[static_cast<size_t>(group[0])];
          first_stage += v.sla * v.w - v.reward_share;
        }
      }
      const SlaveResult sr = slave.solve(active, false);
      if (sr.feasible) best = std::min(best, first_stage + sr.objective);
      return;
    }
    for (int c = -1;
         c < static_cast<int>(inst.feasible_cus(t).size()); ++c) {
      choice[static_cast<size_t>(t)] = c;
      recurse(t + 1);
    }
  };
  recurse(0);
  return best;
}

// ------------------------------------------------------------------ Ledger

TEST(Ledger, BooksEtaWeightedUsageAndReleasesExactly) {
  // Two BSs wired straight to an edge CU: η_e = 1.1 on bs0's link (Eq. 3),
  // 1.0 on bs1's. Each entry then holds one term, so a release must bring
  // it back to exactly 0.
  topo::Topology t;
  const NodeId n0 = t.graph.add_node(topo::NodeKind::BaseStation, 0.5, 0.0, "bs0");
  const NodeId n1 = t.graph.add_node(topo::NodeKind::BaseStation, 1.0, 0.0, "bs1");
  const NodeId ne = t.graph.add_node(topo::NodeKind::ComputeUnit, 0.0, 0.5, "edge");
  t.graph.add_link(n0, ne, 32.0, topo::LinkTech::Fiber, -1.0, 1.1);
  t.graph.add_link(n1, ne, 1000.0, topo::LinkTech::Fiber, -1.0, 1.0);
  t.add_bs(n0, 100.0, kMbpsPerPrbIdeal, "bs0");
  t.add_bs(n1, 100.0, kMbpsPerPrbIdeal, "bs1");
  t.add_cu(ne, 16.0, true, "edge");
  const topo::PathCatalog catalog(t, 1);
  const topo::CandidatePath* paths[] = {
      &catalog.paths(BsId(0), CuId(0)).front(),
      &catalog.paths(BsId(1), CuId(0)).front()};
  const slice::ServiceModel svc{1.5, 0.2};
  const double z[] = {30.0, 12.0};  // z_0 fits bs0's 32 Mb/s link; η·z_0 does not

  Ledger used(t);
  used.book(t, svc, CuId(0), z, paths);
  EXPECT_DOUBLE_EQ(used.radio_prbs[0], 30.0 / kMbpsPerPrbIdeal);
  EXPECT_DOUBLE_EQ(used.radio_prbs[1], 12.0 / kMbpsPerPrbIdeal);
  EXPECT_DOUBLE_EQ(used.link_mbps[0], 1.1 * 30.0);
  EXPECT_DOUBLE_EQ(used.link_mbps[1], 12.0);
  EXPECT_DOUBLE_EQ(used.cpu_cores[0], 1.5 + 0.2 * 42.0);

  Ledger cap = Ledger::capacities(t);
  EXPECT_FALSE(used.fits(cap, 1e-9));
  EXPECT_EQ(used.over(cap, 1e-9), 1u);  // bs0's link only
  cap.link_mbps[0] = used.link_mbps[0];
  EXPECT_TRUE(used.fits(cap, 1e-9));
  cap.link_mbps[0] = used.link_mbps[0] - 1e-6;  // just over, beyond tol
  EXPECT_FALSE(used.fits(cap, 1e-9));

  // A release subtracts exactly what the commit added.
  used.book(t, svc, CuId(0), z, paths, -1.0);
  for (const auto* v : {&used.radio_prbs, &used.link_mbps, &used.cpu_cores}) {
    for (double x : *v) EXPECT_EQ(x, 0.0);
  }
}

// ----------------------------------------------------------------- Instance

TEST(Instance, DelayPruningExcludesCoreCuForUrllc) {
  Fixture f;
  // uRLLC: ∆ = 5 ms; the core CU sits behind a 20 ms link.
  const AcrrInstance inst =
      f.instance({make_tenant(0, SliceType::uRLLC, 10.0, 0.2)});
  ASSERT_EQ(inst.feasible_cus(0).size(), 1u);
  EXPECT_EQ(inst.feasible_cus(0)[0], CuId(0));  // edge only
  // eMBB reaches both CUs.
  const AcrrInstance inst2 =
      f.instance({make_tenant(0, SliceType::eMBB, 10.0, 0.2)});
  EXPECT_EQ(inst2.feasible_cus(0).size(), 2u);
}

TEST(Instance, VariableCoefficients) {
  Fixture f;
  const double lambda = 10.0, sigma = 0.25, m = 1.0;
  const std::size_t L = 20;
  const AcrrInstance inst =
      f.instance({make_tenant(0, SliceType::eMBB, lambda, sigma, L, m)});
  ASSERT_FALSE(inst.vars().empty());
  const VarInfo& v = inst.vars()[0];
  // w = ξ·(K/B)/(Λ−λ̂), ξ = σ̂·L, K = m·R/Λ, B = 2.
  const double k = m * 1.0 / 50.0;
  const double expected_w = sigma * static_cast<double>(L) * (k / 2.0) / (50.0 - lambda);
  EXPECT_NEAR(v.w, expected_w, 1e-12);
  EXPECT_DOUBLE_EQ(v.reward_share, 0.5);
  EXPECT_DOUBLE_EQ(v.sla, 50.0);
  EXPECT_NEAR(v.radio_prbs_per_mbps, 1.0 / kMbpsPerPrbIdeal, 1e-12);
}

TEST(Instance, LambdaHatClampedBelowSla) {
  Fixture f;
  // Forecast above Λ: no overbooking headroom; λ̂_eff < Λ and w stays finite.
  const AcrrInstance inst =
      f.instance({make_tenant(0, SliceType::eMBB, 80.0, 0.5)});
  for (const VarInfo& v : inst.vars()) {
    EXPECT_LT(v.lambda_hat, v.sla);
    EXPECT_TRUE(std::isfinite(v.w));
    EXPECT_GE(v.w, 0.0);
  }
}

TEST(Instance, NoOverbookingZeroesRiskWeights) {
  Fixture f;
  AcrrConfig cfg;
  cfg.no_overbooking = true;
  const AcrrInstance inst =
      f.instance({make_tenant(0, SliceType::eMBB, 10.0, 0.5)}, cfg);
  for (const VarInfo& v : inst.vars()) EXPECT_DOUBLE_EQ(v.w, 0.0);
}

TEST(Instance, PinnedTenantRestrictedToItsCu) {
  Fixture f;
  TenantModel tm = make_tenant(0, SliceType::eMBB, 10.0, 0.2);
  tm.pinned_cu = CuId(1);
  const AcrrInstance inst = f.instance({tm});
  ASSERT_EQ(inst.feasible_cus(0).size(), 1u);
  EXPECT_EQ(inst.feasible_cus(0)[0], CuId(1));
}

// -------------------------------------------------------------------- Slave

TEST(Slave, ReservesFullSlaWhenUncontended) {
  Fixture f;
  const AcrrInstance inst =
      f.instance({make_tenant(0, SliceType::eMBB, 10.0, 0.25)});
  SlaveProblem slave(inst);
  // Activate the edge-CU placement (vars for CU 0).
  std::vector<char> active(inst.vars().size(), 0);
  for (const auto& group : inst.vars_by_bs(0, CuId(0))) {
    active[static_cast<size_t>(group[0])] = 1;
  }
  const SlaveResult sr = slave.solve(active, false);
  ASSERT_TRUE(sr.feasible);
  for (std::size_t j = 0; j < active.size(); ++j) {
    if (active[j]) {
      EXPECT_NEAR(sr.z[j], 50.0, 1e-6);  // z -> Λ (risk -> 0)
    }
  }
  EXPECT_LT(sr.objective, 0.0);
}

TEST(Slave, SqueezesReservationsUnderRadioContention) {
  // 4 tenants on 2 BSs of 100 PRBs: full SLA needs 4·33.3 > 100 PRBs, so z
  // must drop below Λ but never below λ̂.
  Fixture f;
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 4; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 10.0, 0.25));
  }
  const AcrrInstance inst = f.instance(ts);
  SlaveProblem slave(inst);
  std::vector<char> active(inst.vars().size(), 0);
  for (int t = 0; t < 4; ++t) {
    for (const auto& group : inst.vars_by_bs(t, CuId(0))) {
      active[static_cast<size_t>(group[0])] = 1;
    }
  }
  const SlaveResult sr = slave.solve(active, false);
  ASSERT_TRUE(sr.feasible);
  double per_bs_prbs = 0.0;
  for (std::size_t j = 0; j < active.size(); ++j) {
    if (!active[j]) continue;
    const VarInfo& v = inst.vars()[j];
    EXPECT_GE(sr.z[j], v.lambda_hat - 1e-6);
    EXPECT_LE(sr.z[j], v.sla + 1e-6);
    if (v.bs == BsId(0)) per_bs_prbs += sr.z[j] * v.radio_prbs_per_mbps;
  }
  EXPECT_LE(per_bs_prbs, 100.0 + 1e-6);
  EXPECT_NEAR(per_bs_prbs, 100.0, 1e-4);  // radio saturated
}

TEST(Slave, InfeasibleWhenMinimaDontFit) {
  // λ̂ so high that even minimum reservations exceed the radio capacity.
  Fixture f;
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 4; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 48.0, 0.25));
  }
  const AcrrInstance inst = f.instance(ts);
  SlaveProblem slave(inst);
  std::vector<char> active(inst.vars().size(), 0);
  for (int t = 0; t < 4; ++t) {
    for (const auto& group : inst.vars_by_bs(t, CuId(0))) {
      active[static_cast<size_t>(group[0])] = 1;
    }
  }
  const SlaveResult sr = slave.solve(active, false);
  EXPECT_FALSE(sr.feasible);
  EXPECT_FALSE(sr.cut.optimality);
  // The feasibility cut must reject the current activation...
  EXPECT_GT(sr.cut.value_at(active), 1e-9);
  // ...but admit the empty activation.
  const std::vector<char> none(inst.vars().size(), 0);
  EXPECT_LE(sr.cut.value_at(none), 1e-9);

  // With the §3.4 big-M relaxation it becomes feasible at a deficit.
  const SlaveResult relaxed = slave.solve(active, true);
  EXPECT_TRUE(relaxed.feasible);
  EXPECT_GT(relaxed.deficit, 0.0);
}

TEST(Slave, OptimalityCutIsTightAtTrialPoint) {
  Fixture f;
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 3; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 20.0, 0.5));
  }
  const AcrrInstance inst = f.instance(ts);
  SlaveProblem slave(inst);
  std::vector<char> active(inst.vars().size(), 0);
  for (int t = 0; t < 3; ++t) {
    for (const auto& group : inst.vars_by_bs(t, CuId(0))) {
      active[static_cast<size_t>(group[0])] = 1;
    }
  }
  const SlaveResult sr = slave.solve(active, false);
  ASSERT_TRUE(sr.feasible);
  // Strong duality: the cut's value at x̄ equals the slave optimum.
  EXPECT_NEAR(sr.cut.value_at(active), sr.objective, 1e-5);
  // Validity: the cut under-estimates the slave at other activations.
  for (int drop = 0; drop < 3; ++drop) {
    std::vector<char> other = active;
    for (const auto& group : inst.vars_by_bs(drop, CuId(0))) {
      other[static_cast<size_t>(group[0])] = 0;
    }
    const SlaveResult so = slave.solve(other, false);
    ASSERT_TRUE(so.feasible);
    EXPECT_LE(sr.cut.value_at(other), so.objective + 1e-5);
  }
}

// η_e = 1.1 on every 40 Mb/s link: one eMBB tenant (λ̂ = 10) on both BSs
// of the edge CU is capped by the shared switch–edge link at
// Σ_b z_b = 40/1.1, the only row with a non-zero dual. The cut slope must
// charge that dual η_e per Mb/s (Eq. 3) for the cut to stay tight.
TEST(Slave, OptimalityCutChargesLinkOverhead) {
  Fixture f(test_topo::with_overheads(
      topo::make_mini(2, 1000.0, 0.0, 20000.0, 40.0), [] { return 1.1; }));
  const AcrrInstance inst =
      f.instance({make_tenant(0, SliceType::eMBB, 10.0, 0.25)});
  SlaveProblem slave(inst);
  std::vector<char> active(inst.vars().size(), 0);
  for (const auto& group : inst.vars_by_bs(0, CuId(0))) {
    active[static_cast<size_t>(group[0])] = 1;
  }
  const SlaveResult sr = slave.solve(active, false);
  ASSERT_TRUE(sr.feasible);
  double z_sum = 0.0;
  for (std::size_t j = 0; j < active.size(); ++j) {
    if (active[j]) z_sum += sr.z[j];
  }
  EXPECT_NEAR(z_sum, 40.0 / 1.1, 1e-6);  // the link binds
  EXPECT_NEAR(sr.cut.value_at(active), sr.objective, 1e-6);
}

// ------------------------------------------------------------------ Benders

TEST(Benders, AcceptsEverythingWhenCapacityIsAmple) {
  Fixture f;
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 10.0, 0.25));
  }
  const AcrrInstance inst = f.instance(ts);
  const AdmissionResult res = solve_benders(inst);
  EXPECT_TRUE(res.optimal);
  EXPECT_EQ(res.num_accepted(), 2u);
  EXPECT_DOUBLE_EQ(res.accepted_reward(inst), 2.0);
  for (const auto& p : res.admitted) {
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->path_vars.size(), 2u);  // one path per BS
    for (double z : p->reservation) {
      EXPECT_GE(z, 10.0 - 1e-6);
      EXPECT_LE(z, 50.0 + 1e-6);
    }
  }
}

TEST(Benders, OverbookingAdmitsMoreThanNoOverbooking) {
  // 6 eMBB tenants, 100-PRB BSs: full-SLA fits 3 (3·33.3 PRBs); with mean
  // load 10 (α = 0.2) overbooking packs all 6 (6·λ̂ = 40 PRBs minimum).
  Fixture f;
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 6; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 10.0, 0.25));
  }
  const AdmissionResult over = solve_benders(f.instance(ts));
  AcrrConfig cfg;
  cfg.no_overbooking = true;
  const AdmissionResult base = solve_no_overbooking(f.instance(ts, cfg));
  EXPECT_EQ(base.num_accepted(), 3u);
  EXPECT_EQ(over.num_accepted(), 6u);
  EXPECT_TRUE(base.optimal);
  EXPECT_TRUE(over.optimal);
}

TEST(Benders, ObjectiveMatchesEvaluate) {
  Fixture f;
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 4; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 15.0, 0.5));
  }
  const AcrrInstance inst = f.instance(ts);
  const AdmissionResult res = solve_benders(inst);
  EXPECT_NEAR(evaluate_objective(inst, res), res.objective, 1e-5);
}

TEST(Benders, HighPenaltyDiscouragesOverbooking) {
  // With a crushing penalty factor and volatile load, fewer tenants are
  // admitted than in the cheap-penalty case.
  Fixture f;
  std::vector<TenantModel> cheap, dear;
  for (std::uint32_t i = 0; i < 8; ++i) {
    cheap.push_back(make_tenant(i, SliceType::eMBB, 25.0, 0.5, 20, 0.5));
    dear.push_back(make_tenant(i, SliceType::eMBB, 25.0, 0.5, 20, 64.0));
  }
  const auto r_cheap = solve_benders(f.instance(cheap));
  const auto r_dear = solve_benders(f.instance(dear));
  EXPECT_GE(r_cheap.num_accepted(), r_dear.num_accepted());
  EXPECT_GT(r_cheap.num_accepted(), 3u);   // overbooks beyond full-SLA fit
}

TEST(Benders, PinnedTenantStaysAdmitted) {
  Fixture f;
  std::vector<TenantModel> ts;
  // A pinned low-value slice plus high-value competitors that would
  // otherwise crowd it out.
  TenantModel pinned = make_tenant(0, SliceType::eMBB, 45.0, 0.9, 20, 8.0);
  pinned.pinned_cu = CuId(0);
  ts.push_back(pinned);
  for (std::uint32_t i = 1; i < 4; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 10.0, 0.1));
  }
  AcrrConfig cfg;
  cfg.allow_deficit = true;  // (13) requires the §3.4 relaxation
  const AcrrInstance inst = f.instance(ts, cfg);
  const AdmissionResult res = solve_benders(inst);
  ASSERT_TRUE(res.admitted[0].has_value());
  EXPECT_EQ(res.admitted[0]->cu, CuId(0));
}

// Property: Benders == brute force on randomized small instances, with
// link overheads η_e ≠ 1 so the η terms of the master rows and the slave
// cuts are exercised.
class BendersRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BendersRandomTest, MatchesBruteForce) {
  RngStream rng(static_cast<uint64_t>(GetParam()) * 1337 + 11);
  Fixture f(/*num_bs=*/2,
            /*edge=*/rng.uniform(20.0, 60.0),
            /*core=*/rng.uniform(60.0, 300.0),
            /*link_cap=*/rng.uniform(150.0, 800.0),
            /*eta=*/rng.derive("eta"));
  const int n = static_cast<int>(rng.uniform_int(2, 5));
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
  const AcrrInstance inst = f.instance(ts);
  const double reference = brute_force_objective(inst);
  const AdmissionResult res = solve_benders(inst);
  EXPECT_TRUE(res.optimal);
  EXPECT_NEAR(res.objective, reference, 1e-4 * (1.0 + std::abs(reference)));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BendersRandomTest,
                         ::testing::Range(0, 25));

// ---------------------------------------------------------------------- KAC

TEST(Kac, FeasibleAndReasonable) {
  Fixture f;
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 6; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 10.0, 0.25));
  }
  const AcrrInstance inst = f.instance(ts);
  const AdmissionResult kac = solve_kac(inst);
  EXPECT_GE(kac.num_accepted(), 3u);
  EXPECT_DOUBLE_EQ(kac.deficit, 0.0);
  // Every accepted placement reserves within [λ̂, Λ].
  for (const auto& p : kac.admitted) {
    if (!p) continue;
    for (double z : p->reservation) {
      EXPECT_GE(z, 10.0 - 1e-6);
      EXPECT_LE(z, 50.0 + 1e-6);
    }
  }
}

TEST(Kac, NeverBeatsBenders) {
  // KAC is suboptimal: its Ψ is >= the Benders optimum (both minimize).
  RngStream rng(99);
  for (int rep = 0; rep < 8; ++rep) {
    Fixture f(2, rng.uniform(20.0, 80.0), rng.uniform(50.0, 200.0),
              rng.uniform(200.0, 900.0));
    std::vector<TenantModel> ts;
    const int n = static_cast<int>(rng.uniform_int(3, 7));
    for (int i = 0; i < n; ++i) {
      const auto type = static_cast<SliceType>(rng.uniform_int(0, 2));
      const auto tmpl = slice::standard_template(type);
      ts.push_back(make_tenant(static_cast<std::uint32_t>(i), type,
                               rng.uniform(0.1, 0.8) * tmpl.sla_rate,
                               rng.uniform(0.05, 0.6)));
    }
    const AcrrInstance inst = f.instance(ts);
    const AdmissionResult opt = solve_benders(inst);
    const AdmissionResult kac = solve_kac(inst);
    EXPECT_GE(kac.objective, opt.objective - 1e-5);
  }
}

TEST(Kac, HandlesOvercommittedStart) {
  // Demands so large the initial everything-accepted trial is infeasible;
  // KAC must iterate rays and converge to a feasible subset.
  Fixture f;
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 30.0, 0.2));
  }
  // 8 tenants at λ̂ = 30 need 8·20 = 160 PRBs minimum per BS > 100: the
  // initial everything-profitable packing is infeasible and KAC must
  // iterate Farkas-ray cuts down to a feasible subset (≤ 5 tenants).
  const AdmissionResult res = solve_kac(f.instance(ts));
  EXPECT_GT(res.iterations, 1);
  EXPECT_DOUBLE_EQ(res.deficit, 0.0);
  EXPECT_LE(res.num_accepted(), 5u);
  EXPECT_GE(res.num_accepted(), 1u);
}

TEST(Kac, RespectsUrllcDelayBudget) {
  Fixture f;
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 3; ++i) {
    ts.push_back(make_tenant(i, SliceType::uRLLC, 5.0, 0.2));
  }
  const AdmissionResult res = solve_kac(f.instance(ts));
  for (const auto& p : res.admitted) {
    if (p) {
      EXPECT_EQ(p->cu, CuId(0));  // edge only (∆ = 5 ms)
    }
  }
}

// ----------------------------------------------------------- No-overbooking

TEST(NoOverbooking, RequiresFlag) {
  Fixture f;
  const AcrrInstance inst = f.instance({make_tenant(0, SliceType::eMBB, 10, 0.2)});
  EXPECT_THROW((void)solve_no_overbooking(inst), std::logic_error);
}

TEST(NoOverbooking, ComputeBoundForMmtc) {
  // mMTC at full SLA: 20 cores/BS. Edge CU of the 2-BS fixture = 40 cores
  // -> exactly 1 tenant at the edge; core CU 200 cores -> 5 more.
  Fixture f;
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 10; ++i) {
    ts.push_back(make_tenant(i, SliceType::mMTC, 2.0, 0.01));
  }
  AcrrConfig cfg;
  cfg.no_overbooking = true;
  const AdmissionResult res = solve_no_overbooking(f.instance(ts, cfg));
  EXPECT_TRUE(res.optimal);
  EXPECT_EQ(res.num_accepted(), 6u);
  // Overbooking with λ̂ = 2 Mb/s (compute 4 cores/BS): all 10 fit.
  const AdmissionResult over = solve_benders(f.instance(ts));
  EXPECT_EQ(over.num_accepted(), 10u);
}

TEST(NoOverbooking, TransportRowsChargeLinkOverhead) {
  // Two eMBB tenants at Λ = 50 on both BSs put 2·2·50 = 200 Mb/s on the
  // switch–edge link: that fits 210 Mb/s at η_e = 1, not at η_e = 1.1.
  const topo::Topology plain = topo::make_mini(2, 1000.0, 0.0, 20000.0, 210.0);
  std::vector<TenantModel> ts;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ts.push_back(make_tenant(i, SliceType::eMBB, 10.0, 0.3));
  }
  AcrrConfig cfg;
  cfg.no_overbooking = true;
  EXPECT_EQ(solve_no_overbooking(Fixture(plain).instance(ts, cfg)).num_accepted(),
            2u);
  const Fixture f(test_topo::with_overheads(plain, [] { return 1.1; }));
  EXPECT_EQ(solve_no_overbooking(f.instance(ts, cfg)).num_accepted(), 1u);
}

TEST(NoOverbooking, ReservationsEqualSla) {
  Fixture f;
  AcrrConfig cfg;
  cfg.no_overbooking = true;
  const AdmissionResult res = solve_no_overbooking(
      f.instance({make_tenant(0, SliceType::eMBB, 10.0, 0.3)}, cfg));
  ASSERT_TRUE(res.admitted[0].has_value());
  for (double z : res.admitted[0]->reservation) EXPECT_DOUBLE_EQ(z, 50.0);
}

}  // namespace
}  // namespace ovnes::acrr
