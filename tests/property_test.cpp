// Cross-module property tests: system-level invariants that must hold for
// any parameterization — revenue monotonicity in capacity, anytime-bound
// consistency, k-shortest-path structural properties on random graphs, and
// middlebox flow conservation under random workloads.
#include <gtest/gtest.h>

#include <set>

#include "acrr/benders.hpp"
#include "acrr/kac.hpp"
#include "common/rng.hpp"
#include "dataplane/middlebox.hpp"
#include "orch/scenario.hpp"
#include "solver/milp.hpp"
#include "topo/generators.hpp"
#include "topo/paths.hpp"

namespace ovnes {
namespace {

using slice::SliceType;

// ---------------------------------------------------------- KSP properties

class KspPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(KspPropertyTest, PathsAreSortedLooplessAndDistinct) {
  RngStream rng(static_cast<uint64_t>(GetParam()) * 31 + 7);
  // Random connected graph: ring + chords.
  topo::Graph g;
  const int n = static_cast<int>(rng.uniform_int(6, 16));
  std::vector<NodeId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(g.add_node(topo::NodeKind::Switch, rng.uniform(0, 10),
                               rng.uniform(0, 10)));
  }
  for (int i = 0; i < n; ++i) {
    g.add_link(nodes[static_cast<size_t>(i)],
               nodes[static_cast<size_t>((i + 1) % n)],
               rng.uniform(100.0, 10000.0), topo::LinkTech::Fiber);
  }
  for (int c = 0; c < n / 2; ++c) {
    const auto a = static_cast<size_t>(rng.uniform_int(0, n - 1));
    const auto b = static_cast<size_t>(rng.uniform_int(0, n - 1));
    if (a != b) {
      g.add_link(nodes[a], nodes[b], rng.uniform(100.0, 10000.0),
                 topo::LinkTech::Wireless);
    }
  }
  const auto paths = topo::k_shortest_paths(g, nodes[0],
                                            nodes[static_cast<size_t>(n / 2)], 6);
  ASSERT_FALSE(paths.empty());
  std::set<std::vector<std::uint32_t>> seen;
  double prev_delay = 0.0;
  for (const topo::NodePath& p : paths) {
    // Sorted by delay.
    EXPECT_GE(p.delay, prev_delay - 1e-9);
    prev_delay = p.delay;
    // Loopless.
    std::set<std::uint32_t> visited;
    for (NodeId node : p.nodes) EXPECT_TRUE(visited.insert(node.value()).second);
    // Endpoints correct and links consistent with nodes.
    EXPECT_EQ(p.nodes.front(), nodes[0]);
    EXPECT_EQ(p.nodes.back(), nodes[static_cast<size_t>(n / 2)]);
    EXPECT_EQ(p.links.size() + 1, p.nodes.size());
    // Distinct.
    std::vector<std::uint32_t> key;
    for (LinkId l : p.links) key.push_back(l.value());
    EXPECT_TRUE(seen.insert(key).second);
    // Delay equals the sum of its links' delays.
    double d = 0.0;
    for (LinkId l : p.links) d += g.link_delay_us(l);
    EXPECT_NEAR(d, p.delay, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, KspPropertyTest, ::testing::Range(0, 12));

// ------------------------------------------------- AC-RR anytime invariants

class AcrrInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(AcrrInvariantTest, BoundObjectiveAndCapacityInvariants) {
  RngStream rng(static_cast<uint64_t>(GetParam()) * 977 + 5);
  const topo::Topology topo = topo::make_mini(
      static_cast<std::size_t>(rng.uniform_int(2, 4)),
      rng.uniform(20.0, 120.0), rng.uniform(0.0, 300.0), 20000.0,
      rng.uniform(200.0, 1200.0));
  const topo::PathCatalog catalog(topo, 2);
  std::vector<acrr::TenantModel> ts;
  const int n = static_cast<int>(rng.uniform_int(3, 9));
  for (int i = 0; i < n; ++i) {
    acrr::TenantModel tm;
    tm.request.tenant = TenantId(static_cast<std::uint32_t>(i));
    tm.request.name = "t" + std::to_string(i);
    tm.request.tmpl = slice::standard_template(
        static_cast<SliceType>(rng.uniform_int(0, 2)));
    tm.request.duration_epochs = static_cast<std::size_t>(rng.uniform_int(2, 30));
    tm.request.penalty_factor = rng.uniform(0.25, 16.0);
    tm.sigma_hat = rng.uniform(0.01, 0.9);
    tm.lambda_hat = rng.uniform(0.05, 0.95) * tm.request.tmpl.sla_rate;
    ts.push_back(std::move(tm));
  }
  const acrr::AcrrInstance inst(topo, catalog, ts);
  const acrr::AdmissionResult res = acrr::solve_benders(inst);

  // Anytime bound sandwiches the objective; Ψ <= 0 (rejection is free).
  EXPECT_LE(res.bound, res.objective + 1e-6);
  EXPECT_LE(res.objective, 1e-9);
  // The reported objective prices the returned solution.
  EXPECT_NEAR(acrr::evaluate_objective(inst, res), res.objective,
              1e-5 * (1.0 + std::abs(res.objective)));

  // Physical capacity is respected by the returned reservations.
  std::vector<double> bs_prbs(topo.num_bs(), 0.0);
  std::vector<double> cu_cores(topo.num_cu(), 0.0);
  for (std::size_t t = 0; t < res.admitted.size(); ++t) {
    if (!res.admitted[t]) continue;
    const auto& svc = ts[t].request.tmpl.service;
    double z_sum = 0.0;
    for (std::size_t i = 0; i < res.admitted[t]->path_vars.size(); ++i) {
      const acrr::VarInfo& v =
          inst.vars()[static_cast<size_t>(res.admitted[t]->path_vars[i])];
      const double z = res.admitted[t]->reservation[i];
      EXPECT_GE(z, std::min(v.lambda_hat, v.sla) - 1e-6);
      EXPECT_LE(z, v.sla + 1e-6);
      bs_prbs[v.bs.index()] += z * v.radio_prbs_per_mbps;
      z_sum += z;
    }
    cu_cores[res.admitted[t]->cu.index()] +=
        svc.baseline + svc.cores_per_mbps * z_sum;
  }
  for (std::size_t b = 0; b < topo.num_bs(); ++b) {
    EXPECT_LE(bs_prbs[b], topo.bs(BsId(static_cast<std::uint32_t>(b))).capacity + 1e-5);
  }
  for (std::size_t c = 0; c < topo.num_cu(); ++c) {
    EXPECT_LE(cu_cores[c], topo.cu(CuId(static_cast<std::uint32_t>(c))).capacity + 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, AcrrInvariantTest,
                         ::testing::Range(0, 16));

// ------------------------------------------- revenue monotonicity property

TEST(ScenarioProperty, RevenueMonotoneInRadioCapacity) {
  // Doubling every BS's PRBs can only help (weak monotonicity) — checked
  // end-to-end through the orchestrator.
  const auto run_with_prbs = [](double prbs) {
    topo::Topology t = topo::make_mini(2, 200.0, 0.0, 0.0, 5000.0);
    for (std::size_t b = 0; b < t.num_bs(); ++b) {
      const_cast<topo::BaseStation&>(t.bs(BsId(static_cast<std::uint32_t>(b))))
          .capacity = prbs;
    }
    orch::OrchestratorConfig cfg;
    cfg.algorithm = orch::Algorithm::Benders;
    cfg.learn_forecasts = false;
    cfg.seed = 3;
    orch::Simulation sim(std::move(t), 1, cfg);
    for (std::uint32_t i = 0; i < 8; ++i) {
      slice::SliceRequest req;
      req.tenant = TenantId(i);
      req.name = "e" + std::to_string(i);
      req.tmpl = slice::standard_template(SliceType::eMBB);
      req.duration_epochs = 10;
      req.declared_mean = 20.0;
      req.declared_std = 2.0;
      sim.submit(req, [](BsId) {
        return std::make_unique<traffic::GaussianDemand>(20.0, 2.0);
      });
    }
    sim.run(6);
    return sim.cumulative_net_revenue();
  };
  const double rev_small = run_with_prbs(100.0);
  const double rev_big = run_with_prbs(200.0);
  EXPECT_GE(rev_big, rev_small - 1e-9);
  EXPECT_GT(rev_big, 0.0);
}

// ----------------------------------------- MILP branching-rule equivalence

/// Integer-coefficient knapsack-style MILP: profits correlate with weights
/// so the LP relaxation is fractional, and all-integer data makes the
/// optimal objective exact — the 1e-9 agreement below carries no LP-noise
/// slack.
solver::LpModel random_milp(RngStream& rng) {
  using namespace ovnes::solver;
  LpModel m;
  const int n = 8 + static_cast<int>(rng.uniform_int(0, 6));
  const int rows = 2 + static_cast<int>(rng.uniform_int(0, 2));
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

class MilpBranchingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MilpBranchingPropertyTest, RulesAgreeAndBoundsSandwich) {
  using namespace ovnes::solver;
  RngStream rng = RngStream(0x6272616e63686573ULL)
                      .derive("milp_battery", static_cast<std::size_t>(GetParam()));
  const LpModel m = random_milp(rng);

  MilpOptions mf;  // historical most-fractional rule
  mf.gap_tol = 0.0;
  mf.threads = 1;
  const MilpResult a = solve_milp(m, mf);

  MilpOptions pc = mf;  // pseudocost + heuristics: different search, same answer
  pc.branching = BranchRule::Pseudocost;
  pc.rens_heuristic = true;
  const MilpResult b = solve_milp(m, pc);

  ASSERT_EQ(a.status, MilpStatus::Optimal);
  ASSERT_EQ(b.status, MilpStatus::Optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
  EXPECT_LE(a.best_bound, a.objective + 1e-9);
  EXPECT_LE(b.best_bound, b.objective + 1e-9);
  // Returned points price their objectives on the original model.
  EXPECT_NEAR(m.objective_value(b.x), b.objective, 1e-9);
  EXPECT_LE(m.max_violation(b.x), 1e-6);

  // Node-limited anytime solves keep the bound sandwich under both rules:
  // best_bound stays below any incumbent AND below the true optimum.
  for (const MilpOptions* o : {&mf, &pc}) {
    MilpOptions limited = *o;
    limited.max_nodes = 8;
    const MilpResult r = solve_milp(m, limited);
    EXPECT_LE(r.best_bound, a.objective + 1e-9);
    if (!r.x.empty()) {
      EXPECT_LE(r.best_bound, r.objective + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMilps, MilpBranchingPropertyTest,
                         ::testing::Range(0, 50));

// -------------------------------------------------- middlebox conservation

class MiddleboxPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MiddleboxPropertyTest, ConservationAndBoundsUnderRandomDrive) {
  RngStream rng(static_cast<uint64_t>(GetParam()) * 131 + 17);
  const double sla = rng.uniform(10.0, 80.0);
  const double depth = rng.uniform(10.0, 500.0);
  dataplane::SplitTcpMiddlebox mbx(sla, depth);
  double prev_backlog = 0.0;
  double total_in = 0.0, total_out = 0.0;
  for (int i = 0; i < 400; ++i) {
    const double offered = rng.uniform(0.0, 2.0 * sla);
    const double reserved = rng.uniform(0.0, 1.2 * sla);
    const double dt = rng.uniform(1.0, 600.0);
    const auto s = mbx.step(offered, reserved, dt);
    // Delivered never exceeds the reservation (shaping) and drops are
    // non-negative; backlog within the configured depth.
    EXPECT_LE(s.delivered, reserved + 1e-9);
    EXPECT_GE(s.dropped_sla, 0.0);
    EXPECT_GE(s.dropped_overflow, 0.0);
    EXPECT_LE(s.backlog_mb, depth + 1e-9);
    // Per-step conservation.
    const double in_mb = offered * dt;
    const double out_mb = (s.delivered + s.dropped_sla + s.dropped_overflow) * dt +
                          (s.backlog_mb - prev_backlog);
    EXPECT_NEAR(in_mb, out_mb, 1e-6 * std::max(1.0, in_mb));
    prev_backlog = s.backlog_mb;
    total_in += in_mb;
    total_out += out_mb;
  }
  EXPECT_NEAR(total_in, total_out, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(RandomDrives, MiddleboxPropertyTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace ovnes
