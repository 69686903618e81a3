// Integration tests for the E2E orchestrator loop (§2.2) and the Fig. 5/6
// scenario driver: admission over epochs, reservation adaptation, revenue
// accounting, expiry, and the overbooking-vs-baseline contrast on the
// Fig. 7 testbed.
#include <gtest/gtest.h>

#include "orch/orchestrator.hpp"
#include "orch/scenario.hpp"
#include "topo/generators.hpp"

namespace ovnes::orch {
namespace {

using slice::SliceType;

slice::SliceRequest request(std::uint32_t id, SliceType type,
                            std::size_t arrival, std::size_t duration,
                            double mean, double std_dev) {
  slice::SliceRequest req;
  req.tenant = TenantId(id);
  req.name = std::string(slice::to_string(type)) + std::to_string(id);
  req.tmpl = slice::standard_template(type);
  req.arrival_epoch = arrival;
  req.duration_epochs = duration;
  req.declared_mean = mean;
  req.declared_std = std_dev;
  return req;
}

std::function<traffic::DemandPtr(BsId)> gaussian_factory(double mean,
                                                         double std_dev) {
  return [mean, std_dev](BsId) {
    return std::make_unique<traffic::GaussianDemand>(mean, std_dev);
  };
}

OrchestratorConfig fast_cfg(Algorithm algo) {
  OrchestratorConfig cfg;
  cfg.algorithm = algo;
  cfg.samples_per_epoch = 12;
  cfg.hw_period = 6;
  cfg.seed = 42;
  return cfg;
}

TEST(Simulation, AdmitsAndAccruesRevenue) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Benders));
  sim.submit(request(0, SliceType::eMBB, 0, 10, 25.0, 2.5),
             gaussian_factory(25.0, 2.5));
  const EpochReport rep = sim.run_epoch();
  ASSERT_EQ(rep.accepted.size(), 1u);
  EXPECT_EQ(rep.active_slices, 1u);
  EXPECT_DOUBLE_EQ(rep.reward, 1.0);  // eMBB R = 1 per epoch
  EXPECT_GT(rep.net_revenue, 0.0);
  EXPECT_EQ(sim.active().size(), 1u);
  // Reservation covers at least the declared peak and at most Λ.
  for (double z : sim.active()[0].reservation) {
    EXPECT_GT(z, 25.0);
    EXPECT_LE(z, 50.0 + 1e-9);
  }
}

TEST(Simulation, SliceExpiresAfterDuration) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Benders));
  sim.submit(request(0, SliceType::eMBB, 0, 3, 20.0, 0.0),
             gaussian_factory(20.0, 0.0));
  auto reports = sim.run(4);
  EXPECT_EQ(reports[0].accepted.size(), 1u);
  EXPECT_EQ(reports[2].expired.size(), 1u);
  EXPECT_EQ(reports[3].active_slices, 0u);
}

TEST(Simulation, ArrivalsWaitForTheirEpoch) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Benders));
  sim.submit(request(0, SliceType::eMBB, 2, 5, 20.0, 0.0),
             gaussian_factory(20.0, 0.0));
  auto reports = sim.run(3);
  EXPECT_TRUE(reports[0].accepted.empty());
  EXPECT_TRUE(reports[1].accepted.empty());
  EXPECT_EQ(reports[2].accepted.size(), 1u);
}

TEST(Simulation, OverbookingAdmitsMoreThanBaselineOnTestbed) {
  // Miniature Fig. 8: three uRLLC requests of ~10 edge CPUs each at SLA on
  // a 16-core edge CU. Baseline fits 1; overbooking (actual load = half the
  // SLA) fits 2 — exactly the paper's uRLLC outcome.
  const auto drive = [](Algorithm algo) {
    Simulation sim(topo::make_testbed(), 2, fast_cfg(algo));
    for (std::uint32_t i = 0; i < 3; ++i) {
      // uRLLC: Λ = 25, b = 0.2 -> 2·25·0.2 = 10 cores at SLA (2 BSs).
      sim.submit(request(i, SliceType::uRLLC, i, 30, 12.5, 1.25),
                 gaussian_factory(12.5, 1.25));
    }
    std::size_t admitted = 0;
    for (const EpochReport& r : sim.run(4)) admitted += r.accepted.size();
    return admitted;
  };
  EXPECT_EQ(drive(Algorithm::NoOverbooking), 1u);
  EXPECT_EQ(drive(Algorithm::Benders), 2u);
}

TEST(Simulation, PinnedSlicesSurviveLaterArrivals) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Benders));
  sim.submit(request(0, SliceType::eMBB, 0, 20, 10.0, 1.0),
             gaussian_factory(10.0, 1.0));
  // A flood of high-reward competitors later.
  for (std::uint32_t i = 1; i < 6; ++i) {
    sim.submit(request(i, SliceType::uRLLC, 2, 20, 12.0, 1.0),
               gaussian_factory(12.0, 1.0));
  }
  auto reports = sim.run(4);
  // The first slice is never evicted.
  for (const EpochReport& r : reports) {
    for (const auto& name : r.expired) EXPECT_NE(name, "embb0");
  }
  bool embb_active = false;
  for (const ActiveSlice& s : sim.active()) {
    if (s.request.name == "embb0") embb_active = true;
  }
  EXPECT_TRUE(embb_active);
}

TEST(Simulation, UsageNeverExceedsCapacityPlusDeficit) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Benders));
  for (std::uint32_t i = 0; i < 4; ++i) {
    sim.submit(request(i, SliceType::eMBB, 0, 10, 20.0, 4.0),
               gaussian_factory(20.0, 4.0));
  }
  for (const EpochReport& r : sim.run(5)) {
    const auto& topo = sim.topology();
    for (std::size_t b = 0; b < topo.num_bs(); ++b) {
      EXPECT_LE(r.usage.radio_reserved[b],
                topo.bs(BsId(static_cast<std::uint32_t>(b))).capacity +
                    r.deficit + 1e-6);
    }
    for (std::size_t c = 0; c < topo.num_cu(); ++c) {
      EXPECT_LE(r.usage.cpu_reserved[c],
                topo.cu(CuId(static_cast<std::uint32_t>(c))).capacity +
                    r.deficit + 1e-6);
    }
    for (std::size_t l = 0; l < topo.graph.num_links(); ++l) {
      EXPECT_LE(r.usage.link_reserved[l],
                topo.graph.links()[l].capacity + r.deficit + 1e-6);
    }
  }
}

TEST(Simulation, ViolationsAreRareUnderHonestDeclarations) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Benders));
  sim.submit(request(0, SliceType::eMBB, 0, 30, 25.0, 2.5),
             gaussian_factory(25.0, 2.5));
  sim.run(20);
  // Single tenant, ample capacity: z -> Λ, so SLA violations ~ 0.
  EXPECT_LT(sim.ledger().violation_probability(), 0.001);
}

TEST(Simulation, KacAlgorithmRunsEndToEnd) {
  Simulation sim(topo::make_testbed(), 2, fast_cfg(Algorithm::Kac));
  for (std::uint32_t i = 0; i < 3; ++i) {
    sim.submit(request(i, SliceType::eMBB, 0, 10, 15.0, 1.5),
               gaussian_factory(15.0, 1.5));
  }
  const EpochReport rep = sim.run_epoch();
  EXPECT_GE(rep.accepted.size(), 2u);
  EXPECT_GT(rep.net_revenue, 0.0);
}

TEST(Simulation, RetryRejectedQueuesAgain) {
  OrchestratorConfig cfg = fast_cfg(Algorithm::NoOverbooking);
  cfg.retry_rejected = true;
  Simulation sim(topo::make_testbed(), 2, cfg);
  // Two mMTC at full load: 2·10·2 = 40 cores each at SLA; edge 16 + core 64
  // fits one... the second keeps retrying (and stays rejected).
  for (std::uint32_t i = 0; i < 2; ++i) {
    sim.submit(request(i, SliceType::mMTC, 0, 10, 10.0, 0.0),
               gaussian_factory(10.0, 0.0));
  }
  auto r0 = sim.run_epoch();
  EXPECT_EQ(r0.accepted.size() + r0.rejected.size(), 2u);
  const std::size_t rejected_first = r0.rejected.size();
  auto r1 = sim.run_epoch();
  // Retried request shows up again in epoch 1's decision.
  EXPECT_EQ(r1.rejected.size() + r1.accepted.size(), rejected_first);
}

TEST(Simulation, SingleTreeSharesCutPoolAcrossEpochs) {
  // With share_cut_pool (default on) the single-tree master keeps its
  // Benders cuts in a Simulation-owned pool between epochs. Converged
  // oracle forecasts + a persistently retried reject give two successive
  // solves the *same* instance fingerprint: the second starts from the
  // first's pooled cuts instead of separating from scratch.
  OrchestratorConfig cfg = fast_cfg(Algorithm::Benders);
  cfg.benders.single_tree = true;
  cfg.learn_forecasts = false;  // declared descriptors: stable λ̂ σ̂
  cfg.retry_rejected = true;
  Simulation sim(topo::make_testbed(), 2, cfg);
  // Same overload as RetryRejectedQueuesAgain: one mMTC fits, the other
  // keeps retrying (and stays rejected), forcing a solve every epoch over
  // an unchanged tenant set.
  for (std::uint32_t i = 0; i < 2; ++i) {
    sim.submit(request(i, SliceType::mMTC, 0, 10, 10.0, 0.0),
               gaussian_factory(10.0, 0.0));
  }
  const EpochReport r0 = sim.run_epoch();
  ASSERT_EQ(r0.accepted.size(), 1u);
  ASSERT_EQ(r0.rejected.size(), 1u);
  const EpochReport r1 = sim.run_epoch();  // pins + retry: new fingerprint
  ASSERT_EQ(r1.rejected.size(), 1u);
  EXPECT_GT(r1.cuts_separated, 0);
  const EpochReport r2 = sim.run_epoch();  // identical instance: pool carry
  ASSERT_EQ(r2.rejected.size(), 1u);
  EXPECT_GT(r2.cuts_from_pool, 0);
  // Overbooking accounting fields are populated alongside.
  EXPECT_GE(r2.overbooked_mbps, 0.0);
  EXPECT_GE(r2.radio_headroom_mbps, 0.0);
  EXPECT_GE(r2.violation_minutes, 0.0);
}

TEST(Simulation, RuntimeStaysAlignedAcrossExpiryAndRetry) {
  // Durations 1-4, staggered arrivals and retried rejects make slices leave
  // from the front and the middle of the active set while others join at
  // the back. Each slice samples its own demand process (realized at 1.5x
  // its declaration, so epoch 3 overruns), so a runtime paired with the
  // wrong slice changes the sampled load. The literals were captured
  // before the per-slice runtime moved from a name-keyed map to a vector.
  OrchestratorConfig cfg = fast_cfg(Algorithm::Benders);
  cfg.retry_rejected = true;
  Simulation sim(topo::make_testbed(), 2, cfg);
  struct Spec {
    SliceType type;
    std::size_t arrival, duration;
    double mean, std_dev;
  };
  const Spec specs[] = {
      {SliceType::eMBB, 0, 3, 20.0, 4.0},  {SliceType::mMTC, 0, 4, 10.0, 0.0},
      {SliceType::uRLLC, 0, 1, 12.5, 1.25}, {SliceType::mMTC, 1, 2, 8.0, 0.0},
      {SliceType::eMBB, 1, 4, 30.0, 6.0},  {SliceType::uRLLC, 2, 2, 10.0, 2.0},
      {SliceType::mMTC, 2, 3, 10.0, 0.0},  {SliceType::eMBB, 3, 1, 15.0, 3.0},
      {SliceType::uRLLC, 3, 4, 12.0, 1.2}};
  std::uint32_t id = 0;
  for (const Spec& sp : specs) {
    sim.submit(request(id++, sp.type, sp.arrival, sp.duration, sp.mean,
                       sp.std_dev),
               gaussian_factory(1.5 * sp.mean, 2.0 * sp.std_dev));
  }
  struct Expected {
    double net_revenue;
    std::size_t violations;
    double radio_load[2];
  };
  const Expected expected[] = {
      {6.2000000000000002, 0, {42.077615378036754, 37.419481664333908}},
      {4.9999999999999991, 0, {52.344788327199439, 54.539587393023879}},
      {7.1999999999999993, 0, {62.030472420856555, 66.68804053989291}},
      {8.2316088334484263, 10, {72.015043440132573, 71.401838762493924}},
      {6.2000000000000028, 0, {48.226708175324937, 47.12681447591617}},
      {5.2000000000000028, 0, {18.50192711445089, 19.304671892825684}}};
  const std::vector<EpochReport> reports = sim.run(6);
  // The run exercises what the test is about: a retried reject admitted
  // later, and expiries from the middle of the active set.
  EXPECT_EQ(reports[3].expired,
            (std::vector<std::string>{"mmtc1", "urllc5", "embb7"}));
  EXPECT_EQ(reports[4].accepted, std::vector<std::string>{"mmtc3"});
  for (std::size_t e = 0; e < reports.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    const EpochReport& r = reports[e];
    EXPECT_DOUBLE_EQ(r.net_revenue, expected[e].net_revenue);
    EXPECT_EQ(r.violations, expected[e].violations);
    ASSERT_EQ(r.usage.radio_load.size(), 2u);
    for (std::size_t b = 0; b < 2; ++b) {
      EXPECT_DOUBLE_EQ(r.usage.radio_load[b], expected[e].radio_load[b]);
    }
  }
}

// ---------------------------------------------------------------- Scenarios

TEST(Scenario, BuildersProduceRequestedMixes) {
  const auto homo = homogeneous(SliceType::eMBB, 10, 0.2, 0.25, 1.0);
  EXPECT_EQ(homo.size(), 10u);
  const auto mix = heterogeneous(SliceType::eMBB, SliceType::mMTC, 10, 30.0,
                                 0.2, 0.5, 1.0);
  std::size_t mmtc = 0;
  for (const auto& t : mix) {
    if (t.type == SliceType::mMTC) {
      ++mmtc;
      EXPECT_DOUBLE_EQ(t.sigma_ratio, 0.0);  // mMTC is deterministic
    }
  }
  EXPECT_EQ(mmtc, 3u);
}

TEST(Scenario, OverbookingBeatsBaselineAtLowLoad) {
  ScenarioConfig cfg;
  cfg.topology = "romanian";
  cfg.scale = 0.03;  // ~6 BSs: keeps the exact solver fast in unit tests
  cfg.seed = 5;
  cfg.k_paths = 2;
  cfg.tenants = homogeneous(SliceType::eMBB, 8, 0.2, 0.25, 1.0);
  cfg.max_epochs = 12;
  cfg.algorithm = Algorithm::Benders;
  const ScenarioResult over = run_scenario(cfg);
  cfg.algorithm = Algorithm::NoOverbooking;
  const ScenarioResult base = run_scenario(cfg);
  EXPECT_GT(over.accepted, base.accepted);
  EXPECT_GT(over.mean_net_revenue, base.mean_net_revenue);
  EXPECT_GT(base.mean_net_revenue, 0.0);
}

TEST(Scenario, StopsOnStandardErrorRule) {
  ScenarioConfig cfg;
  cfg.topology = "romanian";
  cfg.scale = 0.03;
  cfg.seed = 6;
  cfg.k_paths = 2;
  cfg.tenants = homogeneous(SliceType::mMTC, 4, 0.3, 0.0, 1.0);
  cfg.max_epochs = 40;
  // Deterministic mMTC load -> revenue is constant -> SE hits 0 right at
  // min_epochs.
  const ScenarioResult res = run_scenario(cfg);
  EXPECT_EQ(res.epochs, cfg.min_epochs);
  EXPECT_LE(res.rse, cfg.target_rse);
}

TEST(Scenario, ViolationFootprintIsSmall) {
  // §4.3.3: the overbooking gains come at a negligible SLA cost.
  ScenarioConfig cfg;
  cfg.topology = "romanian";
  cfg.scale = 0.03;
  cfg.seed = 7;
  cfg.k_paths = 2;
  cfg.tenants = homogeneous(SliceType::eMBB, 8, 0.2, 0.5, 1.0);
  cfg.max_epochs = 20;
  const ScenarioResult res = run_scenario(cfg);
  EXPECT_LT(res.violation_prob, 0.05);
  EXPECT_LE(res.max_drop_fraction, 1.0);
}

TEST(Scenario, SolverCountersMergeEveryEpoch) {
  // A single-tree scenario's solver counters are the SolveStats merge of
  // its epochs' reports: none is dropped, first_incumbent_nodes included.
  ScenarioConfig cfg;
  cfg.topology = "romanian";
  cfg.scale = 0.03;
  cfg.seed = 5;
  cfg.k_paths = 2;
  cfg.tenants = heterogeneous(SliceType::eMBB, SliceType::uRLLC, 8, 50.0,
                              0.4, 0.5, 2.0);
  cfg.min_epochs = cfg.max_epochs = 3;  // a fixed epoch count
  cfg.benders.single_tree = true;
  cfg.benders.master.branching = solver::BranchRule::Pseudocost;
  cfg.benders.master.rens_heuristic = true;
  const ScenarioResult res = run_scenario(cfg);
  ASSERT_EQ(res.epochs, cfg.max_epochs);

  // The same run epoch by epoch, set up as run_scenario does.
  OrchestratorConfig ocfg;
  ocfg.algorithm = cfg.algorithm;
  ocfg.samples_per_epoch = cfg.samples_per_epoch;
  ocfg.learn_forecasts = false;
  ocfg.benders = cfg.benders;
  ocfg.benders.master.threads = 1;
  ocfg.seed = cfg.seed;
  Simulation sim(topo::make_operator(cfg.topology, {cfg.scale, cfg.seed}),
                 cfg.k_paths, ocfg);
  std::uint32_t id = 0;
  for (const TenantSpec& spec : cfg.tenants) {
    slice::SliceRequest req;
    req.tenant = TenantId(id);
    req.name = std::string(slice::to_string(spec.type)) + std::to_string(id);
    req.tmpl = slice::standard_template(spec.type);
    req.duration_epochs = cfg.max_epochs + 1;
    req.penalty_factor = spec.penalty_m;
    req.declared_mean = spec.alpha * req.tmpl.sla_rate;
    req.declared_std = spec.type == SliceType::mMTC
                           ? 0.0
                           : spec.sigma_ratio * req.declared_mean;
    sim.submit(req, gaussian_factory(req.declared_mean, req.declared_std));
    ++id;
  }
  solver::SolveStats merged;
  for (std::size_t e = 0; e < res.epochs; ++e) merged.merge(sim.run_epoch());

  EXPECT_GT(merged.separation_rounds, 0);
  EXPECT_GE(merged.first_incumbent_nodes, 0);
  EXPECT_EQ(res.cuts_separated, merged.cuts_separated);
  EXPECT_EQ(res.cuts_from_pool, merged.cuts_from_pool);
  EXPECT_EQ(res.cuts_evicted, merged.cuts_evicted);
  EXPECT_EQ(res.separation_rounds, merged.separation_rounds);
  EXPECT_EQ(res.pseudocost_branchings, merged.pseudocost_branchings);
  EXPECT_EQ(res.strong_probes, merged.strong_probes);
  EXPECT_EQ(res.heuristic_incumbents, merged.heuristic_incumbents);
  EXPECT_EQ(res.first_incumbent_nodes, merged.first_incumbent_nodes);
}

}  // namespace
}  // namespace ovnes::orch
