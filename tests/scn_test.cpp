// Unit tests for src/scn: topology-family determinism and structure,
// traffic-model distribution sanity, Monte Carlo sweep thread-count
// independence and pinned digests, forecast-error stress, and service-day
// script determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "scn/montecarlo.hpp"
#include "scn/service_day.hpp"
#include "scn/topologies.hpp"
#include "scn/traffic.hpp"
#include "topo/topology.hpp"

namespace ovnes {
namespace {

// ------------------------------------------------------- topology families

TEST(ScnTopologies, MetroDeterministicBySeed) {
  scn::MetroConfig cfg;
  cfg.num_bs = 24;
  cfg.core_switches = 4;
  cfg.agg_per_core = 2;
  const std::uint64_t d1 = topo::topology_digest(scn::make_metro(cfg));
  const std::uint64_t d2 = topo::topology_digest(scn::make_metro(cfg));
  EXPECT_EQ(d1, d2);
  cfg.seed = 2;
  EXPECT_NE(topo::topology_digest(scn::make_metro(cfg)), d1);
}

TEST(ScnTopologies, WanDeterministicBySeed) {
  scn::WanConfig cfg;
  cfg.num_pops = 8;
  cfg.bs_per_pop = 2;
  const std::uint64_t d1 = topo::topology_digest(scn::make_wan(cfg));
  const std::uint64_t d2 = topo::topology_digest(scn::make_wan(cfg));
  EXPECT_EQ(d1, d2);
  cfg.seed = 99;
  EXPECT_NE(topo::topology_digest(scn::make_wan(cfg)), d1);
}

TEST(ScnTopologies, MetroStructureAtScale) {
  const scn::MetroConfig cfg;  // defaults: 96 BS
  const topo::Topology t = scn::make_metro(cfg);
  const scn::TopologyStats s = scn::topology_stats(t);
  EXPECT_EQ(s.nodes, cfg.num_bs + cfg.core_switches +
                         cfg.core_switches * cfg.agg_per_core +
                         cfg.edge_cu_sites + 1);
  EXPECT_GE(s.nodes, 100u);  // the 10^2 scale point of the ISSUE
  EXPECT_EQ(s.bs, cfg.num_bs);
  EXPECT_EQ(s.cu, cfg.edge_cu_sites + 1);
  EXPECT_TRUE(s.connected);
  // Dual-homed aggregation + ring core: switch degree well above tree-like.
  EXPECT_GE(s.mean_degree, 3.0);
  // Metro spans: propagation stays sub-millisecond except the virtual
  // core-CU link, which dominates max.
  EXPECT_GE(s.max_link_delay_us, cfg.core_cu_delay_us);
}

TEST(ScnTopologies, WanStructureAtScale) {
  const scn::WanConfig cfg;  // defaults: 24 PoPs x 4 BS
  const topo::Topology t = scn::make_wan(cfg);
  const scn::TopologyStats s = scn::topology_stats(t);
  EXPECT_EQ(s.nodes, cfg.num_pops * (1 + cfg.bs_per_pop) + cfg.edge_cu_sites + 1);
  EXPECT_GE(s.nodes, 100u);
  EXPECT_TRUE(s.connected);  // Prim MST guarantees it before chords
  // MST has pops-1 backbone links; Waxman chords add more.
  EXPECT_GE(s.links, cfg.num_pops - 1 + cfg.num_pops * cfg.bs_per_pop);
  // Long-haul spans: mean link delay well above metro scale.
  EXPECT_GE(s.max_link_delay_us, 1000.0);
}

TEST(ScnTopologies, FamiliesScaleToThousandNodes) {
  scn::WanConfig cfg;
  cfg.num_pops = 180;
  cfg.bs_per_pop = 5;
  cfg.edge_cu_sites = 12;
  const scn::TopologyStats s = scn::topology_stats(scn::make_wan(cfg));
  EXPECT_GE(s.nodes, 1000u);  // the 10^3 scale point
  EXPECT_TRUE(s.connected);
}

// ----------------------------------------------------------- traffic models

TEST(ScnTraffic, TableByteIdenticalAcrossRepeats) {
  scn::TrafficModelConfig cfg;
  cfg.seed = 5;
  cfg.flash.spikes = 1;
  const scn::TrafficTable a = scn::make_traffic_table(cfg);
  const scn::TrafficTable b = scn::make_traffic_table(cfg);
  EXPECT_EQ(a.to_text(), b.to_text());
  EXPECT_EQ(a.digest(), b.digest());
  cfg.seed = 6;
  EXPECT_NE(scn::make_traffic_table(cfg).digest(), a.digest());
}

TEST(ScnTraffic, ParetoHillTailIndexNearAlpha) {
  RngStream rng(21);
  scn::HeavyTailConfig ht;
  ht.pareto_alpha = 1.8;
  ht.cap = 1e12;  // uncapped for the estimator
  std::vector<double> samples(20000);
  for (double& s : samples) s = scn::sample_heavy_tail(rng, ht);
  const double hill = scn::hill_tail_index(samples, 2000);
  EXPECT_NEAR(hill, 1.8, 0.25);
}

TEST(ScnTraffic, DiurnalPeakRatioMatchesConfig) {
  scn::DiurnalConfig d;
  d.peak_ratio = 3.0;
  d.peak_hour = 14.0;
  EXPECT_NEAR(scn::diurnal_level(d, 14.0), 1.0, 1e-12);   // peak
  EXPECT_NEAR(scn::diurnal_level(d, 2.0), 1.0 / 3.0, 1e-12);  // trough
  double lo = 1e9, hi = 0.0;
  for (int h = 0; h < 24; ++h) {
    const double v = scn::diurnal_level(d, h);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_NEAR(hi / lo, 3.0, 1e-9);
}

TEST(ScnTraffic, FlashCrowdRaisesEnvelope) {
  scn::TrafficModelConfig base;
  base.seed = 31;
  scn::TrafficModelConfig flashed = base;
  flashed.flash.spikes = 2;
  flashed.flash.multiplier = 4.0;
  const scn::TrafficTable a = scn::make_traffic_table(base);
  const scn::TrafficTable b = scn::make_traffic_table(flashed);
  double max_ratio = 0.0;
  for (std::size_t h = 0; h < a.envelope.size(); ++h) {
    max_ratio = std::max(max_ratio, b.envelope[h] / a.envelope[h]);
  }
  // Some hour carries a spike (overlapping windows may stack beyond 4x).
  EXPECT_GE(max_ratio, 4.0 - 1e-9);
}

TEST(ScnTraffic, ForecastBiasShiftsRealizedMean) {
  scn::TrafficModelConfig cfg;
  cfg.seed = 8;
  scn::TrafficModelConfig biased = cfg;
  biased.forecast.bias = 0.5;
  const scn::TrafficTable a = scn::make_traffic_table(cfg);
  const scn::TrafficTable b = scn::make_traffic_table(biased);
  // Same forecasts (declared rates are bias-free), shifted realizations.
  EXPECT_EQ(a.forecast_mbps, b.forecast_mbps);
  for (std::size_t i = 0; i < a.realized_mbps.size(); ++i) {
    EXPECT_NEAR(b.realized_mbps[i], 1.5 * a.realized_mbps[i], 1e-9);
  }
}

// ----------------------------------------------------- Monte Carlo sweeps

/// A digest as the 16-digit hex string bench_regression reports.
std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(ScnMonteCarlo, DigestIndependentOfThreadCount) {
  scn::SlaRiskConfig cfg;
  cfg.scenarios = 24;
  exec::ThreadPool p1(1), p4(4);
  const scn::SlaRiskResult a = scn::run_sla_risk_sweep(cfg, &p1);
  const scn::SlaRiskResult b = scn::run_sla_risk_sweep(cfg, &p4);
  EXPECT_EQ(a.rows_digest, b.rows_digest);
  EXPECT_DOUBLE_EQ(a.mean_net_revenue, b.mean_net_revenue);
  EXPECT_DOUBLE_EQ(a.accept_rate, b.accept_rate);
  EXPECT_DOUBLE_EQ(a.violation_minutes_p95, b.violation_minutes_p95);
  EXPECT_EQ(a.scenarios, 24u);
}

TEST(ScnMonteCarlo, DigestPinnedAcrossRefactor) {
  // Literals captured before scenario configs were built on the lanes and
  // the per-sample monitoring store was removed: every draw, and so every
  // row, must be unchanged at any lane count.
  scn::SlaRiskConfig mini;
  mini.scenarios = 200;
  mini.forecast.bias = 0.2;
  scn::SlaRiskConfig metro;
  metro.scenarios = 24;
  metro.topology_factory = [](std::size_t i) {
    scn::MetroConfig mc;
    mc.num_bs = 8;
    mc.core_switches = 3;
    mc.agg_per_core = 2;
    mc.edge_cu_sites = 1;
    mc.seed = 100 + i;
    return scn::make_metro(mc);
  };
  for (const std::size_t lanes : {1, 3}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    exec::ThreadPool pool(lanes);
    const scn::SlaRiskResult m = scn::run_sla_risk_sweep(mini, &pool);
    EXPECT_EQ(hex64(m.rows_digest), "d06bf99d87f0d786");
    EXPECT_DOUBLE_EQ(m.mean_net_revenue, 4.5724631939329203);
    const scn::SlaRiskResult t = scn::run_sla_risk_sweep(metro, &pool);
    EXPECT_EQ(hex64(t.rows_digest), "65132f07a72287d4");
    EXPECT_DOUBLE_EQ(t.mean_net_revenue, 13.449181160015964);
  }
}

TEST(ScnMonteCarlo, ForecastBiasCreatesViolationMinutes) {
  scn::SlaRiskConfig honest;
  honest.scenarios = 16;
  scn::SlaRiskConfig biased = honest;
  biased.forecast.bias = 0.6;  // realized demand 60% above declared
  exec::ThreadPool pool(2);
  const scn::SlaRiskResult h = scn::run_sla_risk_sweep(honest, &pool);
  const scn::SlaRiskResult b = scn::run_sla_risk_sweep(biased, &pool);
  // The under-forecast stress must surface as SLA violation minutes beyond
  // the honest baseline (the admission plan overbooked against reality).
  EXPECT_GT(b.violation_minutes_mean, h.violation_minutes_mean);
  EXPECT_GT(b.violation_minutes_mean, 0.0);
  EXPECT_NE(b.rows_digest, h.rows_digest);
}

// ------------------------------------------------------- service-day script

TEST(ScnServiceDay, ScriptDeterministicBySeed) {
  scn::ServiceDayConfig cfg;
  cfg.tenants = 120;
  cfg.hours = 6;
  const auto a = scn::make_service_day(cfg);
  const auto b = scn::make_service_day(cfg);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(scn::script_digest(a), scn::script_digest(b));
  cfg.seed = 3;
  EXPECT_NE(scn::script_digest(scn::make_service_day(cfg)),
            scn::script_digest(a));
}

TEST(ScnServiceDay, FlashCrowdConcentratesArrivals) {
  scn::ServiceDayConfig base;
  base.tenants = 400;
  base.hours = 24;
  scn::ServiceDayConfig flashed = base;
  flashed.flash.spikes = 1;
  flashed.flash.multiplier = 6.0;
  const auto count_arrivals = [](const std::vector<svc::Event>& s) {
    std::size_t n = 0;
    for (const auto& e : s) n += e.type == svc::EventType::TenantArrival;
    return n;
  };
  const auto a = scn::make_service_day(base);
  const auto b = scn::make_service_day(flashed);
  // Arrival totals stay normalized to ~tenants either way; the flash only
  // moves them between hours.
  EXPECT_NEAR(static_cast<double>(count_arrivals(a)),
              static_cast<double>(count_arrivals(b)),
              0.05 * static_cast<double>(base.tenants));
  EXPECT_NE(scn::script_digest(a), scn::script_digest(b));
}

}  // namespace
}  // namespace ovnes
