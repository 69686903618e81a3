#include "scn/montecarlo.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "exec/thread_pool.hpp"
#include "topo/generators.hpp"

namespace ovnes::scn {

namespace {

/// Slice-type mix per tenant draw: mostly eMBB, a uRLLC/mMTC minority —
/// enough heterogeneity to exercise distinct SLA shapes without making the
/// mini instance infeasible.
slice::SliceType draw_type(RngStream& rng) {
  const double u = rng.uniform();
  if (u < 0.70) return slice::SliceType::eMBB;
  if (u < 0.90) return slice::SliceType::mMTC;
  return slice::SliceType::uRLLC;
}

/// Scenario i of the sweep. Every draw comes from children of `root` keyed
/// by ("scenario", i), so the config is a pure function of (cfg, i) and any
/// lane may build it.
orch::ScenarioConfig make_scenario(const SlaRiskConfig& cfg,
                                   const RngStream& root, std::size_t i) {
  RngStream sr = root.derive("scenario", i);
  orch::ScenarioConfig sc;
  if (cfg.topology_factory) {
    sc.topology_factory = [factory = cfg.topology_factory, i] {
      return factory(i);
    };
  } else {
    // Edge compute deliberately below the 20·N paper sizing so admission
    // is contended; abundant core behind the default 20 ms delay.
    sc.topology_factory = [num_bs = cfg.num_bs,
                           cores = cfg.edge_cores_per_bs] {
      const auto n = static_cast<double>(num_bs);
      return topo::make_mini(num_bs, cores * n, 100.0 * n);
    };
  }
  sc.seed = sr.derive("sim").seed();
  sc.k_paths = cfg.k_paths;
  sc.algorithm = cfg.algorithm;
  sc.samples_per_epoch = cfg.samples_per_epoch;
  sc.min_epochs = cfg.min_epochs;
  sc.max_epochs = cfg.max_epochs;
  sc.target_rse = 0.0;  // budget-bounded: always run max_epochs
  sc.forecast_bias = cfg.forecast.bias;
  sc.forecast_noise = cfg.forecast.noise;
  const auto n_tenants = static_cast<std::size_t>(
      sr.derive("tenants").uniform_int(
          static_cast<std::int64_t>(cfg.tenants_min),
          static_cast<std::int64_t>(cfg.tenants_max)));
  sc.tenants.reserve(n_tenants);
  for (std::size_t t = 0; t < n_tenants; ++t) {
    RngStream tr = sr.derive("tenant", t);
    orch::TenantSpec spec;
    spec.type = draw_type(tr);
    const double scale = sample_heavy_tail(tr, cfg.load_tail);
    spec.alpha = std::min(cfg.alpha_cap, cfg.base_alpha * scale);
    spec.sigma_ratio = cfg.sigma_ratio;
    spec.penalty_m = cfg.penalty_m;
    sc.tenants.push_back(spec);
  }
  return sc;
}

}  // namespace

SlaRiskResult run_sla_risk_sweep(const SlaRiskConfig& cfg,
                                 exec::ThreadPool* pool) {
  exec::ThreadPool& lanes =
      pool != nullptr ? *pool : exec::ThreadPool::global();
  const RngStream root(cfg.seed);
  std::vector<orch::ScenarioResult> results(cfg.scenarios);
  const auto t0 = std::chrono::steady_clock::now();
  lanes.parallel_for(0, cfg.scenarios, [&](std::size_t i) {
    results[i] = orch::run_scenario(make_scenario(cfg, root, i));
  });
  const auto t1 = std::chrono::steady_clock::now();

  SlaRiskResult agg;
  agg.scenarios = results.size();
  agg.wall_sec = std::chrono::duration<double>(t1 - t0).count();

  RunningStats revenue, viol_prob, viol_minutes, overbooked;
  EmpiricalDistribution rev_dist, viol_dist;
  rev_dist.reserve(results.size());
  viol_dist.reserve(results.size());
  std::size_t accepted = 0, requested = 0;
  // Canonical per-scenario rows: stable float formatting, insertion order —
  // the digest is the sweep's correctness fingerprint.
  std::string rows;
  rows.reserve(results.size() * 64);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const orch::ScenarioResult& r = results[i];
    revenue.add(r.mean_net_revenue);
    viol_prob.add(r.violation_prob);
    viol_minutes.add(r.violation_minutes);
    overbooked.add(r.mean_overbooked_mbps);
    rev_dist.add(r.mean_net_revenue);
    viol_dist.add(r.violation_minutes);
    accepted += r.accepted;
    requested += r.requested;
    rows += std::to_string(i);
    rows += ' ';
    rows += std::to_string(r.accepted);
    rows += '/';
    rows += std::to_string(r.requested);
    rows += ' ';
    rows += json::format_double(r.mean_net_revenue);
    rows += ' ';
    rows += json::format_double(r.violation_prob);
    rows += ' ';
    rows += json::format_double(r.violation_minutes);
    rows += '\n';
  }
  agg.accept_rate = requested > 0
                        ? static_cast<double>(accepted) /
                              static_cast<double>(requested)
                        : 0.0;
  agg.mean_net_revenue = revenue.mean();
  agg.revenue_p05 = rev_dist.count() ? rev_dist.quantile(0.05) : 0.0;
  agg.revenue_p50 = rev_dist.count() ? rev_dist.quantile(0.50) : 0.0;
  agg.violation_prob_mean = viol_prob.mean();
  agg.violation_minutes_mean = viol_minutes.mean();
  agg.violation_minutes_p95 = viol_dist.count() ? viol_dist.quantile(0.95) : 0.0;
  agg.violation_minutes_max = viol_minutes.max();
  agg.mean_overbooked_mbps = overbooked.mean();
  agg.rows_digest = fnv1a(rows);
  return agg;
}

}  // namespace ovnes::scn
