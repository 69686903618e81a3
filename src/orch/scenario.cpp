#include "orch/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "exec/thread_pool.hpp"

namespace ovnes::orch {

std::vector<TenantSpec> homogeneous(slice::SliceType type, std::size_t n,
                                    double alpha, double sigma_ratio,
                                    double penalty_m) {
  return std::vector<TenantSpec>(n, TenantSpec{type, alpha, sigma_ratio,
                                               penalty_m});
}

std::vector<TenantSpec> heterogeneous(slice::SliceType a, slice::SliceType b,
                                      std::size_t n, double beta_percent,
                                      double alpha, double sigma_ratio,
                                      double penalty_m) {
  std::vector<TenantSpec> out;
  const auto n_b = static_cast<std::size_t>(
      std::round(static_cast<double>(n) * beta_percent / 100.0));
  for (std::size_t i = 0; i < n; ++i) {
    TenantSpec spec{i < n_b ? b : a, alpha, sigma_ratio, penalty_m};
    // mMTC traffic is deterministic regardless of the sweep (§4.3.2).
    if (spec.type == slice::SliceType::mMTC) spec.sigma_ratio = 0.0;
    out.push_back(spec);
  }
  return out;
}

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  topo::Topology topology =
      cfg.topology_factory
          ? cfg.topology_factory()
          : topo::make_operator(cfg.topology, {cfg.scale, cfg.seed});

  OrchestratorConfig ocfg;
  ocfg.algorithm = cfg.algorithm;
  ocfg.samples_per_epoch = cfg.samples_per_epoch;
  ocfg.learn_forecasts = false;  // converged-oracle mode (see header)
  ocfg.benders = cfg.benders;
  ocfg.milp = cfg.milp;
  // Scenario results are documented as pure functions of the config: pin
  // the no-overbooking MILP to one lane (solve_benders already keeps its
  // master serial), since a parallel branch-and-bound may return a
  // different tie-optimal admission *set* run to run. Parallelism comes
  // from sweeping scenarios concurrently, not from inside one scenario.
  ocfg.milp.threads = 1;
  ocfg.benders.master.threads = 1;
  ocfg.seed = cfg.seed;

  Simulation sim(std::move(topology), cfg.k_paths, ocfg);

  // All requests at epoch 0, lasting the entire horizon (§4.3.2).
  std::uint32_t id = 0;
  for (const TenantSpec& spec : cfg.tenants) {
    slice::SliceRequest req;
    req.tenant = TenantId(id);
    req.name = std::string(slice::to_string(spec.type)) + std::to_string(id);
    req.tmpl = slice::standard_template(spec.type);
    req.duration_epochs = cfg.max_epochs + 1;
    req.arrival_epoch = 0;
    req.penalty_factor = spec.penalty_m;
    const double mean = spec.alpha * req.tmpl.sla_rate;
    const double sigma =
        spec.type == slice::SliceType::mMTC ? 0.0 : spec.sigma_ratio * mean;
    req.declared_mean = mean;
    req.declared_std = sigma;
    // Forecast-error stress: the realized process drifts off the declared
    // forecast (multiplicative bias + per-tenant lognormal jitter with
    // E[exp(g·noise − noise²/2)] = 1, so the bias alone sets the mean
    // error). Zero bias + zero noise keeps realized == declared exactly —
    // no draw is taken, preserving the paper trajectories byte-for-byte.
    double realized = mean;
    if (cfg.forecast_bias != 0.0 || cfg.forecast_noise != 0.0) {
      RngStream err = RngStream(cfg.seed).derive("forecast-error", id);
      const double jitter =
          cfg.forecast_noise != 0.0
              ? std::exp(err.gaussian(0.0, cfg.forecast_noise) -
                         0.5 * cfg.forecast_noise * cfg.forecast_noise)
              : 1.0;
      realized = mean * (1.0 + cfg.forecast_bias) * jitter;
      if (realized < 0.0) realized = 0.0;
    }
    const double realized_sigma =
        mean > 0.0 ? sigma * realized / mean : sigma;
    sim.submit(req, [realized, realized_sigma](BsId) {
      return std::make_unique<traffic::GaussianDemand>(realized,
                                                       realized_sigma);
    });
    ++id;
  }

  ScenarioResult out;
  out.requested = cfg.tenants.size();
  RunningStats revenue;
  for (std::size_t e = 0; e < cfg.max_epochs; ++e) {
    const EpochReport rep = sim.run_epoch();
    revenue.add(rep.net_revenue);
    out.merge(rep);
    out.violation_minutes += rep.violation_minutes;
    out.mean_overbooked_mbps += rep.overbooked_mbps;
    out.mean_radio_headroom_mbps += rep.radio_headroom_mbps;
    if (e == 0) {
      out.accepted = rep.accepted.size();
      out.solve_ms = rep.solve_ms;
      out.deficit = rep.deficit;
    }
    if (e + 1 >= cfg.min_epochs &&
        revenue.relative_standard_error() < cfg.target_rse) {
      break;
    }
  }
  out.mean_net_revenue = revenue.mean();
  out.rse = revenue.relative_standard_error();
  out.epochs = revenue.count();
  if (out.epochs > 0) {
    out.mean_overbooked_mbps /= static_cast<double>(out.epochs);
    out.mean_radio_headroom_mbps /= static_cast<double>(out.epochs);
  }
  out.violation_prob = sim.ledger().violation_probability();
  out.max_drop_fraction = sim.ledger().max_drop_fraction();
  return out;
}

std::vector<ScenarioResult> run_scenarios(const std::vector<ScenarioConfig>& cfgs,
                                          exec::ThreadPool* pool) {
  exec::ThreadPool& p = pool != nullptr ? *pool : exec::ThreadPool::global();
  std::vector<ScenarioResult> out(cfgs.size());
  p.parallel_for(0, cfgs.size(),
                 [&](std::size_t i) { out[i] = run_scenario(cfgs[i]); });
  return out;
}

}  // namespace ovnes::orch
