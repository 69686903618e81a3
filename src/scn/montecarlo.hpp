// Monte Carlo SLA-risk sweeps: thousands of independent admission scenarios
// fanned out over the exec pool. Each lane builds scenario i's config and
// runs it through orch::run_scenario.
//
// Each scenario i draws its instance (tenant count, per-tenant load factors
// from a heavy-tailed law, slice-type mix, forecast error) from RngStream
// children keyed by ("scenario", i) off the sweep seed — so scenario i's
// configuration is a pure function of (config, i), independent of which
// lane builds it, sweep order and OVNES_THREADS (common/rng.hpp
// splittability contract). Results are stored by scenario index; the
// aggregate (risk quantiles plus a digest over the canonical per-scenario
// rows) is therefore byte-stable at any thread count — bench_regression
// pins it as a correctness field.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "orch/scenario.hpp"
#include "scn/traffic.hpp"

namespace ovnes::exec {
class ThreadPool;
}  // namespace ovnes::exec

namespace ovnes::scn {

struct SlaRiskConfig {
  std::size_t scenarios = 1000;
  std::uint64_t seed = 7;
  /// Instance shape: a mini topology per scenario (num_bs BSs, one edge CU
  /// sized for contention, one core CU) unless topology_factory is set —
  /// then factory(scenario_index) builds it (must be pure; the scn metro /
  /// WAN families qualify).
  std::size_t num_bs = 5;
  double edge_cores_per_bs = 10.0;  ///< < 20: compute is contended
  std::function<topo::Topology(std::size_t)> topology_factory;
  std::size_t k_paths = 2;
  // Tenant population draws.
  std::size_t tenants_min = 6;
  std::size_t tenants_max = 12;
  HeavyTailConfig load_tail;     ///< per-tenant load factor α = base·scale
  double base_alpha = 0.15;      ///< α floor/scale (λ̄ = α·Λ)
  double alpha_cap = 0.9;
  double sigma_ratio = 0.25;
  double penalty_m = 4.0;
  // Forecast-error stress applied to every scenario.
  ForecastErrorConfig forecast;
  // Solver + simulation budget (kept small: thousands of scenarios).
  orch::Algorithm algorithm = orch::Algorithm::Kac;
  std::size_t samples_per_epoch = 8;
  std::size_t min_epochs = 2;
  std::size_t max_epochs = 4;
};

struct SlaRiskResult {
  std::size_t scenarios = 0;
  double accept_rate = 0.0;          ///< Σ accepted / Σ requested
  double mean_net_revenue = 0.0;     ///< mean of per-scenario means
  double revenue_p05 = 0.0;          ///< revenue value-at-risk (5th pct)
  double revenue_p50 = 0.0;
  double violation_prob_mean = 0.0;
  double violation_minutes_mean = 0.0;
  double violation_minutes_p95 = 0.0;
  double violation_minutes_max = 0.0;
  double mean_overbooked_mbps = 0.0;
  std::uint64_t rows_digest = 0;     ///< FNV over canonical per-scenario rows
  /// Sweep wall time, including building each scenario's config on the
  /// lanes (not digest-covered).
  double wall_sec = 0.0;
};

/// Run the sweep on `pool` (global pool when null). Deterministic up to
/// wall_sec; see the file comment.
[[nodiscard]] SlaRiskResult run_sla_risk_sweep(const SlaRiskConfig& cfg,
                                               exec::ThreadPool* pool = nullptr);

}  // namespace ovnes::scn
