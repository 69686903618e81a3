// Scenario driver for the §4.3 simulation study (Figures 5 and 6).
//
// One scenario = one operator topology + a set of tenant specs (slice type,
// mean-load factor α with λ̄ = α·Λ, traffic variability σ, penalty factor m)
// + one algorithm. All slice requests are issued at the beginning of the
// simulation (§4.3.2) and the run continues "until the mean revenue has a
// standard error lower than 2%". Forecasting uses the converged-oracle mode
// (declared descriptors) — the learning loop itself is exercised by the
// Fig. 8 experiment and the forecasting ablation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "orch/orchestrator.hpp"

namespace ovnes::exec {
class ThreadPool;
}  // namespace ovnes::exec

namespace ovnes::orch {

struct TenantSpec {
  slice::SliceType type = slice::SliceType::eMBB;
  double alpha = 0.5;        ///< λ̄ = α·Λ
  double sigma_ratio = 0.0;  ///< σ = ratio·λ̄ (paper: 0, 1/4, 1/2)
  double penalty_m = 1.0;    ///< m in K = m·R/Λ (paper: 1, 4, 16)
};

struct ScenarioConfig {
  std::string topology = "romanian";
  double scale = 0.04;          ///< generator scale (see DESIGN.md #7)
  /// When set, overrides `topology`/`scale`: the scenario runs on
  /// factory(). Must be a pure deterministic function (scn/ topology
  /// families qualify) so the scenario stays a pure function of its config
  /// — the determinism contract of run_scenarios depends on it.
  std::function<topo::Topology()> topology_factory;
  std::uint64_t seed = 1;
  // Forecast-error stress (scn/ Monte Carlo sweeps): the *realized* demand
  // mean is (1 + forecast_bias)·exp(g·noise − noise²/2)·λ̂ with g a
  // per-tenant standard Gaussian from a derived stream, while the tenant
  // keeps declaring λ̂. bias > 0 means the operator under-forecast — the
  // admission plan overbooks against reality and SLA violation minutes
  // appear. Both zero (default) reproduces the paper's converged-oracle
  // setup byte-for-byte.
  double forecast_bias = 0.0;
  double forecast_noise = 0.0;
  std::size_t k_paths = 3;
  std::vector<TenantSpec> tenants;
  Algorithm algorithm = Algorithm::Benders;
  std::size_t samples_per_epoch = 12;
  std::size_t min_epochs = 6;
  std::size_t max_epochs = 64;
  double target_rse = 0.02;     ///< §4.3.2 stopping rule
  acrr::BendersOptions benders; ///< solver knobs (time budgets etc.)
  solver::MilpOptions milp;
};

/// The solver::SolveStats base merges the counters of the scenario's
/// admission solves (one EpochReport each).
struct ScenarioResult : solver::SolveStats {
  double mean_net_revenue = 0.0;  ///< per-epoch net revenue (paper's metric)
  double rse = 0.0;               ///< achieved relative standard error
  std::size_t epochs = 0;
  std::size_t accepted = 0;
  std::size_t requested = 0;
  double violation_prob = 0.0;    ///< fraction of violating samples
  double max_drop_fraction = 0.0;
  double solve_ms = 0.0;          ///< admission solve wall time
  double deficit = 0.0;
  // Overbooking accounting (EpochReport aggregates).
  double violation_minutes = 0.0;      ///< Σ SLA-violation minutes, all epochs
  double mean_overbooked_mbps = 0.0;   ///< mean per-epoch overbooking exposure
  double mean_radio_headroom_mbps = 0.0;  ///< mean per-epoch radio headroom
};

/// Convenience: n identical tenants.
[[nodiscard]] std::vector<TenantSpec> homogeneous(slice::SliceType type,
                                                  std::size_t n, double alpha,
                                                  double sigma_ratio,
                                                  double penalty_m);

/// β% of type `b`, the rest of type `a` (Fig. 6 mixes).
[[nodiscard]] std::vector<TenantSpec> heterogeneous(
    slice::SliceType a, slice::SliceType b, std::size_t n, double beta_percent,
    double alpha, double sigma_ratio, double penalty_m);

[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& cfg);

/// Evaluate a batch of independent scenarios concurrently on `pool` (the
/// process-global OVNES_THREADS-wide pool when null); results come back in
/// input order. Each scenario is fully self-contained — own topology,
/// simulation, RNG streams — so every result is a pure function of its
/// config: the output is identical for any thread count, only wall-clock
/// changes. This is the scaling path of the fig4–fig8/table1 benches and
/// the planning examples.
[[nodiscard]] std::vector<ScenarioResult> run_scenarios(
    const std::vector<ScenarioConfig>& cfgs, exec::ThreadPool* pool = nullptr);

}  // namespace ovnes::orch
