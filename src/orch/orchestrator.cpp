#include "orch/orchestrator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"

namespace ovnes::orch {

namespace {

/// Tolerance of the over-capacity count, relative to max(1, capacity):
/// the LP solutions behind a reservation meet their rows to ~1e-7.
constexpr double kCapacityTol = 1e-6;

/// Reject a malformed Φτ with std::invalid_argument. `taken` holds the
/// names already submitted to the simulation.
void validate(const slice::SliceRequest& r,
              const std::unordered_set<std::string>& taken) {
  const auto fail = [&r](const std::string& why) {
    throw std::invalid_argument("Simulation::submit: slice '" + r.name +
                                "': " + why);
  };
  if (taken.count(r.name) != 0) fail("already exists");
  if (!std::isfinite(r.tmpl.sla_rate) || r.tmpl.sla_rate <= 0.0) {
    fail("Λ must be finite and positive");
  }
  if (!std::isfinite(r.tmpl.delay_budget) || r.tmpl.delay_budget <= 0.0) {
    fail("∆ must be finite and positive");
  }
  if (r.duration_epochs == 0) fail("L must be at least one epoch");
  if (!std::isfinite(r.declared_mean) || !std::isfinite(r.declared_std) ||
      r.declared_mean < 0.0 || r.declared_std < 0.0 ||
      r.declared_mean > r.tmpl.sla_rate) {
    fail("declared traffic descriptor out of range");
  }
  if (!std::isfinite(r.tmpl.reward)) fail("R must be finite");
  if (!std::isfinite(r.penalty_factor) || r.penalty_factor < 0.0) {
    fail("penalty factor must be finite and non-negative");
  }
}

}  // namespace

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::Benders: return "benders";
    case Algorithm::Kac: return "kac";
    case Algorithm::NoOverbooking: return "no_overbooking";
  }
  return "?";
}

Algorithm algorithm_from_string(const std::string& s) {
  if (s == "benders") return Algorithm::Benders;
  if (s == "kac") return Algorithm::Kac;
  if (s == "no_overbooking") return Algorithm::NoOverbooking;
  throw std::invalid_argument("unknown algorithm: " + s);
}

Simulation::Simulation(topo::Topology topology, std::size_t k_paths,
                       OrchestratorConfig config)
    : topo_(std::move(topology)), catalog_(topo_, k_paths),
      cfg_(std::move(config)), rng_(cfg_.seed),
      capacity_(acrr::Ledger::capacities(topo_)) {
  cfg_.acrr.no_overbooking = cfg_.algorithm == Algorithm::NoOverbooking;
}

void Simulation::submit(slice::SliceRequest request,
                        std::function<traffic::DemandPtr(BsId)> demand_factory) {
  if (request.name.empty()) {
    // names_ only grows, so its size never repeats across epochs.
    request.name = "slice-" + std::to_string(names_.size());
  }
  validate(request, names_);
  names_.insert(request.name);
  pending_.push_back({std::move(request), std::move(demand_factory)});
}

forecast::Forecast Simulation::admission_forecast(
    const slice::SliceRequest& req, const SliceRuntime* runtime) const {
  // Learned forecast once enough monitoring history exists; the declared
  // traffic descriptor is the prior before that (and the only source in
  // oracle mode). λ̂ predicts the per-epoch *peak* over κ samples.
  if (cfg_.learn_forecasts && runtime && !runtime->forecaster.empty() &&
      runtime->forecaster.front()->observations() >= 2 * cfg_.hw_period) {
    forecast::Forecast agg{0.0, forecast::kMinUncertainty};
    for (const auto& f : runtime->forecaster) {
      const forecast::Forecast fc = f->forecast(1);
      agg.value = std::max(agg.value, fc.value);
      agg.uncertainty = std::max(agg.uncertainty, fc.uncertainty);
    }
    return agg;
  }
  const PeakStats ps = gaussian_peak_stats(req.declared_mean, req.declared_std,
                                           cfg_.samples_per_epoch);
  forecast::Forecast fc;
  fc.value = ps.mean;
  fc.uncertainty = std::clamp(ps.stddev / std::max(ps.mean, 1e-9),
                              forecast::kMinUncertainty, 1.0);
  return fc;
}

acrr::AdmissionResult Simulation::dispatch_solver(
    const acrr::AcrrInstance& inst) {
  switch (cfg_.algorithm) {
    case Algorithm::Benders: return acrr::solve_benders(inst, cfg_.benders);
    case Algorithm::Kac: return acrr::solve_kac(inst, cfg_.kac);
    case Algorithm::NoOverbooking:
      return acrr::solve_no_overbooking(inst, cfg_.milp);
  }
  throw std::logic_error("unreachable");
}

EpochReport Simulation::run_epoch() {
  EpochReport report;
  report.epoch = epoch_;
  const std::size_t b_count = topo_.num_bs();

  // ---- 1. Arrivals for this epoch.
  std::vector<PendingRequest> arrivals;
  {
    std::vector<PendingRequest> later;
    for (auto& p : pending_) {
      if (p.request.arrival_epoch <= epoch_) {
        arrivals.push_back(std::move(p));
      } else {
        later.push_back(std::move(p));
      }
    }
    pending_ = std::move(later);
  }

  // ---- 2. AC-RR solve over pinned actives + new arrivals.
  const bool must_solve = !arrivals.empty() ||
                          (cfg_.learn_forecasts && !active_.empty());
  if (must_solve) {
    std::vector<acrr::TenantModel> tenants;
    tenants.reserve(active_.size() + arrivals.size());
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const ActiveSlice& s = active_[i];
      acrr::TenantModel tm;
      tm.request = s.request;
      const forecast::Forecast fc = admission_forecast(s.request, &runtime_[i]);
      tm.lambda_hat = fc.value;
      tm.sigma_hat = fc.uncertainty;
      tm.pinned_cu = s.cu;
      tenants.push_back(std::move(tm));
    }
    for (const PendingRequest& p : arrivals) {
      acrr::TenantModel tm;
      tm.request = p.request;
      const forecast::Forecast fc = admission_forecast(p.request, nullptr);
      tm.lambda_hat = fc.value;
      tm.sigma_hat = fc.uncertainty;
      tenants.push_back(std::move(tm));
    }

    acrr::AcrrConfig acfg = cfg_.acrr;
    acfg.allow_deficit = acfg.allow_deficit || !active_.empty();
    acfg.no_overbooking = cfg_.algorithm == Algorithm::NoOverbooking;
    const acrr::AcrrInstance inst(topo_, catalog_, tenants, acfg);
    const acrr::AdmissionResult result = dispatch_solver(inst);
    report.solve_ms = result.solve_ms;
    report.deficit = result.deficit;
    static_cast<solver::SolveStats&>(report) = result;

    // Update pinned actives with fresh reservations.
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const auto& placement = result.admitted[i];
      if (!placement) continue;  // defensive: pins are structurally kept
      active_[i].cu = placement->cu;
      active_[i].reservation = placement->reservation;
      active_[i].paths.clear();
      for (int v : placement->path_vars) {
        active_[i].paths.push_back(inst.vars()[static_cast<size_t>(v)].path);
      }
    }
    // Admit / reject arrivals. (Index into `result` by the tenant order at
    // solve time — active_ grows as arrivals are admitted below.)
    const std::size_t num_pinned = active_.size();
    for (std::size_t a = 0; a < arrivals.size(); ++a) {
      const std::size_t t = num_pinned + a;
      PendingRequest& p = arrivals[a];
      const auto& placement = result.admitted[t];
      if (!placement) {
        report.rejected.push_back(p.request.name);
        if (cfg_.retry_rejected) {
          p.request.arrival_epoch = epoch_ + 1;
          pending_.push_back(std::move(p));
        }
        continue;
      }
      ActiveSlice s;
      s.request = p.request;
      s.cu = placement->cu;
      s.reservation = placement->reservation;
      for (int v : placement->path_vars) {
        s.paths.push_back(inst.vars()[static_cast<size_t>(v)].path);
      }
      s.remaining_epochs = p.request.duration_epochs;
      // Build runtime: demand, middlebox and forecaster per BS.
      SliceRuntime rt;
      rt.rng = rng_.derive("slice", std::hash<std::string>{}(p.request.name));
      for (std::size_t bi = 0; bi < b_count; ++bi) {
        rt.demand.push_back(p.demand_factory(BsId(static_cast<std::uint32_t>(bi))));
        rt.middlebox.emplace_back(p.request.tmpl.sla_rate,
                                  p.request.tmpl.sla_rate * cfg_.backlog_seconds);
        rt.forecaster.push_back(std::make_unique<forecast::HoltWintersForecaster>(
            cfg_.hw_period));
      }
      report.accepted.push_back(p.request.name);
      runtime_.push_back(std::move(rt));
      active_.push_back(std::move(s));
    }
  }

  // ---- 3. Simulate κ monitoring samples through the data plane.
  const Money reward_before = ledger_.total_reward();
  const Money penalty_before = ledger_.total_penalty();
  const std::size_t violations_before = ledger_.violations();

  // Reservations are constant within the epoch.
  report.usage.reserved = acrr::Ledger(topo_);
  for (const ActiveSlice& s : active_) {
    report.usage.reserved.book(topo_, s.request.tmpl.service, s.cu,
                               s.reservation, s.paths);
  }
  report.over_capacity = report.usage.reserved.over(capacity_, kCapacityTol);
  acrr::Ledger& load = report.usage.load;
  load = acrr::Ledger(topo_);

  std::vector<std::vector<double>> epoch_peak(active_.size());
  for (auto& v : epoch_peak) v.assign(b_count, 0.0);

  for (std::size_t theta = 0; theta < cfg_.samples_per_epoch; ++theta) {
    const std::size_t sample_idx = sample_counter_++;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      ActiveSlice& s = active_[i];
      SliceRuntime& rt = runtime_[i];
      const Money k_share = s.request.penalty_rate() /
                            static_cast<double>(b_count);
      double delivered_sum = 0.0;
      for (std::size_t bi = 0; bi < b_count; ++bi) {
        const double offered = rt.demand[bi]->sample(sample_idx, rt.rng);
        const double z = s.reservation.empty() ? 0.0 : s.reservation[bi];
        const auto mb = rt.middlebox[bi].step(offered, z, cfg_.sample_seconds);
        const double within_sla = std::min(offered, s.request.tmpl.sla_rate);
        // Penalize what the tenant actually loses: SLA-conformant traffic
        // dropped because the overbooked reservation (plus the shaping
        // buffer) could not absorb it. Transient buffering is transparent
        // (§2.1.3) and carries no penalty.
        ledger_.add_sample(within_sla, within_sla - mb.dropped_overflow,
                           k_share);
        epoch_peak[i][bi] = std::max(epoch_peak[i][bi], offered);
        delivered_sum += mb.delivered;
        // Usage accounting (mean over samples).
        const double prbs_per_mbps = 1.0 / topo_.bs(BsId(static_cast<std::uint32_t>(bi))).mbps_per_prb;
        load.radio_prbs[bi] +=
            mb.delivered * prbs_per_mbps / static_cast<double>(cfg_.samples_per_epoch);
        if (bi < s.paths.size() && s.paths[bi]) {
          for (LinkId e : s.paths[bi]->links) {
            load.link_mbps[e.index()] +=
                mb.delivered * topo_.graph.link(e).overhead /
                static_cast<double>(cfg_.samples_per_epoch);
          }
        }
      }
      const auto& svc = s.request.tmpl.service;
      load.cpu_cores[s.cu.index()] +=
          (svc.baseline + svc.cores_per_mbps * delivered_sum) /
          static_cast<double>(cfg_.samples_per_epoch);
    }
  }

  // ---- 4. Rewards, forecaster updates, expiry.
  for (std::size_t i = 0; i < active_.size(); ++i) {
    ledger_.add_reward(active_[i].request.tmpl.reward);
    for (std::size_t bi = 0; bi < b_count; ++bi) {
      runtime_[i].forecaster[bi]->observe(epoch_peak[i][bi]);
    }
  }
  report.active_slices = active_.size();
  report.reward = ledger_.total_reward() - reward_before;
  report.penalty = ledger_.total_penalty() - penalty_before;
  report.net_revenue = report.reward - report.penalty;
  report.violations = ledger_.violations() - violations_before;
  // SLA-violation minutes: each violating (tenant, BS) sample covers one
  // sample interval of wall time.
  report.violation_minutes =
      static_cast<double>(report.violations) * cfg_.sample_seconds / 60.0;
  // Overbooking exposure (SLA sold minus reserved) and remaining radio
  // headroom, both in Mbps.
  for (const ActiveSlice& s : active_) {
    double z_sum = 0.0;
    for (double z : s.reservation) z_sum += z;
    report.overbooked_mbps +=
        static_cast<double>(b_count) * s.request.tmpl.sla_rate - z_sum;
  }
  report.overbooked_mbps = std::max(0.0, report.overbooked_mbps);
  for (std::size_t bi = 0; bi < b_count; ++bi) {
    const auto& bs = topo_.bs(BsId(static_cast<std::uint32_t>(bi)));
    report.radio_headroom_mbps +=
        std::max(0.0, bs.capacity - report.usage.reserved.radio_prbs[bi]) *
        bs.mbps_per_prb;
  }

  // Survivors keep their order in both vectors, so runtime_ stays
  // index-aligned with active_.
  std::vector<ActiveSlice> still;
  std::vector<SliceRuntime> still_runtime;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    ActiveSlice& s = active_[i];
    if (--s.remaining_epochs == 0) {
      report.expired.push_back(s.request.name);
    } else {
      still.push_back(std::move(s));
      still_runtime.push_back(std::move(runtime_[i]));
    }
  }
  active_ = std::move(still);
  runtime_ = std::move(still_runtime);

  ++epoch_;
  return report;
}

std::vector<EpochReport> Simulation::run(std::size_t n) {
  std::vector<EpochReport> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(run_epoch());
  return out;
}

}  // namespace ovnes::orch
