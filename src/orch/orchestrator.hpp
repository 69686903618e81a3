// End-to-end orchestrator (OVNES, Fig. 2) and the epoch-driven simulation
// engine that drives it.
//
// The control loop reproduces §2.2.2: at each decision epoch the AC-RR
// engine (Benders / KAC / no-overbooking) decides admissions, CU selection
// and reservations from the current forecasts; during the epoch the
// monitoring function collects κ load samples per (tenant, BS); the
// per-epoch peak λ(t) = max_θ λ(θ) feeds the Holt-Winters forecasters that
// drive the next decision. Already-admitted slices are pinned (constraint
// (13)) with the §3.4 big-M relaxation absorbing forecast-driven deficits.
//
// The same engine simulates the data plane: per-sample tenant loads pass
// through a SplitTcpMiddlebox per (tenant, BS) (§2.1.3) and the realized
// rewards/penalties accrue in a RevenueLedger using the paper's
// calibration K = m·R/Λ.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "acrr/benders.hpp"
#include "acrr/kac.hpp"
#include "common/rng.hpp"
#include "dataplane/middlebox.hpp"
#include "forecast/smoothing.hpp"
#include "orch/controllers.hpp"
#include "orch/slice_manager.hpp"
#include "solver/cut_pool.hpp"
#include "slice/slice.hpp"
#include "topo/generators.hpp"
#include "traffic/demand.hpp"

namespace ovnes::orch {

enum class Algorithm { Benders, Kac, NoOverbooking };

[[nodiscard]] const char* to_string(Algorithm a);
[[nodiscard]] Algorithm algorithm_from_string(const std::string& s);

struct OrchestratorConfig {
  Algorithm algorithm = Algorithm::Benders;
  std::size_t samples_per_epoch = 12;   ///< κ (§5: 12 × 5 min = 1 h epochs)
  double sample_seconds = 300.0;
  /// Middlebox buffer depth in seconds at the SLA rate: SLA-conformant
  /// traffic above the reservation is shaped and queued (§2.1.3); only
  /// sustained overload overflows into drops — which is what the paper's
  /// SLA-violation statistics count.
  double backlog_seconds = 60.0;
  /// Use per-(tenant, BS) Holt-Winters forecasters fed by monitoring; when
  /// false, forecasts come from the tenants' declared descriptors only
  /// (the converged-oracle mode used by the Fig. 5/6 simulations).
  bool learn_forecasts = true;
  std::size_t hw_period = 24;           ///< season length in epochs (1 day)
  /// Rejected requests retry at the next epoch instead of being dropped.
  bool retry_rejected = false;
  acrr::AcrrConfig acrr;                ///< shared model knobs
  acrr::BendersOptions benders;
  acrr::KacOptions kac;
  solver::MilpOptions milp;             ///< for the no-overbooking baseline
  std::uint64_t seed = 1;
};

/// Per-domain reservation/utilization snapshot for one epoch (Fig. 8 b-d).
struct DomainUsage {
  std::vector<double> radio_reserved;   ///< PRBs per BS
  std::vector<double> radio_load;      ///< PRBs per BS (delivered traffic)
  std::vector<double> link_reserved;   ///< Mb/s per link
  std::vector<double> link_load;
  std::vector<double> cpu_reserved;    ///< cores per CU
  std::vector<double> cpu_load;
};

/// The solver::SolveStats base carries this epoch's admission-solve
/// counters (see acrr::AdmissionResult).
struct EpochReport : solver::SolveStats {
  std::size_t epoch = 0;
  std::vector<std::string> accepted;    ///< newly admitted slice names
  std::vector<std::string> rejected;    ///< requests denied this epoch
  std::vector<std::string> expired;
  Money reward = 0.0;                   ///< rewards accrued this epoch
  Money penalty = 0.0;
  Money net_revenue = 0.0;              ///< reward - penalty (this epoch)
  std::size_t active_slices = 0;
  std::size_t violations = 0;           ///< violating samples this epoch
  /// SLA-violation minutes this epoch: Σ over violating (tenant, BS)
  /// monitoring samples of the sample interval, in minutes.
  double violation_minutes = 0.0;
  /// Σ over active slices of (B·Λ − Σ_b z_b): SLA bitrate sold beyond what
  /// is reserved — the overbooking exposure this epoch (Mbps).
  double overbooked_mbps = 0.0;
  /// Σ_b unreserved radio capacity (Mbps): headroom left for overbooking.
  double radio_headroom_mbps = 0.0;
  double solve_ms = 0.0;
  double deficit = 0.0;
  /// Southbound enforcement calls the domain controllers refused. Always 0
  /// unless the §3.4 deficit is active (leased/federated capacity is not
  /// modelled in the controllers' physical inventories).
  std::size_t enforcement_failures = 0;
  DomainUsage usage;
};

/// One tenant's live state inside the simulation.
struct ActiveSlice {
  slice::SliceRequest request;
  CuId cu;
  /// Chosen route per BS (points into the simulation's stable PathCatalog).
  std::vector<const topo::CandidatePath*> paths;
  std::vector<Mbps> reservation;        ///< z per BS
  std::size_t remaining_epochs = 0;
};

class Simulation {
 public:
  Simulation(topo::Topology topology, std::size_t k_paths,
             OrchestratorConfig config);

  /// Queue a slice request; `demand_factory(bs)` builds the per-BS offered
  /// load process (invoked once per BS at admission time). The request is
  /// validated by the slice manager; throws std::invalid_argument on
  /// malformed Φτ.
  void submit(slice::SliceRequest request,
              std::function<traffic::DemandPtr(BsId)> demand_factory);

  /// Run one decision epoch end-to-end; returns the report.
  EpochReport run_epoch();

  /// Run `n` epochs, returning all reports.
  std::vector<EpochReport> run(std::size_t n);

  [[nodiscard]] const slice::RevenueLedger& ledger() const { return ledger_; }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }
  [[nodiscard]] const std::vector<ActiveSlice>& active() const { return active_; }
  [[nodiscard]] std::size_t current_epoch() const { return epoch_; }
  /// Cumulative net revenue (Fig. 8a).
  [[nodiscard]] Money cumulative_net_revenue() const { return ledger_.net_revenue(); }

  /// Control-plane components (read access for inspection/tests).
  [[nodiscard]] const SliceManager& slice_manager() const { return manager_; }
  [[nodiscard]] const RanController& ran_controller() const { return ran_; }
  [[nodiscard]] const TransportController& transport_controller() const {
    return transport_;
  }
  [[nodiscard]] const CloudController& cloud_controller() const { return cloud_; }

 private:
  struct PendingRequest {
    slice::SliceRequest request;
    std::function<traffic::DemandPtr(BsId)> demand_factory;
  };
  struct SliceRuntime {
    std::vector<traffic::DemandPtr> demand;  ///< per BS
    std::vector<dataplane::SplitTcpMiddlebox> middlebox;
    std::vector<forecast::ForecasterPtr> forecaster;  ///< per BS
    RngStream rng{0};
  };

  [[nodiscard]] forecast::Forecast admission_forecast(
      const slice::SliceRequest& req, const SliceRuntime* runtime) const;
  acrr::AdmissionResult dispatch_solver(const acrr::AcrrInstance& inst,
                                        bool any_pinned);
  /// Push one slice's reservations down to the RAN/transport/cloud
  /// controllers; returns the number of refused calls.
  std::size_t enforce_placement(const ActiveSlice& s);

  topo::Topology topo_;
  topo::PathCatalog catalog_;
  OrchestratorConfig cfg_;
  RngStream rng_;
  SliceManager manager_;
  RanController ran_;
  TransportController transport_;
  CloudController cloud_;

  /// Cross-epoch cut pool for the single-tree Benders solver
  /// (acrr::BendersOptions::single_tree), lazily created: consecutive
  /// epochs whose instances share an acrr::instance_fingerprint re-price
  /// rejected candidates from pooled cuts instead of fresh slave solves
  /// (EpochReport::cuts_from_pool). A fingerprint change — different tenant
  /// set, forecasts or capacities — clears the pool first, so reuse is
  /// always sound. Unused by the multi-tree loop or when benders.cut_pool
  /// is already caller-supplied.
  std::unique_ptr<solver::CutPool> epoch_pool_;
  std::uint64_t epoch_pool_fingerprint_ = 0;

  std::vector<PendingRequest> pending_;
  std::vector<ActiveSlice> active_;
  std::vector<SliceRuntime> runtime_;  ///< index-aligned with active_
  slice::RevenueLedger ledger_;
  std::size_t epoch_ = 0;
  std::size_t sample_counter_ = 0;
};

}  // namespace ovnes::orch
