// AC-RR problem instance (§3): one decision epoch's joint admission-control
// and resource-reservation problem over a concrete topology, path catalog
// and set of tenant requests with forecasts.
//
// The instance pre-computes the decision-variable space:
//  * one candidate variable x_{τ,p} per (tenant, BS, CU, path) tuple,
//    with delay-infeasible paths pruned up front (constraint (7) becomes
//    structural — see DESIGN.md choice #4);
//  * per-variable objective coefficients of the linearized Ψ(x, y)
//    (Problem 2): w = ξK/(Λ−λ̂) with ξ = σ̂·L, and the per-path reward
//    share R/B (choice #3 normalizes rewards/penalties per tenant);
//  * per-tenant CU feasibility (a CU is usable only if *every* BS reaches
//    it within the delay budget — constraint (6) makes acceptance
//    all-or-nothing across BSs).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "slice/slice.hpp"
#include "solver/milp.hpp"
#include "topo/topology.hpp"

namespace ovnes::acrr {

/// Tenant input to one AC-RR solve: the request plus current forecast.
struct TenantModel {
  slice::SliceRequest request;
  Mbps lambda_hat = 0.0;    ///< λ̂: forecast peak demand per BS
  double sigma_hat = 0.01;  ///< σ̂ ∈ (0, 1]
  /// Already-admitted slice that must stay admitted (constraint (13));
  /// when set, holds the CU the slice is currently placed on.
  std::optional<CuId> pinned_cu;
};

/// Relative headroom guard ε of the risk weight: λ̂ is clamped to at most
/// (1 − ε)·Λ and the denominator Λ − λ̂ to at least ε·Λ (λ̂ ≥ Λ means no
/// overbooking headroom).
inline constexpr double kHeadroomGuard = 1e-3;

/// Problem 2's linearized overbooking penalty for one path of a tenant.
struct RiskWeight {
  Mbps lambda_hat = 0.0;  ///< effective λ̂ = clamp(λ̂, 0, Λ − ε·Λ)
  double w = 0.0;         ///< ξ·(K/B)/max(Λ − λ̂_eff, ε·Λ) with ξ = σ̂·L
};

/// The risk weight of a `tmpl` tenant with forecast λ̂, σ̂, penalty factor
/// m (K = m·R/Λ) and risk horizon L epochs, its penalty spread over B base
/// stations. AC-RR and the svc admission hot path both price with it.
[[nodiscard]] RiskWeight risk_weight(const slice::SliceTemplate& tmpl,
                                     Mbps lambda_hat, double sigma_hat,
                                     double penalty_factor,
                                     std::size_t duration_epochs,
                                     std::size_t num_bs);

struct AcrrConfig {
  /// Big-M cost per unit of resource deficit δr/δb/δc (§3.4). Only used
  /// when `allow_deficit`.
  double big_m = 1e5;
  /// Enable the §3.4 relaxation (needed whenever pinned slices exist).
  bool allow_deficit = false;
  /// Baseline mode: reserve the full SLA, z = Λ·x (replaces (9) with
  /// xΛ <= z). Risk vanishes; the problem becomes reward maximization.
  bool no_overbooking = false;
};

/// One decision variable x_{τ,p} after pruning.
struct VarInfo {
  int tenant = 0;             ///< index into AcrrInstance::tenants()
  BsId bs;
  CuId cu;
  const topo::CandidatePath* path = nullptr;
  // Cached model coefficients:
  Mbps lambda_hat = 0.0;   ///< effective λ̂ (RiskWeight::lambda_hat)
  Mbps sla = 0.0;          ///< Λ
  double w = 0.0;          ///< ξK/(Λ−λ̂) >= 0, the y/z objective weight
  Money reward_share = 0.0;///< R/B
  double radio_prbs_per_mbps = 0.0;  ///< η_{τ,b}
};

class AcrrInstance {
 public:
  AcrrInstance(const topo::Topology& topo, const topo::PathCatalog& catalog,
               std::vector<TenantModel> tenants, AcrrConfig config = {});

  [[nodiscard]] const topo::Topology& topology() const { return *topo_; }
  [[nodiscard]] const AcrrConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<TenantModel>& tenants() const { return tenants_; }
  [[nodiscard]] const std::vector<VarInfo>& vars() const { return vars_; }

  /// Variable indices of tenant t (all CUs/BSs/paths).
  [[nodiscard]] const std::vector<int>& tenant_vars(int t) const {
    return tenant_vars_[static_cast<size_t>(t)];
  }
  /// CUs tenant t can be placed on (every BS reachable within ∆τ).
  [[nodiscard]] const std::vector<CuId>& feasible_cus(int t) const {
    return feasible_cus_[static_cast<size_t>(t)];
  }
  /// Variable indices of tenant t on CU c grouped by BS (inner vector =
  /// path alternatives for that BS), empty when the CU is infeasible.
  [[nodiscard]] const std::vector<std::vector<int>>& vars_by_bs(int t, CuId c) const;

  [[nodiscard]] std::size_t num_bs() const { return topo_->num_bs(); }
  [[nodiscard]] std::size_t num_cu() const { return topo_->num_cu(); }
  [[nodiscard]] std::size_t num_links() const { return topo_->graph.num_links(); }

 private:
  const topo::Topology* topo_;
  AcrrConfig config_;
  std::vector<TenantModel> tenants_;
  std::vector<VarInfo> vars_;
  std::vector<std::vector<int>> tenant_vars_;
  std::vector<std::vector<CuId>> feasible_cus_;
  // index [t * num_cu + c] -> per-BS variable groups
  std::vector<std::vector<std::vector<int>>> by_bs_;
  std::vector<std::vector<int>> empty_group_;
};

/// Outcome of one AC-RR solve.
struct Placement {
  CuId cu;                       ///< chosen computing unit
  std::vector<int> path_vars;    ///< one VarInfo index per BS (size = B)
  std::vector<Mbps> reservation; ///< z per BS, aligned with path_vars
};

/// Fingerprint of everything that determines Benders-cut validity and the
/// master's *column* layout for `inst`: the decision-variable list (tenant
/// block structure, per-var λ̂/Λ/w coefficients, path identity), per-tenant
/// feasible-CU sets, topology capacities, and the slave-shaping config
/// (big-M relaxation on/off). Two instances with equal fingerprints may
/// safely share a solver::CutPool: every pooled cut row references master
/// columns that exist with the same meaning, and the slave value function
/// the cuts under-approximate is identical. Pinning (TenantModel::pinned_cu)
/// is deliberately EXCLUDED — cuts are valid at any activation vector, and
/// pins only restrict the master's feasible set — so a pool survives the
/// arrival→pinned transition of the orchestrator's retry loop.
[[nodiscard]] std::uint64_t instance_fingerprint(const AcrrInstance& inst);

/// Solver counters come from the solver::SolveStats base (zero for KAC;
/// Benders sums them over its master and slave solves).
struct AdmissionResult : solver::SolveStats {
  /// Per tenant: placement if accepted.
  std::vector<std::optional<Placement>> admitted;
  double objective = 0.0;       ///< Ψ value achieved (lower = better)
  double bound = 0.0;           ///< certified lower bound on the optimum
  int iterations = 0;           ///< Benders/KAC outer iterations
  double solve_ms = 0.0;
  bool optimal = false;
  /// §3.4 deficit (big-M) usage, nonzero only under forced admission.
  double deficit = 0.0;
  long master_pivots = 0;    ///< master simplex iterations, all solves summed

  [[nodiscard]] std::size_t num_accepted() const;
  /// Σ rewards of accepted tenants (per epoch).
  [[nodiscard]] Money accepted_reward(const AcrrInstance& inst) const;
};

}  // namespace ovnes::acrr
