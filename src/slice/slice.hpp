// Network-slice service model (§2.2.1) and the Table 1 slice templates.
//
// A slice request Φτ = {sτ, ∆τ, Λτ, Lτ} carries: the service model sτ
// (linear load→compute map with baseline aτ and slope bτ, Eq. 2), the
// end-to-end latency tolerance ∆τ, the per-BS SLA bitrate Λτ, and the
// duration Lτ in decision epochs. Accepting the request turns Φτ into an
// SLA; Rτ is the per-epoch subscription reward and Kτ the penalty rate
// paid on SLA violations (§3.1), with the paper's calibration K = m·R/Λ.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace ovnes::slice {

enum class SliceType { eMBB, mMTC, uRLLC };

[[nodiscard]] const char* to_string(SliceType t);
[[nodiscard]] SliceType slice_type_from_string(const std::string& s);

/// Linear service model sτ: cpu(load) = a + b·load  (Eq. 2; learnt during
/// the offline on-boarding phase, footnote 9).
struct ServiceModel {
  Cores baseline = 0.0;        ///< aτ: VS operating system, idle users, ...
  double cores_per_mbps = 0.0; ///< bτ: compute per unit of served bitrate
};

/// One row of Table 1 ("End-to-end network slice template").
struct SliceTemplate {
  SliceType type = SliceType::eMBB;
  Money reward = 1.0;       ///< R: per-epoch subscription fee
  Micros delay_budget = 30000.0;  ///< ∆: tolerance between VS and any BS
  Mbps sla_rate = 50.0;     ///< Λ: service bitrate at each radio site
  ServiceModel service;     ///< sτ = {a, b}
};

/// Table 1 values. eMBB: R=1, ∆=30 ms, Λ=50, s={0,0};
/// mMTC: R=1+b=3, ∆=30 ms, Λ=10, s={0,2} (deterministic load);
/// uRLLC: R=2+b=2.2, ∆=5 ms, Λ=25, s={0,0.2}.
[[nodiscard]] SliceTemplate standard_template(SliceType type);

/// A tenant's slice request Φτ as submitted to the orchestrator
/// (orch::Simulation::submit validates it).
struct SliceRequest {
  TenantId tenant;
  std::string name;
  SliceTemplate tmpl;
  std::size_t duration_epochs = 20;  ///< Lτ
  std::size_t arrival_epoch = 0;     ///< epoch in which the request is issued
  double penalty_factor = 1.0;       ///< m in K = m·R/Λ (§4.3.2)
  /// Tenant-declared traffic descriptor (per BS, mean/std of the offered
  /// load): the admission prior used before monitoring history exists.
  Mbps declared_mean = 0.0;
  Mbps declared_std = 0.0;

  /// Penalty rate Kτ = m·R/Λ: failing to serve a fraction f of the SLA for
  /// one epoch costs f·m·R (m=1 ⇒ 10% shortfall costs 10% of the reward).
  [[nodiscard]] Money penalty_rate() const {
    if (tmpl.sla_rate <= 0.0) throw std::logic_error("penalty_rate: Λ <= 0");
    return penalty_factor * tmpl.reward / tmpl.sla_rate;
  }
};

/// Revenue bookkeeping for one simulation run: rewards accrued per epoch by
/// active slices minus realized SLA-violation penalties.
class RevenueLedger {
 public:
  /// Record one served epoch of an accepted slice.
  void add_reward(Money reward) { reward_ += reward; ++slice_epochs_; }

  /// Record one monitoring sample: demand within SLA vs. reservation.
  /// `demand` is the offered load (already capped at Λ by the caller if
  /// desired), `reserved` the z reservation, `penalty_rate` Kτ.
  void add_sample(Mbps demand_within_sla, Mbps reserved, Money penalty_rate);

  [[nodiscard]] Money total_reward() const { return reward_; }
  [[nodiscard]] Money total_penalty() const { return penalty_; }
  [[nodiscard]] Money net_revenue() const { return reward_ - penalty_; }
  [[nodiscard]] std::size_t samples() const { return samples_; }
  [[nodiscard]] std::size_t violations() const { return violations_; }
  [[nodiscard]] std::size_t slice_epochs() const { return slice_epochs_; }
  /// Fraction of monitoring samples in which the SLA was violated.
  [[nodiscard]] double violation_probability() const;
  /// Largest observed dropped-traffic fraction (shortfall / demand).
  [[nodiscard]] double max_drop_fraction() const { return max_drop_frac_; }

 private:
  Money reward_ = 0.0;
  Money penalty_ = 0.0;
  std::size_t samples_ = 0;
  std::size_t violations_ = 0;
  std::size_t slice_epochs_ = 0;
  double max_drop_frac_ = 0.0;
};

}  // namespace ovnes::slice
