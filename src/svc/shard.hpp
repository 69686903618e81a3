// One shard of the online admission-control service: the slice of tenants
// whose ids hash to this shard, the scaled-down data plane they compete
// for, and the incremental LP machinery that prices an admission in
// microseconds instead of a full AC-RR solve.
//
// Sharding model (docs/service.md): the service splits the data plane into
// `num_shards` equal fractions — every resource capacity (radio PRBs, CU
// cores, link Mb/s) is scaled by 1/num_shards — and routes tenant τ to
// shard hash(τ) mod num_shards. Shards therefore never share capacity and
// never need locks: each is touched by exactly one worker lane at a time.
//
// Hot path (admit): the shard keeps ONE LpSession over a tiny base model
// with a reservation variable z_b per base station, all pinned to [0, 0].
// An arrival opens a push() frame, raises the z bounds to the candidate's
// residual radio capacity, sets the objective to −w with w the tenant's
// acrr::risk_weight (Problem 2's linearized overbooking penalty, the one
// AC-RR prices with), appends the CPU and transport-link coupling rows as
// frame cuts against residual capacities, and re-solves — dual simplex
// from the incumbent basis, a handful of pivots. The request is admitted
// iff the risk-adjusted net value
//     value = R − w·Σ_b (Λ − z*_b)
// clears the configured margin; pop() then rewinds the model either way and
// an admit books the reservation into the shard's acrr::Ledger. The
// one model difference from the AC-RR slave is the reservation floor: z_b
// may fall to 0 here, while the slave keeps z ≥ λ̂ (docs/service.md).
// An arrival with an unknown slice type, a non-finite λ̂, σ̂ or penalty
// factor, or a negative penalty factor is rejected as RejectedInvalid
// before any of this runs; so is a DemandUpdate whose observed peak is not
// finite.
//
// Tenant records live in plain vectors indexed by slot: a freed slot is
// reused newest-first, and the re-solve and the repack walk tenants in
// slot order. The per-arrival scratch is sized once at construction; the
// CPU and link rows of each arrival still allocate their coefficient
// vectors (docs/service.md "memory model").
//
// Slow path (end_epoch): demand updates accumulate forecast drift; past
// ShardConfig::drift_threshold (or every full_resolve_every epochs) the
// shard re-optimizes ALL its tenants jointly with the single-tree
// Branch-and-Benders-cut solver, each re-solve from scratch (no cut
// carries over from the last one). Shards too large for an exact
// re-solve fall back to a deterministic greedy repack in slot order.
#pragma once

#include <cstdint>
#include <vector>

#include "acrr/instance.hpp"
#include "acrr/ledger.hpp"
#include "solver/lp_session.hpp"
#include "svc/events.hpp"
#include "svc/id_map.hpp"
#include "topo/topology.hpp"

namespace ovnes::svc {

struct ShardConfig {
  /// Fraction of every base-topology capacity this shard owns (the service
  /// sets 1/num_shards; standalone shards in tests keep 1).
  double capacity_fraction = 1.0;
  /// Admit iff value = R − w·Σ(Λ − z*) ≥ admit_margin (per epoch, money).
  double admit_margin = 0.0;
  /// Relative forecast drift Σ|λ̂ − λ̂_admitted| / Σλ̂_admitted that arms a
  /// full shard re-solve at the next epoch tick.
  double drift_threshold = 0.25;
  /// Also re-solve every N epochs regardless of drift; 0 = drift-only.
  int full_resolve_every = 0;
  /// Largest shard population the exact Benders re-solve is attempted on;
  /// larger shards take the greedy repack instead.
  std::size_t max_resolve_tenants = 48;
  /// Branch-and-bound node budget of a shard re-solve. A *node* budget, not
  /// a wall-clock one: termination must not depend on timing or the replay
  /// guarantee across OVNES_THREADS breaks.
  long resolve_max_nodes = 4000;
  /// Hard cap on live tenants per shard; arrivals beyond it are shed with
  /// DecisionKind::RejectedFull. 0 = unbounded.
  std::size_t max_tenants = 0;
  /// Wall-clock minutes one DemandUpdate sample covers (SLA-violation
  /// minutes accrue in these units).
  double update_interval_min = 1.0;
};

enum class DecisionKind : std::uint8_t {
  Admitted,
  RejectedProfit,     ///< LP solved; risk-adjusted value below the margin
  RejectedCapacity,   ///< no CU with residual cores for the service baseline
  RejectedNoRoute,    ///< no CU delay-feasible from every BS (structural)
  RejectedDuplicate,  ///< tenant id already live on this shard
  RejectedFull,       ///< shard at max_tenants (overload shedding)
  RejectedSolver,     ///< admission LP did not solve to optimality
  RejectedInvalid,    ///< unknown slice type, non-finite forecast, penalty
                      ///< or observed peak
  Departed,
  Updated,
  Expired,  ///< duration_epochs elapsed at an epoch tick
  Unknown,  ///< departure/update for a tenant this shard does not hold
};

[[nodiscard]] const char* to_string(DecisionKind k);

/// One entry of the service's decision log. Every field except latency_us
/// is a pure function of the accepted event log (the determinism
/// contract); latency_us is measured wall time and excluded from the
/// canonical log rendering.
struct Decision {
  std::uint64_t seq = 0;
  std::uint64_t tenant_id = 0;
  EventType event = EventType::EpochTick;
  std::uint32_t shard = 0;
  DecisionKind kind = DecisionKind::Unknown;
  double z_total = 0.0;     ///< Σ_b z (granted reservation, Mbps)
  double value = 0.0;       ///< admission: net value; update: violated-BS fraction
  double latency_us = 0.0;  ///< decision wall time (not part of the log)
};

/// Monotonic per-shard counters (gauges live on Shard accessors). The
/// solver::SolveStats base merges the counters of the Benders re-solves.
struct ShardStats : solver::SolveStats {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_profit = 0;
  std::uint64_t rejected_capacity = 0;
  std::uint64_t rejected_no_route = 0;
  std::uint64_t rejected_duplicate = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_solver = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t departures = 0;
  std::uint64_t updates = 0;
  std::uint64_t expiries = 0;
  std::uint64_t unknown_tenant = 0;
  // Epoch re-optimization machinery.
  std::uint64_t full_resolves = 0;    ///< exact Benders shard re-solves
  std::uint64_t greedy_repacks = 0;   ///< oversize fallback repacks
  /// Always 0; kept only because bench_e2e/ reads it.
  std::uint64_t pool_resets = 0;
  // SLA accounting under overbooking.
  double violation_minutes = 0.0;      ///< Σ tenant-minutes with demand > z
  std::uint64_t violation_samples = 0; ///< DemandUpdates that hit ≥ 1 BS

  void accumulate(const ShardStats& o);
};

/// \brief One lock-free-by-ownership shard: tenants, committed resources
/// and the incremental admission LP.
/// Never copied or moved (TypeInfo holds pointers into the member catalog).
class Shard {
 public:
  /// `base` is the full data plane; the shard copies it with every
  /// capacity scaled by cfg.capacity_fraction.
  Shard(const topo::Topology& base, ShardConfig cfg, std::uint32_t id);
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Process one routed event (arrival/departure/update). Serial per
  /// shard; the caller owns cross-shard ordering.
  [[nodiscard]] Decision handle(const Event& e);

  /// Close the epoch: age fixed-duration tenants out (one Expired decision
  /// each, appended to `out`), then re-optimize if drift or the periodic
  /// schedule demands it.
  void end_epoch(std::size_t epoch, std::vector<Decision>& out);

  // ------------------------------------------------------------- introspection
  [[nodiscard]] const ShardStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t num_tenants() const { return tenants_.size(); }
  /// Tenant slots ever created, live or free; churn reuses free slots.
  [[nodiscard]] std::size_t slot_capacity() const { return entries_.size(); }
  [[nodiscard]] bool has_tenant(std::uint64_t id) const {
    return tenants_.find(id) != IdMap::kMissing;
  }
  /// Σ_b z_b for a live tenant, −1 when absent.
  [[nodiscard]] double reservation_total(std::uint64_t id) const;
  /// Σ over live tenants of (B·Λ − Σ_b z_b): SLA bitrate sold but not
  /// reserved — the shard's current overbooking exposure (Mbps).
  [[nodiscard]] double overbooked_mbps() const;
  /// Σ_b unreserved radio capacity, in Mbps (overbooking headroom left).
  [[nodiscard]] double radio_headroom_mbps() const;
  [[nodiscard]] double cpu_headroom_cores() const;

  [[nodiscard]] const solver::LpSession::Stats& session_stats() const {
    return session_.stats();
  }
  [[nodiscard]] const topo::Topology& topology() const { return topo_; }

 private:
  /// Tenant record of one slot; a reused slot is overwritten whole.
  struct TenantEntry {
    std::uint64_t id = 0;
    slice::SliceType type = slice::SliceType::eMBB;
    double lambda_hat = 0.0;       ///< current forecast (per BS, Mbps)
    double sigma_hat = 0.0;
    double lambda_admitted = 0.0;  ///< forecast at the last (re-)optimization
    double penalty_factor = 1.0;
    std::uint32_t cu = 0;          ///< placed computing unit (index)
    std::uint32_t duration = 0;    ///< requested L (epochs), 0 = open-ended
    std::uint32_t remaining = 0;   ///< epochs left, 0 = open-ended
    bool live = false;             ///< false once departed or expired
  };

  /// Per-slice-type structures precomputed at construction.
  struct TypeInfo {
    slice::SliceTemplate tmpl;
    std::vector<std::uint32_t> feasible_cus;  ///< every BS within ∆
    /// [cu * B + b] -> delay-cheapest path, nullptr when infeasible.
    std::vector<const topo::CandidatePath*> path;
  };

  Decision admit(const Event& e);
  Decision depart(const Event& e);
  Decision update(const Event& e);
  /// A decision of kind `kind` on `e`'s tenant, event type and this shard.
  [[nodiscard]] Decision decision(const Event& e, DecisionKind kind) const;

  /// Price a `ti`-shaped tenant with risk weight `w` placed on `cu`: open
  /// a frame, stage the candidate, solve, write the reservation clamped to
  /// [0, Λ] into z[0..B), pop. False (z untouched) when the LP is not
  /// Optimal.
  bool price(const TypeInfo& ti, std::uint32_t cu, double w, double* z);
  /// Raise z bounds/costs and append the CPU + link coupling rows as frame
  /// cuts for a `ti`-shaped tenant placed on `cu`; caller opened the frame.
  void stage_candidate(const TypeInfo& ti, std::uint32_t cu, double w);
  /// Residual radio capacity of BS b in Mbps.
  [[nodiscard]] double radio_residual_mbps(std::size_t b) const;
  void release_tenant(std::uint32_t slot);
  void benders_resolve();
  void greedy_repack();

  /// Σ_b z_b of the reservation in `slot`, summed in BS order.
  [[nodiscard]] double z_total(std::uint32_t slot) const;
  [[nodiscard]] double* zrow(std::uint32_t slot) {
    return z_store_.data() + static_cast<std::size_t>(slot) * num_bs_;
  }
  [[nodiscard]] const double* zrow(std::uint32_t slot) const {
    return z_store_.data() + static_cast<std::size_t>(slot) * num_bs_;
  }

  ShardConfig cfg_;
  std::uint32_t id_;
  topo::Topology topo_;        ///< scaled private copy of the data plane
  topo::PathCatalog catalog_;  ///< k = 1: ONE canonical path per (b, c)
  std::size_t num_bs_;
  std::size_t num_cu_;
  TypeInfo types_[3];          ///< indexed by SliceType

  solver::LpSession session_;  ///< base model: z_b per BS, pinned [0, 0]

  // Tenant state: slots + id index + flat reservation rows.
  std::vector<TenantEntry> entries_;      ///< [slot], live or free
  std::vector<std::uint32_t> free_slots_; ///< free slots, newest-freed last
  std::vector<double> z_store_;           ///< [slot * B + b]
  IdMap tenants_;              ///< tenant id -> slot

  // Per-arrival scratch, sized once at construction.
  std::vector<char> link_seen_;            ///< [e], all 0 between calls
  std::vector<std::uint32_t> link_order_;  ///< touched links, first-touch order
  std::vector<double> z_scratch_;          ///< [b], the priced reservation

  // The shard's whole "model" between solves: what its live tenants have
  // reserved, against the scaled capacities it owns.
  acrr::Ledger committed_;
  acrr::Ledger budget_;

  // Drift tracking for the re-solve trigger.
  double drift_abs_ = 0.0;            ///< Σ |λ̂ − λ̂_admitted| over live tenants
  double lambda_admitted_sum_ = 0.0;  ///< Σ λ̂_admitted over live tenants

  ShardStats stats_;
};

}  // namespace ovnes::svc
