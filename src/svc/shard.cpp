#include "svc/shard.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>
#include <string>

#include "acrr/benders.hpp"

namespace ovnes::svc {

namespace {

constexpr double kTol = 1e-9;

/// Private scaled copy of the data plane: same nodes, same wiring, every
/// capacity (PRBs, cores, link Mb/s) multiplied by `fraction`. Shards
/// partition capacity instead of locking it.
topo::Topology make_scaled(const topo::Topology& base, double fraction) {
  topo::Topology t;
  t.name = base.name + "#shard";
  for (const topo::Node& n : base.graph.nodes()) {
    t.graph.add_node(n.kind, n.x, n.y, n.name);
  }
  for (const topo::Link& l : base.graph.links()) {
    t.graph.add_link(l.a, l.b, l.capacity * fraction, l.tech, l.length,
                     l.overhead, l.extra_delay);
  }
  for (const topo::BaseStation& b : base.base_stations()) {
    t.add_bs(b.node, b.capacity * fraction, b.mbps_per_prb, b.name);
  }
  for (const topo::ComputeUnit& c : base.compute_units()) {
    t.add_cu(c.node, c.capacity * fraction, c.is_edge, c.name);
  }
  return t;
}

/// Base admission model: one reservation variable z_b per BS, pinned to
/// [0, 0] with zero cost. Every admission probe opens a frame on top.
solver::LpModel make_base_model(std::size_t num_bs) {
  solver::LpModel m;
  for (std::size_t b = 0; b < num_bs; ++b) {
    m.add_variable("z" + std::to_string(b), 0.0, 0.0, 0.0);
  }
  return m;
}

}  // namespace

const char* to_string(DecisionKind k) {
  switch (k) {
    case DecisionKind::Admitted: return "admit";
    case DecisionKind::RejectedProfit: return "rej-profit";
    case DecisionKind::RejectedCapacity: return "rej-capacity";
    case DecisionKind::RejectedNoRoute: return "rej-no-route";
    case DecisionKind::RejectedDuplicate: return "rej-dup";
    case DecisionKind::RejectedFull: return "rej-full";
    case DecisionKind::RejectedSolver: return "rej-solver";
    case DecisionKind::RejectedInvalid: return "rej-invalid";
    case DecisionKind::Departed: return "depart";
    case DecisionKind::Updated: return "update";
    case DecisionKind::Expired: return "expire";
    case DecisionKind::Unknown: return "unknown";
  }
  return "?";
}

void ShardStats::accumulate(const ShardStats& o) {
  arrivals += o.arrivals;
  admitted += o.admitted;
  rejected_profit += o.rejected_profit;
  rejected_capacity += o.rejected_capacity;
  rejected_no_route += o.rejected_no_route;
  rejected_duplicate += o.rejected_duplicate;
  rejected_full += o.rejected_full;
  rejected_solver += o.rejected_solver;
  rejected_invalid += o.rejected_invalid;
  departures += o.departures;
  updates += o.updates;
  expiries += o.expiries;
  unknown_tenant += o.unknown_tenant;
  full_resolves += o.full_resolves;
  greedy_repacks += o.greedy_repacks;
  pool_resets += o.pool_resets;
  merge(o);
  violation_minutes += o.violation_minutes;
  violation_samples += o.violation_samples;
}

Shard::Shard(const topo::Topology& base, ShardConfig cfg, std::uint32_t id)
    : cfg_(cfg),
      id_(id),
      topo_(make_scaled(base, cfg.capacity_fraction)),
      catalog_(topo_, 1),
      num_bs_(topo_.num_bs()),
      num_cu_(topo_.num_cu()),
      session_(make_base_model(topo_.num_bs())),
      tenants_(64),
      link_seen_(topo_.graph.num_links(), 0),
      z_scratch_(num_bs_, 0.0),
      committed_(topo_),
      budget_(acrr::Ledger::capacities(topo_)) {
  link_order_.reserve(topo_.graph.num_links());

  // Per-type structures: the delay-cheapest path per (b, c) and the CU set
  // reachable from EVERY BS within the delay budget (constraint (6): an
  // admission covers all base stations or none).
  const slice::SliceType kinds[3] = {slice::SliceType::eMBB,
                                     slice::SliceType::mMTC,
                                     slice::SliceType::uRLLC};
  for (std::size_t k = 0; k < 3; ++k) {
    TypeInfo& ti = types_[k];
    ti.tmpl = slice::standard_template(kinds[k]);
    ti.path.assign(num_cu_ * num_bs_, nullptr);
    for (std::size_t c = 0; c < num_cu_; ++c) {
      bool all_ok = true;
      for (std::size_t b = 0; b < num_bs_ && all_ok; ++b) {
        const auto& paths = catalog_.paths(BsId(static_cast<std::uint32_t>(b)),
                                           CuId(static_cast<std::uint32_t>(c)));
        const topo::CandidatePath* best = nullptr;
        for (const topo::CandidatePath& p : paths) {
          if (p.delay <= ti.tmpl.delay_budget) {
            best = &p;
            break;  // catalog order is delay-ascending
          }
        }
        if (best == nullptr) {
          all_ok = false;
        } else {
          ti.path[c * num_bs_ + b] = best;
        }
      }
      if (all_ok) {
        ti.feasible_cus.push_back(static_cast<std::uint32_t>(c));
      } else {
        for (std::size_t b = 0; b < num_bs_; ++b) ti.path[c * num_bs_ + b] = nullptr;
      }
    }
  }
}

double Shard::radio_residual_mbps(std::size_t b) const {
  const auto& bs = topo_.bs(BsId(static_cast<std::uint32_t>(b)));
  const double prbs = budget_.radio_prbs[b] - committed_.radio_prbs[b];
  return std::max(0.0, prbs) * bs.mbps_per_prb;
}

void Shard::stage_candidate(const TypeInfo& ti, std::uint32_t cu, double w) {
  const double sla = ti.tmpl.sla_rate;
  // Radio: z_b bounded by the BS's unreserved capacity (and the SLA — a
  // reservation above Λ buys nothing).
  for (std::size_t b = 0; b < num_bs_; ++b) {
    const double ub = std::min(sla, radio_residual_mbps(b));
    session_.set_bounds(static_cast<int>(b), 0.0, std::max(0.0, ub));
    session_.set_cost(static_cast<int>(b), -w);
  }
  // CPU: Σ_b b_svc·z_b ≤ residual cores after the service baseline. Slope
  // 0 (eMBB) needs no row — the baseline was checked by the CU pick.
  const double slope = ti.tmpl.service.cores_per_mbps;
  if (slope > 0.0) {
    const double rhs = std::max(
        0.0, budget_.cpu_cores[cu] - committed_.cpu_cores[cu] -
                 ti.tmpl.service.baseline);
    std::vector<solver::Coef> coefs;
    coefs.reserve(num_bs_);
    for (std::size_t b = 0; b < num_bs_; ++b) {
      coefs.push_back({static_cast<int>(b), slope});
    }
    session_.add_cut("cpu", solver::RowSense::LessEq, rhs, std::move(coefs));
  }
  // Transport links: Σ_{b: e ∈ path(b,cu)} η_e·z_b ≤ residual C_e, one row
  // per link touched by any of the B candidate paths. First-touch order
  // keeps the row sequence deterministic; the row loop clears link_seen_.
  link_order_.clear();
  for (std::size_t b = 0; b < num_bs_; ++b) {
    const topo::CandidatePath* p = ti.path[cu * num_bs_ + b];
    if (p == nullptr) continue;
    for (LinkId e : p->links) {
      if (link_seen_[e.index()] == 0) {
        link_seen_[e.index()] = 1;
        link_order_.push_back(e.value());
      }
    }
  }
  for (const std::uint32_t e : link_order_) {
    link_seen_[e] = 0;
    const double overhead = topo_.graph.link(LinkId(e)).overhead;
    std::vector<solver::Coef> coefs;
    for (std::size_t b = 0; b < num_bs_; ++b) {
      const topo::CandidatePath* p = ti.path[cu * num_bs_ + b];
      if (p == nullptr) continue;
      for (LinkId pe : p->links) {
        if (pe.value() == e) {
          coefs.push_back({static_cast<int>(b), overhead});
          break;
        }
      }
    }
    const double rhs =
        std::max(0.0, budget_.link_mbps[e] - committed_.link_mbps[e]);
    session_.add_cut("lnk", solver::RowSense::LessEq, rhs, std::move(coefs));
  }
}

bool Shard::price(const TypeInfo& ti, std::uint32_t cu, double w,
                  double* z) {
  session_.push();
  stage_candidate(ti, cu, w);
  const solver::LpResult& r = session_.solve();
  const bool optimal = r.status == solver::LpStatus::Optimal;
  if (optimal) {
    for (std::size_t b = 0; b < num_bs_; ++b) {
      z[b] = std::clamp(r.x[b], 0.0, ti.tmpl.sla_rate);
    }
  }
  session_.pop();
  return optimal;
}

Decision Shard::decision(const Event& e, DecisionKind kind) const {
  Decision d;
  d.tenant_id = e.tenant_id;
  d.event = e.type;
  d.shard = id_;
  d.kind = kind;
  return d;
}

Decision Shard::handle(const Event& e) {
  switch (e.type) {
    case EventType::TenantArrival: return admit(e);
    case EventType::TenantDeparture: return depart(e);
    case EventType::DemandUpdate: return update(e);
    case EventType::EpochTick: break;  // routed to end_epoch, never here
  }
  return decision(e, DecisionKind::Unknown);
}

Decision Shard::admit(const Event& e) {
  ++stats_.arrivals;
  const auto type_idx = static_cast<std::size_t>(e.slice_type);
  if (type_idx >= std::size(types_) || !std::isfinite(e.lambda_hat) ||
      !std::isfinite(e.sigma_hat) || !std::isfinite(e.penalty_factor) ||
      e.penalty_factor < 0.0) {
    ++stats_.rejected_invalid;
    return decision(e, DecisionKind::RejectedInvalid);
  }
  if (tenants_.find(e.tenant_id) != IdMap::kMissing) {
    ++stats_.rejected_duplicate;
    return decision(e, DecisionKind::RejectedDuplicate);
  }
  if (cfg_.max_tenants != 0 && tenants_.size() >= cfg_.max_tenants) {
    ++stats_.rejected_full;
    return decision(e, DecisionKind::RejectedFull);
  }
  const TypeInfo& ti = types_[type_idx];
  if (ti.feasible_cus.empty()) {
    ++stats_.rejected_no_route;
    return decision(e, DecisionKind::RejectedNoRoute);
  }
  // CU pick: most residual cores, first on ties; the service baseline a
  // must fit outright (it is paid whether or not load arrives).
  bool placed = false;
  std::uint32_t cu = 0;
  double best_resid = 0.0;
  for (std::uint32_t c : ti.feasible_cus) {
    const double resid = budget_.cpu_cores[c] - committed_.cpu_cores[c];
    if (resid < ti.tmpl.service.baseline - kTol) continue;
    if (!placed || resid > best_resid + kTol) {
      placed = true;
      cu = c;
      best_resid = resid;
    }
  }
  if (!placed) {
    ++stats_.rejected_capacity;
    return decision(e, DecisionKind::RejectedCapacity);
  }

  const double lambda_hat = std::max(0.0, e.lambda_hat);
  // An open-ended tenant (L = 0) prices a one-epoch risk horizon.
  const double w =
      acrr::risk_weight(ti.tmpl, lambda_hat, e.sigma_hat, e.penalty_factor,
                        std::max<std::uint32_t>(1, e.duration_epochs), num_bs_)
          .w;
  if (!price(ti, cu, w, z_scratch_.data())) {
    ++stats_.rejected_solver;
    return decision(e, DecisionKind::RejectedSolver);
  }
  const double sum_z =
      std::accumulate(z_scratch_.begin(), z_scratch_.end(), 0.0);

  // Risk-adjusted net value of holding this SLA for one epoch.
  const double value =
      ti.tmpl.reward -
      w * (static_cast<double>(num_bs_) * ti.tmpl.sla_rate - sum_z);
  if (value < cfg_.admit_margin) {
    ++stats_.rejected_profit;
    Decision d = decision(e, DecisionKind::RejectedProfit);
    d.value = value;
    return d;
  }

  // Newest-freed slot first; the slot order is the re-solve's tenant order.
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
    z_store_.resize(z_store_.size() + num_bs_, 0.0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  TenantEntry& t = entries_[slot];
  t = TenantEntry{};
  t.id = e.tenant_id;
  t.type = e.slice_type;
  t.lambda_hat = lambda_hat;
  t.sigma_hat = e.sigma_hat;
  t.lambda_admitted = lambda_hat;
  t.penalty_factor = e.penalty_factor;
  t.cu = cu;
  t.duration = e.duration_epochs;
  t.remaining = e.duration_epochs;
  t.live = true;
  std::copy(z_scratch_.begin(), z_scratch_.end(), zrow(slot));
  tenants_.insert(e.tenant_id, slot);
  committed_.book(topo_, ti.tmpl.service, CuId(cu), {zrow(slot), num_bs_},
                  {ti.path.data() + cu * num_bs_, num_bs_});
  lambda_admitted_sum_ += t.lambda_admitted;

  ++stats_.admitted;
  Decision d = decision(e, DecisionKind::Admitted);
  d.z_total = sum_z;
  d.value = value;
  return d;
}

Decision Shard::depart(const Event& e) {
  ++stats_.departures;
  const std::uint32_t slot = tenants_.find(e.tenant_id);
  if (slot == IdMap::kMissing) {
    ++stats_.unknown_tenant;
    return decision(e, DecisionKind::Unknown);
  }
  Decision d = decision(e, DecisionKind::Departed);
  d.z_total = z_total(slot);
  release_tenant(slot);
  return d;
}

Decision Shard::update(const Event& e) {
  ++stats_.updates;
  // A non-finite observed peak is a malformed sample: std::max(0, NaN)
  // would read it as 0 and hide a violation. It accrues nothing and
  // refreshes no forecast.
  if (!std::isfinite(e.observed)) {
    ++stats_.rejected_invalid;
    return decision(e, DecisionKind::RejectedInvalid);
  }
  const std::uint32_t slot = tenants_.find(e.tenant_id);
  if (slot == IdMap::kMissing) {
    ++stats_.unknown_tenant;
    return decision(e, DecisionKind::Unknown);
  }
  TenantEntry& t = entries_[slot];
  const TypeInfo& ti = types_[static_cast<std::size_t>(t.type)];
  // SLA accounting: the SLA promises service up to Λ per BS; a sample
  // violates at BS b when the (capped) observed peak exceeded the
  // reservation z_b. One sample covers update_interval_min minutes.
  const double demand = std::min(std::max(0.0, e.observed), ti.tmpl.sla_rate);
  const double* z = zrow(slot);
  std::size_t violated = 0;
  for (std::size_t b = 0; b < num_bs_; ++b) {
    if (demand > z[b] + kTol) ++violated;
  }
  const double frac =
      static_cast<double>(violated) / static_cast<double>(num_bs_);
  if (violated > 0) {
    stats_.violation_minutes += cfg_.update_interval_min * frac;
    ++stats_.violation_samples;
  }
  // Forecast refresh feeds the drift trigger; a negative or non-finite λ̂
  // keeps the old one.
  if (std::isfinite(e.lambda_hat) && e.lambda_hat >= 0.0) {
    const double fresh = e.lambda_hat;
    drift_abs_ += std::abs(fresh - t.lambda_admitted) -
                  std::abs(t.lambda_hat - t.lambda_admitted);
    t.lambda_hat = fresh;
  }
  Decision d = decision(e, DecisionKind::Updated);
  d.z_total = z_total(slot);
  d.value = frac;
  return d;
}

double Shard::z_total(std::uint32_t slot) const {
  const double* z = zrow(slot);
  return std::accumulate(z, z + num_bs_, 0.0);
}

void Shard::release_tenant(std::uint32_t slot) {
  TenantEntry& t = entries_[slot];
  const TypeInfo& ti = types_[static_cast<std::size_t>(t.type)];
  committed_.book(topo_, ti.tmpl.service, CuId(t.cu), {zrow(slot), num_bs_},
                  {ti.path.data() + t.cu * num_bs_, num_bs_}, -1.0);
  drift_abs_ -= std::abs(t.lambda_hat - t.lambda_admitted);
  lambda_admitted_sum_ -= t.lambda_admitted;
  tenants_.erase(t.id);
  t.live = false;
  free_slots_.push_back(slot);
}

void Shard::end_epoch(std::size_t epoch, std::vector<Decision>& out) {
  // Fixed-duration slices age out first (their capacity frees before any
  // re-optimization sees the shard).
  for (std::uint32_t slot = 0; slot < entries_.size(); ++slot) {
    TenantEntry& t = entries_[slot];
    if (!t.live || t.remaining == 0) continue;  // free or open-ended
    if (--t.remaining > 0) continue;
    Decision d;
    d.tenant_id = t.id;
    d.event = EventType::EpochTick;
    d.shard = id_;
    d.kind = DecisionKind::Expired;
    d.z_total = z_total(slot);
    out.push_back(d);
    release_tenant(slot);
    ++stats_.expiries;
  }

  const bool periodic =
      cfg_.full_resolve_every > 0 &&
      (epoch + 1) % static_cast<std::size_t>(cfg_.full_resolve_every) == 0;
  const bool drifted = lambda_admitted_sum_ > 0.0 &&
                       drift_abs_ > cfg_.drift_threshold * lambda_admitted_sum_;
  if ((periodic || drifted) && num_tenants() > 0) {
    if (num_tenants() <= cfg_.max_resolve_tenants) {
      benders_resolve();
      ++stats_.full_resolves;
    } else {
      greedy_repack();
      ++stats_.greedy_repacks;
    }
  }
}

void Shard::benders_resolve() {
  // Exact joint re-optimization of the shard population: every live tenant
  // pinned to its CU (no mid-slice migration), §3.4 deficit relaxation on
  // so the pinned set is always feasible.
  std::vector<std::uint32_t> slots;
  std::vector<acrr::TenantModel> tenants;
  slots.reserve(num_tenants());
  tenants.reserve(num_tenants());
  for (std::uint32_t slot = 0; slot < entries_.size(); ++slot) {
    const TenantEntry& t = entries_[slot];
    if (!t.live) continue;
    acrr::TenantModel tm;
    tm.request.tenant = TenantId(static_cast<std::uint32_t>(t.id));
    tm.request.name = "t" + std::to_string(t.id);
    tm.request.tmpl = types_[static_cast<std::size_t>(t.type)].tmpl;
    // Risk horizon = the ORIGINAL duration: the re-solve prices w with
    // the duration the hot path priced it with at admission.
    tm.request.duration_epochs = std::max<std::uint32_t>(1, t.duration);
    tm.request.penalty_factor = t.penalty_factor;
    tm.lambda_hat = t.lambda_hat;
    tm.sigma_hat = t.sigma_hat;
    tm.pinned_cu = CuId(t.cu);
    slots.push_back(slot);
    tenants.push_back(std::move(tm));
  }
  acrr::AcrrConfig ac;
  ac.allow_deficit = true;  // pins require the §3.4 relaxation
  const acrr::AcrrInstance inst(topo_, catalog_, std::move(tenants), ac);

  acrr::BendersOptions bo;
  bo.single_tree = true;
  // Deterministic replay: one B&B lane and a NODE budget
  // (ShardConfig::resolve_max_nodes), no wall-clock limit — a time limit
  // would make the decision log timing-dependent.
  bo.master.threads = 1;
  bo.master.max_nodes = cfg_.resolve_max_nodes;
  bo.time_limit_sec = 1e9;
  bo.master.time_limit_sec = bo.time_limit_sec;
  // Node-budgeted anytime solve: pseudocost branching spends the budget on
  // learned-cost variables and RENS recovers an incumbent where the plain
  // rounding dive dead-ends, so a truncated re-solve still carries one.
  // Both stay replay-deterministic under the serial master above.
  bo.master.branching = solver::BranchRule::Pseudocost;
  bo.master.rens_heuristic = true;
  const acrr::AdmissionResult res = acrr::solve_benders(inst, bo);
  stats_.merge(res);

  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!res.admitted[i].has_value()) continue;  // defensive: pins hold
    const acrr::Placement& p = *res.admitted[i];
    double* z = zrow(slots[i]);
    for (std::size_t b = 0; b < num_bs_ && b < p.reservation.size(); ++b) {
      z[b] = std::max(0.0, p.reservation[b]);
    }
  }
  committed_.clear();
  drift_abs_ = 0.0;
  lambda_admitted_sum_ = 0.0;
  for (std::uint32_t slot : slots) {
    TenantEntry& t = entries_[slot];
    const TypeInfo& ti = types_[static_cast<std::size_t>(t.type)];
    committed_.book(topo_, ti.tmpl.service, CuId(t.cu), {zrow(slot), num_bs_},
                    {ti.path.data() + t.cu * num_bs_, num_bs_});
    t.lambda_admitted = t.lambda_hat;
    lambda_admitted_sum_ += t.lambda_admitted;
  }
}

void Shard::greedy_repack() {
  // Oversize fallback: rebuild every reservation with the hot-path LP in
  // slot order against a zeroed commitment ledger. Deterministic, O(T)
  // small LP solves, no optimality claim — the exact re-solve is reserved
  // for shards within max_resolve_tenants. A tenant whose LP does not
  // solve keeps its old reservation.
  committed_.clear();
  drift_abs_ = 0.0;
  lambda_admitted_sum_ = 0.0;
  for (std::uint32_t slot = 0; slot < entries_.size(); ++slot) {
    TenantEntry& t = entries_[slot];
    if (!t.live) continue;
    const TypeInfo& ti = types_[static_cast<std::size_t>(t.type)];
    const double w =
        acrr::risk_weight(ti.tmpl, t.lambda_hat, t.sigma_hat, t.penalty_factor,
                          std::max<std::uint32_t>(1, t.duration), num_bs_)
            .w;
    price(ti, t.cu, w, zrow(slot));
    committed_.book(topo_, ti.tmpl.service, CuId(t.cu), {zrow(slot), num_bs_},
                    {ti.path.data() + t.cu * num_bs_, num_bs_});
    t.lambda_admitted = t.lambda_hat;
    lambda_admitted_sum_ += t.lambda_admitted;
  }
}

double Shard::reservation_total(std::uint64_t id) const {
  const std::uint32_t slot = tenants_.find(id);
  return slot == IdMap::kMissing ? -1.0 : z_total(slot);
}

double Shard::overbooked_mbps() const {
  double total = 0.0;
  for (std::uint32_t slot = 0; slot < entries_.size(); ++slot) {
    const TenantEntry& t = entries_[slot];
    if (!t.live) continue;
    const double sla = types_[static_cast<std::size_t>(t.type)].tmpl.sla_rate;
    total += static_cast<double>(num_bs_) * sla - z_total(slot);
  }
  return std::max(0.0, total);
}

double Shard::radio_headroom_mbps() const {
  double total = 0.0;
  for (std::size_t b = 0; b < num_bs_; ++b) total += radio_residual_mbps(b);
  return total;
}

double Shard::cpu_headroom_cores() const {
  double total = 0.0;
  for (std::size_t c = 0; c < num_cu_; ++c) {
    total += std::max(0.0, budget_.cpu_cores[c] - committed_.cpu_cores[c]);
  }
  return total;
}

}  // namespace ovnes::svc
