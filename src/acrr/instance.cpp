#include "acrr/instance.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace ovnes::acrr {

RiskWeight risk_weight(const slice::SliceTemplate& tmpl, Mbps lambda_hat,
                       double sigma_hat, double penalty_factor,
                       std::size_t duration_epochs, std::size_t num_bs) {
  const double sla = tmpl.sla_rate;
  const double guard = kHeadroomGuard * sla;
  RiskWeight r;
  r.lambda_hat = std::clamp(lambda_hat, 0.0, sla - guard);
  const double xi = std::clamp(sigma_hat, 0.0, 1.0) *
                    static_cast<double>(duration_epochs);
  const Money k_rate = penalty_factor * tmpl.reward / sla;
  r.w = xi * (k_rate / static_cast<double>(num_bs)) /
        std::max(sla - r.lambda_hat, guard);
  return r;
}

AcrrInstance::AcrrInstance(const topo::Topology& topo,
                           const topo::PathCatalog& catalog,
                           std::vector<TenantModel> tenants, AcrrConfig config)
    : topo_(&topo), config_(config), tenants_(std::move(tenants)) {
  const std::size_t b_count = topo.num_bs();
  const std::size_t c_count = topo.num_cu();
  const int t_count = static_cast<int>(tenants_.size());

  tenant_vars_.resize(tenants_.size());
  feasible_cus_.resize(tenants_.size());
  by_bs_.resize(tenants_.size() * c_count);
  empty_group_.clear();

  for (int t = 0; t < t_count; ++t) {
    const TenantModel& tm = tenants_[static_cast<size_t>(t)];
    const slice::SliceTemplate& tpl = tm.request.tmpl;
    if (tpl.sla_rate <= 0.0) {
      throw std::invalid_argument("AcrrInstance: tenant with Λ <= 0");
    }
    const RiskWeight risk =
        risk_weight(tpl, tm.lambda_hat, tm.sigma_hat, tm.request.penalty_factor,
                    tm.request.duration_epochs, b_count);
    const double w = config_.no_overbooking ? 0.0 : risk.w;
    const Money reward_share =
        tpl.reward / static_cast<double>(b_count);

    for (std::size_t ci = 0; ci < c_count; ++ci) {
      const CuId c(static_cast<std::uint32_t>(ci));
      // Pinned slices stay on their current CU (no mid-slice migration).
      if (tm.pinned_cu && !(*tm.pinned_cu == c)) continue;
      // The CU is feasible only if every BS has a delay-admissible path.
      std::vector<std::vector<int>> groups(b_count);
      bool all_bs_reachable = true;
      std::vector<VarInfo> staged;
      for (std::size_t bi = 0; bi < b_count && all_bs_reachable; ++bi) {
        const BsId b(static_cast<std::uint32_t>(bi));
        bool any = false;
        for (const topo::CandidatePath& p : catalog.paths(b, c)) {
          if (p.delay > tpl.delay_budget) continue;  // constraint (7)
          VarInfo v;
          v.tenant = t;
          v.bs = b;
          v.cu = c;
          v.path = &p;
          v.lambda_hat = risk.lambda_hat;
          v.sla = tpl.sla_rate;
          v.w = w;
          v.reward_share = reward_share;
          v.radio_prbs_per_mbps = 1.0 / topo.bs(b).mbps_per_prb;
          staged.push_back(v);
          groups[bi].push_back(0);  // placeholder, fixed below
          any = true;
        }
        if (!any) all_bs_reachable = false;
      }
      if (!all_bs_reachable) continue;

      // Commit staged variables.
      feasible_cus_[static_cast<size_t>(t)].push_back(c);
      std::size_t cursor = 0;
      for (std::size_t bi = 0; bi < b_count; ++bi) {
        for (int& slot : groups[bi]) {
          const int idx = static_cast<int>(vars_.size());
          vars_.push_back(staged[cursor++]);
          slot = idx;
          tenant_vars_[static_cast<size_t>(t)].push_back(idx);
        }
      }
      by_bs_[static_cast<size_t>(t) * c_count + ci] = std::move(groups);
    }
  }
}

const std::vector<std::vector<int>>& AcrrInstance::vars_by_bs(int t,
                                                              CuId c) const {
  const auto& g = by_bs_[static_cast<size_t>(t) * num_cu() + c.index()];
  return g.empty() ? empty_group_ : g;
}

namespace {

// FNV-1a over raw 64-bit words; doubles are hashed by bit pattern so the
// fingerprint is exact (no tolerance): any coefficient change invalidates
// pooled cuts, which is the conservative direction.
inline void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ull;
}

inline std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(d));
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

}  // namespace

std::uint64_t instance_fingerprint(const AcrrInstance& inst) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const topo::Topology& topo = inst.topology();
  mix(h, inst.vars().size());
  mix(h, inst.tenants().size());
  mix(h, static_cast<std::uint64_t>(inst.num_bs()));
  mix(h, static_cast<std::uint64_t>(inst.num_cu()));
  mix(h, inst.config().allow_deficit ? 1u : 0u);
  mix(h, inst.config().no_overbooking ? 1u : 0u);
  mix(h, bits(inst.config().big_m));
  // Column layout + slave objective: per-var tuple. Path identity is the
  // (delay, bottleneck, link-count) triple — enough to distinguish any two
  // catalog paths a re-built instance could swap in.
  for (const VarInfo& v : inst.vars()) {
    mix(h, static_cast<std::uint64_t>(v.tenant));
    mix(h, (static_cast<std::uint64_t>(v.bs.value()) << 32) | v.cu.value());
    mix(h, bits(v.lambda_hat));
    mix(h, bits(v.sla));
    mix(h, bits(v.w));
    mix(h, bits(v.reward_share));
    if (v.path != nullptr) {
      mix(h, bits(v.path->delay));
      mix(h, bits(v.path->bottleneck));
      mix(h, v.path->links.size());
    }
  }
  // acc-column layout: the feasible-CU list per tenant.
  for (int t = 0; t < static_cast<int>(inst.tenants().size()); ++t) {
    for (CuId c : inst.feasible_cus(t)) mix(h, c.value());
  }
  // Slave capacities.
  for (const auto& bs : topo.base_stations()) mix(h, bits(bs.capacity));
  for (const auto& cu : topo.compute_units()) mix(h, bits(cu.capacity));
  for (const auto& link : topo.graph.links()) mix(h, bits(link.capacity));
  return h;
}

std::size_t AdmissionResult::num_accepted() const {
  std::size_t n = 0;
  for (const auto& p : admitted) {
    if (p.has_value()) ++n;
  }
  return n;
}

Money AdmissionResult::accepted_reward(const AcrrInstance& inst) const {
  Money total = 0.0;
  for (std::size_t t = 0; t < admitted.size(); ++t) {
    if (admitted[t]) total += inst.tenants()[t].request.tmpl.reward;
  }
  return total;
}

}  // namespace ovnes::acrr
