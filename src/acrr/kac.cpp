#include "acrr/kac.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "acrr/benders.hpp"

namespace ovnes::acrr {

namespace {

/// One knapsack item: tenant τ placed on CU c via the min-delay path of
/// every BS.
struct Item {
  int tenant = 0;
  CuId cu;
  std::vector<int> bundle;  ///< one instance-var index per BS
  double gamma = 0.0;       ///< cost γ (eq. 26 summed over the bundle)
  double agg_weight = 0.0;  ///< w̄ from the ε-recursion (29)
  bool pinned = false;
  bool banned = false;
};

}  // namespace

AdmissionResult solve_kac(const AcrrInstance& inst, const KacOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto& vars = inst.vars();
  SlaveProblem slave(inst);

  // ---- Build items.
  std::vector<Item> items;
  for (int t = 0; t < static_cast<int>(inst.tenants().size()); ++t) {
    const TenantModel& tm = inst.tenants()[static_cast<size_t>(t)];
    for (CuId c : inst.feasible_cus(t)) {
      const auto& groups = inst.vars_by_bs(t, c);
      if (groups.empty()) continue;
      Item it;
      it.tenant = t;
      it.cu = c;
      it.pinned = tm.pinned_cu.has_value();
      bool ok = true;
      for (const auto& group : groups) {
        if (group.empty()) { ok = false; break; }
        it.bundle.push_back(group.front());  // min-delay path (sorted by Yen)
      }
      if (!ok) continue;
      for (int j : it.bundle) {  // eq. (26)
        it.gamma += detail::first_stage_coef(vars[static_cast<size_t>(j)]);
      }
      items.push_back(std::move(it));
    }
  }

  // Keep only the best (lowest-γ) item per tenant to start with; the
  // alternatives stay available as fallbacks when the primary is banned.
  std::stable_sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.tenant != b.tenant ? a.tenant < b.tenant : a.gamma < b.gamma;
  });

  const auto pack = [&](double capacity, bool use_weights) {
    // Algorithm 2: FFD by profit density ϕ = (−γ)/w̄; items with
    // non-positive weight consume nothing and are packed first.
    std::vector<std::size_t> order(items.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const auto density = [&](const Item& it) {
        const double profit = -it.gamma;
        if (!use_weights || it.agg_weight <= 1e-12) {
          return profit > 0 ? std::numeric_limits<double>::infinity() : -1.0;
        }
        return profit / it.agg_weight;
      };
      return density(items[a]) > density(items[b]);
    });
    std::vector<char> tenant_done(inst.tenants().size(), 0);
    std::vector<char> selected(items.size(), 0);
    double budget = capacity;
    // Pinned slices are packed unconditionally first (constraint 13).
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].pinned && !items[i].banned &&
          !tenant_done[static_cast<size_t>(items[i].tenant)]) {
        selected[i] = 1;
        tenant_done[static_cast<size_t>(items[i].tenant)] = 1;
        if (use_weights) budget -= items[i].agg_weight;
      }
    }
    for (std::size_t oi : order) {
      Item& it = items[oi];
      if (it.banned || selected[oi]) continue;
      if (tenant_done[static_cast<size_t>(it.tenant)]) continue;  // (25)
      if (-it.gamma <= 0.0) continue;  // unprofitable even before weights
      if (use_weights && it.agg_weight > 1e-12 && budget - it.agg_weight < 0.0) {
        continue;
      }
      selected[oi] = 1;
      tenant_done[static_cast<size_t>(it.tenant)] = 1;
      if (use_weights) budget -= it.agg_weight;
    }
    return selected;
  };

  const auto activate = [&](const std::vector<char>& selected) {
    std::vector<char> active(vars.size(), 0);
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!selected[i]) continue;
      for (int j : items[i].bundle) active[static_cast<size_t>(j)] = 1;
    }
    return active;
  };

  // ---- Algorithm 3 main loop.
  double eps_k = 1.0;
  double agg_capacity = 0.0;
  bool use_weights = false;
  std::vector<char> selected = pack(0.0, use_weights);
  std::vector<char> prev_selected;
  SlaveResult sr;
  int iter = 0;
  for (; iter < opts.max_iterations; ++iter) {
    sr = slave.solve(activate(selected), /*allow_deficit=*/false);
    if (sr.feasible) break;

    // Price the binding resources from the ray (eqs. 27-28): the
    // feasibility cut is Σ coef_j·x_j <= -constant, so an item's weight is
    // the sum of its bundle's coefficients and the capacity is -constant.
    std::vector<double> coef(vars.size(), 0.0);
    for (const auto& [j, c] : sr.cut.coefs) coef[static_cast<size_t>(j)] = c;
    const double capacity_k = -sr.cut.constant;
    double weight_sum = 0.0;
    for (Item& it : items) {
      double w = 0.0;
      for (int j : it.bundle) w += coef[static_cast<size_t>(j)];
      w = std::max(w, 0.0);
      it.agg_weight += eps_k * w;
      weight_sum += eps_k * w;
    }
    agg_capacity += eps_k * capacity_k;
    // ε-recursion (30); re-normalized when it degenerates.
    eps_k = std::abs(eps_k * capacity_k - weight_sum);
    if (!std::isfinite(eps_k) || eps_k < 1e-9 || eps_k > 1e9) eps_k = 1.0;

    use_weights = true;
    prev_selected = selected;
    selected = pack(agg_capacity, use_weights);

    if (selected == prev_selected) {
      // Re-pack reproduced an infeasible selection: ban the packed
      // non-pinned item with the worst profit density on this ray, so the
      // loop cannot cycle on it.
      std::size_t worst = items.size();
      double worst_density = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (!selected[i] || items[i].pinned) continue;
        double w = 0.0;
        for (int j : items[i].bundle) w += coef[static_cast<size_t>(j)];
        if (w <= 1e-12) continue;  // not involved in the binding resources
        const double density = -items[i].gamma / w;
        if (density < worst_density) {
          worst_density = density;
          worst = i;
        }
      }
      if (worst == items.size()) break;  // only pinned load left: give up
      items[worst].banned = true;
      selected = pack(agg_capacity, use_weights);
    }
  }

  if (!sr.feasible) {
    // Still infeasible (pinned overcommitment): finish under §3.4 big-M.
    sr = slave.solve(activate(selected), /*allow_deficit=*/true);
  }

  const std::vector<char> active = activate(selected);
  AdmissionResult res = detail::assemble_result(inst, active, sr.z);
  res.iterations = iter + 1;
  res.solve_ms = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0).count() * 1e3;
  res.optimal = false;
  res.deficit = sr.deficit;
  // Ψ value achieved.
  res.objective = detail::first_stage_cost(inst, active) +
                  (sr.feasible ? sr.objective : 0.0);
  res.bound = -std::numeric_limits<double>::infinity();
  return res;
}

}  // namespace ovnes::acrr
