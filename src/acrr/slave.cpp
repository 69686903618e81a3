#include "acrr/slave.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "solver/simplex.hpp"

namespace ovnes::acrr {

double BendersCut::value_at(const std::vector<char>& x_active) const {
  double v = constant;
  for (const auto& [j, c] : coefs) {
    if (x_active[static_cast<size_t>(j)]) v += c;
  }
  return v;
}

namespace {

/// Per-variable compute baseline share a_τ/B (DESIGN.md choice #3).
double baseline_share(const AcrrInstance& inst, const VarInfo& v) {
  return inst.tenants()[static_cast<size_t>(v.tenant)]
             .request.tmpl.service.baseline /
         static_cast<double>(inst.num_bs());
}

double cores_per_mbps(const AcrrInstance& inst, const VarInfo& v) {
  return inst.tenants()[static_cast<size_t>(v.tenant)]
      .request.tmpl.service.cores_per_mbps;
}

/// Floor of an active path's reservation box z ∈ [floor, Λ]: the forecast
/// λ̂ of (9), or Λ itself for the no-overbooking baseline. The svc hot path
/// floors z at 0 instead (docs/service.md).
double reservation_floor(const AcrrInstance& inst, const VarInfo& v) {
  return inst.config().no_overbooking ? v.sla : std::min(v.lambda_hat, v.sla);
}

}  // namespace

SlaveResult SlaveProblem::solve(const std::vector<char>& x_active,
                                bool allow_deficit) const {
  using namespace ovnes::solver;
  const AcrrInstance& inst = *inst_;
  const auto& vars = inst.vars();
  const topo::Topology& topo = inst.topology();

  // ---- Session cache: when the master proposes the same activation
  // vector as the cached session, skip the model build outright and
  // re-solve the live session (its incumbent basis re-verifies in zero
  // pivots). Otherwise (re)build the slave LP and its row/variable maps.
  const bool cache_hit = session_.has_value() &&
                         warm_deficit_ == allow_deficit &&
                         warm_active_ == x_active;
  if (!cache_hit) {
    // The maps are rebuilt in place: drop the session first, so a build
    // that throws cannot leave a cache hit on half-built maps.
    session_.reset();
    z_of_.clear();
    row_refs_.clear();
    deficit_cols_.clear();
    // ---- Collect active variables and the resource rows they touch.
    std::vector<int> active;
    for (std::size_t j = 0; j < vars.size(); ++j) {
      if (x_active[j]) active.push_back(static_cast<int>(j));
    }

    LpModel lp;
    // z variable per active path; z in [λ̂, Λ] (or pinned to Λ for the
    // no-overbooking baseline).
    for (int j : active) {
      const VarInfo& v = vars[static_cast<size_t>(j)];
      lp.add_variable("z" + std::to_string(j), reservation_floor(inst, v),
                      v.sla, -v.w);
      z_of_[j] = lp.num_vars() - 1;
    }

    // Aggregate deficit variables (§3.4): δc (compute), δb (transport),
    // δr (radio), each relaxing every row of its domain.
    int d_compute = -1, d_transport = -1, d_radio = -1;
    if (allow_deficit) {
      const double m = inst.config().big_m;
      d_compute = lp.add_variable("delta_c", 0.0, kInf, m);
      d_transport = lp.add_variable("delta_b", 0.0, kInf, m);
      d_radio = lp.add_variable("delta_r", 0.0, kInf, m);
      deficit_cols_ = {d_compute, d_transport, d_radio};
    }

    // ---- Compute rows (14): Σ (a/B)·x + b·z <= C_c + δc. The a-terms of
    // the *active* variables are constants here and move to the RHS.
    for (std::size_t ci = 0; ci < inst.num_cu(); ++ci) {
      const CuId c(static_cast<std::uint32_t>(ci));
      std::vector<Coef> coefs;
      double fixed = 0.0;
      for (int j : active) {
        const VarInfo& v = vars[static_cast<size_t>(j)];
        if (!(v.cu == c)) continue;
        fixed += baseline_share(inst, v);
        const double b = cores_per_mbps(inst, v);
        if (b > 0.0) coefs.push_back({z_of_[j], b});
      }
      if (coefs.empty() && fixed == 0.0) continue;
      if (d_compute >= 0) coefs.push_back({d_compute, -1.0});
      lp.add_row("cu" + std::to_string(ci), RowSense::LessEq,
                 topo.cu(c).capacity - fixed, std::move(coefs));
      row_refs_.push_back({RowKind::Compute, c.value()});
    }

    // ---- Transport rows (15): Σ η_e·z <= C_e + δb, per touched link.
    std::map<std::uint32_t, std::vector<Coef>> link_rows;
    for (int j : active) {
      const VarInfo& v = vars[static_cast<size_t>(j)];
      for (LinkId e : v.path->links) {
        link_rows[e.value()].push_back(
            {z_of_[j], topo.graph.link(e).overhead});
      }
    }
    for (auto& [link_id, coefs] : link_rows) {
      const auto cap = topo.graph.link(LinkId(link_id)).capacity;
      if (d_transport >= 0) coefs.push_back({d_transport, -1.0});
      lp.add_row("link" + std::to_string(link_id), RowSense::LessEq, cap,
                 std::move(coefs));
      row_refs_.push_back({RowKind::Transport, link_id});
    }

    // ---- Radio rows (16): Σ η_{τ,b}·z <= C_b + δr, per touched BS.
    for (std::size_t bi = 0; bi < inst.num_bs(); ++bi) {
      const BsId b(static_cast<std::uint32_t>(bi));
      std::vector<Coef> coefs;
      for (int j : active) {
        const VarInfo& v = vars[static_cast<size_t>(j)];
        if (v.bs == b) coefs.push_back({z_of_[j], v.radio_prbs_per_mbps});
      }
      if (coefs.empty()) continue;
      if (d_radio >= 0) coefs.push_back({d_radio, -1.0});
      lp.add_row("bs" + std::to_string(bi), RowSense::LessEq,
                 topo.bs(b).capacity, std::move(coefs));
      row_refs_.push_back({RowKind::Radio, b.value()});
    }

    session_.emplace(std::move(lp));
    warm_active_ = x_active;
    warm_deficit_ = allow_deficit;
  }

  const LpResult& lr = session_->solve();
  SlaveResult out;
  out.z.assign(vars.size(), 0.0);

  // ---- Assemble dual prices µ >= 0 per resource (zero for untouched
  // rows), from either the optimal duals or the Farkas ray. Any other
  // outcome (IterationLimit; Unbounded is impossible for the box-bounded
  // slave) carries neither certificate, so report infeasible with an empty
  // cut rather than price from a vector that was never populated — the
  // Benders loop detects the vacuous cut and stops instead of spinning.
  // (The session already dropped its incumbent basis for the same reason:
  // a limit-hit solve leaves nothing worth restarting from.)
  const bool feasible = lr.status == LpStatus::Optimal;
  if (!feasible && lr.status != LpStatus::Infeasible) {
    out.feasible = false;
    return out;
  }
  const std::vector<double>& dual_src =
      feasible ? lr.row_duals : lr.farkas_ray;
  std::map<std::uint32_t, double> mu_cu, mu_link, mu_bs;
  for (std::size_t r = 0; r < row_refs_.size(); ++r) {
    // Min problem, <= rows: optimal duals are <= 0 and µ = -y; the Farkas
    // ray is already returned with the µ >= 0 orientation.
    const double raw = dual_src[r];
    const double mu = feasible ? std::max(0.0, -raw) : std::max(0.0, raw);
    if (mu <= 0.0) continue;
    switch (row_refs_[r].kind) {
      case RowKind::Compute: mu_cu[row_refs_[r].id] += mu; break;
      case RowKind::Transport: mu_link[row_refs_[r].id] += mu; break;
      case RowKind::Radio: mu_bs[row_refs_[r].id] += mu; break;
    }
  }

  // Cut constant: -Σ µ·C over every priced resource.
  double cut_const = 0.0;
  for (const auto& [id, mu] : mu_cu) {
    cut_const -= mu * topo.cu(CuId(id)).capacity;
  }
  for (const auto& [id, mu] : mu_link) {
    cut_const -= mu * topo.graph.link(LinkId(id)).capacity;
  }
  for (const auto& [id, mu] : mu_bs) {
    cut_const -= mu * topo.bs(BsId(id)).capacity;
  }

  // Cut coefficients for EVERY instance variable (not just active ones):
  // the priced resource usage r_j plus the inner minimization over
  // z_j ∈ [λ̂, Λ] of (r_j − w_j)·z_j (w_j = 0 in feasibility cuts — the
  // ray prices constraints only).
  BendersCut cut;
  cut.optimality = feasible;
  cut.constant = cut_const;
  const auto mu_at = [](const std::map<std::uint32_t, double>& m,
                        std::uint32_t id) {
    const auto it = m.find(id);
    return it == m.end() ? 0.0 : it->second;
  };
  for (std::size_t j = 0; j < vars.size(); ++j) {
    const VarInfo& v = vars[j];
    double r = mu_at(mu_cu, v.cu.value()) * cores_per_mbps(inst, v) +
               mu_at(mu_bs, v.bs.value()) * v.radio_prbs_per_mbps;
    for (LinkId e : v.path->links) {
      r += mu_at(mu_link, e.value()) * topo.graph.link(e).overhead;
    }
    const double slope = feasible ? r - v.w : r;
    const double z_lo = reservation_floor(inst, v);
    const double inner = std::min(slope * z_lo, slope * v.sla);
    const double coef =
        mu_at(mu_cu, v.cu.value()) * baseline_share(inst, v) + inner;
    if (coef != 0.0) cut.coefs.emplace_back(static_cast<int>(j), coef);
  }
  out.cut = std::move(cut);

  if (!feasible) {
    out.feasible = false;
    return out;
  }

  out.feasible = true;
  out.objective = lr.objective;
  for (const auto& [j, zv] : z_of_) {
    out.z[static_cast<size_t>(j)] = lr.x[static_cast<size_t>(zv)];
  }
  if (allow_deficit) {
    out.deficit = 0.0;
    for (int d : deficit_cols_) out.deficit += lr.x[static_cast<size_t>(d)];
  }
  return out;
}

}  // namespace ovnes::acrr
