#include "acrr/benders.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "exec/thread_pool.hpp"

namespace ovnes::acrr {

namespace detail {

MasterModel build_master(const AcrrInstance& inst, bool with_theta) {
  using namespace ovnes::solver;
  MasterModel m;
  const auto& vars = inst.vars();
  const auto b_count = static_cast<double>(inst.num_bs());

  // x_j binaries: objective (Λ·w − R/B); branched after acceptance vars.
  m.x_col.resize(vars.size());
  double theta_lb = 0.0;
  for (std::size_t j = 0; j < vars.size(); ++j) {
    const VarInfo& v = vars[j];
    m.x_col[j] = m.lp.add_binary("x" + std::to_string(j),
                                 first_stage_coef(v),
                                 /*branch_priority=*/10);
    theta_lb -= v.w * v.sla;
  }

  // acc_{t,c} binaries: the tenant-acceptance dichotomy (branch first).
  const int t_count = static_cast<int>(inst.tenants().size());
  m.acc.resize(static_cast<size_t>(t_count));
  for (int t = 0; t < t_count; ++t) {
    const auto& cus = inst.feasible_cus(t);
    std::vector<Coef> one_cu;
    for (CuId c : cus) {
      const int col = m.lp.add_binary(
          "acc_t" + std::to_string(t) + "_c" + std::to_string(c.value()), 0.0,
          /*branch_priority=*/0);
      m.acc[static_cast<size_t>(t)].push_back(col);
      one_cu.push_back({col, 1.0});

      // Linking: Σ_{b,p→c} x = B·acc_{t,c}.
      std::vector<Coef> link{{col, -b_count}};
      for (const auto& group : inst.vars_by_bs(t, c)) {
        for (int j : group) link.push_back({m.x_col[static_cast<size_t>(j)], 1.0});
      }
      m.lp.add_row("link_t" + std::to_string(t) + "_c" +
                       std::to_string(c.value()),
                   RowSense::Equal, 0.0, std::move(link));
    }
    // One CU per tenant; pinned slices must stay admitted (constraint 13).
    const bool pinned = inst.tenants()[static_cast<size_t>(t)].pinned_cu.has_value();
    if (pinned && one_cu.empty()) {
      throw std::logic_error("build_master: pinned tenant has no feasible CU");
    }
    if (!one_cu.empty()) {
      m.lp.add_row("cu_t" + std::to_string(t),
                   pinned ? RowSense::Equal : RowSense::LessEq, 1.0,
                   std::move(one_cu));
    }
  }

  // Constraint (5): at most one path per (tenant, BS) across all CUs.
  for (int t = 0; t < t_count; ++t) {
    for (std::size_t bi = 0; bi < inst.num_bs(); ++bi) {
      std::vector<Coef> coefs;
      for (CuId c : inst.feasible_cus(t)) {
        const auto& groups = inst.vars_by_bs(t, c);
        for (int j : groups[bi]) {
          coefs.push_back({m.x_col[static_cast<size_t>(j)], 1.0});
        }
      }
      if (coefs.size() > 1) {
        m.lp.add_row("onepath_t" + std::to_string(t) + "_b" + std::to_string(bi),
                     RowSense::LessEq, 1.0, std::move(coefs));
      }
    }
  }

  // Symmetry breaking: identical non-pinned tenants (same template,
  // forecast and penalty) are interchangeable; force acceptance in index
  // order so branch-and-bound does not explore permutations of the same
  // admission set.
  const auto same_profile = [&](int a, int b) {
    const TenantModel& x = inst.tenants()[static_cast<size_t>(a)];
    const TenantModel& y = inst.tenants()[static_cast<size_t>(b)];
    return !x.pinned_cu && !y.pinned_cu &&
           x.request.tmpl.type == y.request.tmpl.type &&
           x.request.tmpl.reward == y.request.tmpl.reward &&
           x.request.tmpl.sla_rate == y.request.tmpl.sla_rate &&
           x.request.duration_epochs == y.request.duration_epochs &&
           x.request.penalty_factor == y.request.penalty_factor &&
           x.lambda_hat == y.lambda_hat && x.sigma_hat == y.sigma_hat;
  };
  for (int t = 0; t + 1 < t_count; ++t) {
    if (!same_profile(t, t + 1)) continue;
    std::vector<Coef> order;
    for (int col : m.acc[static_cast<size_t>(t)]) order.push_back({col, 1.0});
    for (int col : m.acc[static_cast<size_t>(t + 1)]) order.push_back({col, -1.0});
    if (!order.empty()) {
      m.lp.add_row("sym_t" + std::to_string(t), RowSense::GreaterEq, 0.0,
                   std::move(order));
    }
  }

  if (with_theta) {
    m.theta_col = m.lp.add_variable("theta", theta_lb, solver::kInf, 1.0);

    // Seed the Benders master with the valid minimum-usage inequalities:
    // accepting x forces z >= λ̂·x, so the λ̂-priced usage must fit every
    // capacity. These are implied by the slave's feasibility cuts but
    // providing them up front saves most feasibility iterations. Under the
    // §3.4 big-M relaxation capacities are soft, so the seeds are invalid
    // and skipped (the relaxed slave's optimality cuts handle everything).
    if (!inst.config().allow_deficit) {
      add_usage_rows(inst, m, &VarInfo::lambda_hat, "seed_");
    }
  }
  return m;
}

double first_stage_cost(const AcrrInstance& inst,
                        const std::vector<char>& x_active) {
  double cost = 0.0;
  for (std::size_t j = 0; j < x_active.size(); ++j) {
    if (x_active[j]) cost += first_stage_coef(inst.vars()[j]);
  }
  return cost;
}

void add_usage_rows(const AcrrInstance& inst, MasterModel& m,
                    double VarInfo::*level, const std::string& prefix) {
  using namespace ovnes::solver;
  const auto& vars = inst.vars();
  const topo::Topology& topo = inst.topology();
  for (std::size_t ci = 0; ci < inst.num_cu(); ++ci) {
    std::vector<Coef> coefs;
    for (std::size_t j = 0; j < vars.size(); ++j) {
      const VarInfo& v = vars[j];
      if (v.cu.index() != ci) continue;
      const double usage =
          inst.baseline_share(v) + inst.service(v).cores_per_mbps * v.*level;
      if (usage > 0.0) coefs.push_back({m.x_col[j], usage});
    }
    if (!coefs.empty()) {
      m.lp.add_row(prefix + "cu" + std::to_string(ci), RowSense::LessEq,
                   topo.cu(CuId(static_cast<std::uint32_t>(ci))).capacity,
                   std::move(coefs));
    }
  }
  std::map<std::uint32_t, std::vector<Coef>> link_rows;
  for (std::size_t j = 0; j < vars.size(); ++j) {
    if (vars[j].*level <= 0.0) continue;
    for (LinkId e : vars[j].path->links) {
      link_rows[e.value()].push_back(
          {m.x_col[j], topo.graph.link(e).overhead * vars[j].*level});
    }
  }
  for (auto& [id, coefs] : link_rows) {
    m.lp.add_row(prefix + "link" + std::to_string(id), RowSense::LessEq,
                 topo.graph.link(LinkId(id)).capacity, std::move(coefs));
  }
  for (std::size_t bi = 0; bi < inst.num_bs(); ++bi) {
    std::vector<Coef> coefs;
    for (std::size_t j = 0; j < vars.size(); ++j) {
      const VarInfo& v = vars[j];
      if (v.bs.index() == bi && v.*level > 0.0) {
        coefs.push_back({m.x_col[j], v.radio_prbs_per_mbps * v.*level});
      }
    }
    if (!coefs.empty()) {
      m.lp.add_row(prefix + "bs" + std::to_string(bi), RowSense::LessEq,
                   topo.bs(BsId(static_cast<std::uint32_t>(bi))).capacity,
                   std::move(coefs));
    }
  }
}

std::vector<char> extract_active(const MasterModel& m,
                                 const std::vector<double>& x) {
  std::vector<char> active(m.x_col.size(), 0);
  for (std::size_t j = 0; j < m.x_col.size(); ++j) {
    active[j] = x[static_cast<size_t>(m.x_col[j])] > 0.5 ? 1 : 0;
  }
  return active;
}

solver::Rowdef cut_row(const MasterModel& m, const BendersCut& cut,
                       std::string name) {
  solver::Rowdef row;
  row.name = std::move(name);
  row.sense = solver::RowSense::LessEq;
  row.rhs = -cut.constant;
  if (cut.optimality) row.coefs.push_back({m.theta_col, -1.0});
  for (const auto& [j, c] : cut.coefs) {
    row.coefs.push_back({m.x_col[static_cast<size_t>(j)], c});
  }
  return row;
}

AdmissionResult assemble_result(const AcrrInstance& inst,
                                const std::vector<char>& active,
                                const std::vector<double>& z) {
  AdmissionResult res;
  res.admitted.assign(inst.tenants().size(), std::nullopt);
  for (std::size_t t = 0; t < inst.tenants().size(); ++t) {
    // Find the CU with active variables for this tenant.
    for (CuId c : inst.feasible_cus(static_cast<int>(t))) {
      const auto& groups = inst.vars_by_bs(static_cast<int>(t), c);
      std::vector<int> chosen;
      std::vector<Mbps> rsv;
      bool complete = !groups.empty();
      for (const auto& group : groups) {
        int pick = -1;
        for (int j : group) {
          if (active[static_cast<size_t>(j)]) { pick = j; break; }
        }
        if (pick < 0) { complete = false; break; }
        chosen.push_back(pick);
        rsv.push_back(z[static_cast<size_t>(pick)]);
      }
      if (complete && chosen.size() == inst.num_bs()) {
        res.admitted[t] = Placement{c, std::move(chosen), std::move(rsv)};
        break;
      }
    }
  }
  return res;
}

}  // namespace detail

double evaluate_objective(const AcrrInstance& inst,
                          const AdmissionResult& result) {
  double obj = 0.0;
  for (std::size_t t = 0; t < result.admitted.size(); ++t) {
    const auto& placement = result.admitted[t];
    if (!placement) continue;
    for (std::size_t i = 0; i < placement->path_vars.size(); ++i) {
      const VarInfo& v =
          inst.vars()[static_cast<size_t>(placement->path_vars[i])];
      const double z = placement->reservation[i];
      obj += v.w * (v.sla - z) - v.reward_share;
    }
  }
  return obj;
}

namespace {

/// What both Benders modes track and report: the incumbent (the upper
/// bound side of Algorithm 1), the master's lower bound and the counters.
struct BendersState {
  double ub = solver::kInf;
  double lb = -solver::kInf;
  std::vector<char> best_active;
  std::vector<double> best_z;
  double best_deficit = 0.0;
  solver::SolveStats stats;
  long master_pivots = 0;

  /// Offer the admission `active` priced by a feasible slave: Γ = first-
  /// stage cost + slave optimum (Algorithm 1, line 12) becomes the
  /// incumbent when it beats the upper bound.
  void offer(const AcrrInstance& inst, const std::vector<char>& active,
             const SlaveResult& sr) {
    const double gamma = detail::first_stage_cost(inst, active) + sr.objective;
    if (gamma < ub) {
      ub = gamma;
      best_active = active;
      best_z = sr.z;
      best_deficit = sr.deficit;
    }
  }

  /// Algorithm 1's stop test: an incumbent within ε·(1 + |UB|) of the LB.
  [[nodiscard]] bool converged(double epsilon) const {
    return ub < solver::kInf && ub - lb <= epsilon * (1.0 + std::abs(ub));
  }

  /// The solve's answer: the incumbent's admission (or nobody when no
  /// slave was feasible — always feasible when nothing is pinned), the
  /// UB/LB sandwich and the counters.
  [[nodiscard]] AdmissionResult result(const AcrrInstance& inst,
                                       int iterations, double solve_ms,
                                       double epsilon) const {
    AdmissionResult res;
    if (best_active.empty()) {
      res.admitted.assign(inst.tenants().size(), std::nullopt);
    } else {
      res = detail::assemble_result(inst, best_active, best_z);
    }
    res.objective = ub == solver::kInf ? 0.0 : ub;
    res.bound = lb;
    res.iterations = iterations;
    res.solve_ms = solve_ms;
    res.optimal = converged(epsilon);
    res.deficit = best_deficit;
    static_cast<solver::SolveStats&>(res) = stats;
    res.master_pivots = master_pivots;
    return res;
  }
};

/// Single-tree Branch-and-Benders-cut: the master is built once and solved
/// by ONE branch-and-bound run in which every integer-feasible candidate
/// (and fractional root points) is verified by the slave through the
/// MilpOptions::lazy_cuts hook. Rejection cuts land in the solve's cut
/// pool and reach every lane; a pooled cut that already rejects a later
/// candidate skips its slave solve entirely. Persistent-LU/dual-simplex
/// state survives for the whole solve instead of dying at each outer
/// iteration boundary.
AdmissionResult solve_benders_single_tree(const AcrrInstance& inst,
                                          const BendersOptions& opts) {
  using namespace ovnes::solver;
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  detail::MasterModel master = detail::build_master(inst, /*with_theta=*/true);
  LpSession msession(std::move(master.lp), opts.master.lp);
  SlaveProblem slave(inst);
  // Magnanti–Wong core slave: its own instance so the core activation does
  // not thrash `slave`'s cached session for the candidate vectors.
  SlaveProblem core_slave(inst);
  const bool deficit = inst.config().allow_deficit;
  const auto& vars = inst.vars();

  // Callback state: mutated only under the solver's separation lock (the
  // LazyCutCallback serialization contract), read again after solve_milp
  // returns with every lane quiesced.
  BendersState st;
  std::vector<char> core(vars.size(), 0);  ///< union of feasible candidates
  bool core_seen = false;
  long slave_calls = 0;

  const auto violation = [&master](const BendersCut& cut,
                                   const std::vector<double>& mx) {
    double lhs = cut.constant;
    for (const auto& [j, c] : cut.coefs) {
      lhs += c * mx[static_cast<size_t>(master.x_col[static_cast<size_t>(j)])];
    }
    if (cut.optimality) lhs -= mx[static_cast<size_t>(master.theta_col)];
    return lhs;  // > 0: the master point violates the cut
  };

  MilpOptions mopts = opts.master;
  // One tree gets the whole Benders budget (the classic loop splits it
  // into per-iteration master solves).
  mopts.time_limit_sec = opts.time_limit_sec;
  // Setting lazy_cuts also runs root fractional separation (SCIP's
  // benderslp), which is intrinsic to the mode.
  mopts.lazy_cuts = [&](const LazyCutContext& ctx) -> LazyCutResult {
    LazyCutResult out;
    const std::vector<char> active = detail::extract_active(master, ctx.x);
    const SlaveResult sr = slave.solve(active, deficit);
    ++slave_calls;
    if (sr.uncertified()) {
      // No valid cut exists to reject the candidate, and accepting it
      // unverified could prune the true optimum — abandon the node
      // conservatively (the solver folds its bound into best_bound and
      // drops Optimal claims).
      out.abandon = true;
      return out;
    }
    if (sr.feasible) {
      // A feasible slave at an integral candidate prices a complete
      // admission: a valid upper bound whether or not the candidate
      // survives. A fractional root point rounds to an activation that
      // need not satisfy the master rows, so its price is no admission's
      // value and must not become the incumbent.
      if (ctx.integral) st.offer(inst, active, sr);
      for (std::size_t j = 0; j < core.size(); ++j) {
        core[j] = static_cast<char>(core[j] | active[j]);
      }
      core_seen = true;
    }
    // Acceptance mirrors the classic relative convergence test: the
    // candidate's θ̄ must cover the slave optimum to within ε·(1+|obj|).
    const double tol = opts.epsilon * (1.0 + std::abs(ctx.objective));
    if (violation(sr.cut, ctx.x) <= tol) return out;  // survives
    out.cuts.push_back(detail::cut_row(
        master, sr.cut,
        (sr.cut.optimality ? "optcut" : "feascut") +
            std::to_string(slave_calls)));
    // Magnanti–Wong strengthening: also price the core (union) activation.
    // Cuts are valid at ANY activation (acrr/slave.hpp), and the denser
    // core prices resources this candidate leaves idle. Its cut rarely
    // cuts the candidate itself, so it is pooled without rejecting — the
    // lane sync distributes it — instead of joining the rejection rows.
    if (ctx.integral && core_seen && core != active) {
      const SlaveResult cr = core_slave.solve(core, deficit);
      if (!cr.uncertified()) {
        out.pool_cuts.push_back(detail::cut_row(
            master, cr.cut, "mwcut" + std::to_string(slave_calls)));
      }
    }
    return out;
  };

  const MilpResult mr = solve_milp(msession, mopts);
  st.lb = mr.best_bound;  // master bound, θ included — a true LB
  st.stats = mr;
  st.master_pivots = mr.lp_iterations;
  // One slave solve here plays the role of one classic outer iteration.
  return st.result(inst, static_cast<int>(slave_calls), elapsed() * 1e3,
                   opts.epsilon);
}

}  // namespace

AdmissionResult solve_benders(const AcrrInstance& inst,
                              const BendersOptions& opts) {
  if (opts.single_tree) return solve_benders_single_tree(inst, opts);
  using namespace ovnes::solver;
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  detail::MasterModel master = detail::build_master(inst, /*with_theta=*/true);
  // Long-lived master session: the model moves in once; every iteration
  // appends its cuts through the session and re-solves via
  // solve_milp(session), whose root LP restarts from the incumbent basis
  // with dual simplex — the cut leaves it dual-feasible — instead of the
  // artificial-repair Phase 1 the old Basis plumbing went through.
  LpSession msession(std::move(master.lp), opts.master.lp);
  // st.stats merges the per-iteration master solves, plus the appended
  // cuts and the slave solves this loop runs itself.
  BendersState st;
  // Optimality cut (21) θ >= const + Σ coef·x from a feasible slave,
  // feasibility cut (22) const + Σ coef·x <= 0 otherwise.
  const auto append_cut = [&](const BendersCut& cut,
                              const std::string& suffix) {
    msession.add_cut(detail::cut_row(
        master, cut, (cut.optimality ? "optcut" : "feascut") + suffix));
    ++st.stats.cuts_separated;
  };
  SlaveProblem slave(inst);
  // One extra SlaveProblem per probed tenant, created lazily and reused
  // across iterations so each keeps its own warm-basis cache — the
  // distinct-instance-per-thread contract of acrr/slave.hpp. Within one
  // iteration each instance is touched by exactly one parallel_for task.
  std::map<int, SlaveProblem> probe_slaves;
  exec::ThreadPool& pool =
      opts.pool != nullptr ? *opts.pool : exec::ThreadPool::global();
  const bool deficit = inst.config().allow_deficit;
  const auto& vars = inst.vars();

  int iter = 0;

  for (; iter < opts.max_iterations; ++iter) {
    MilpOptions mopts = opts.master;
    // Serial master: a parallel branch-and-bound may return a different
    // optimal x̄ under objective ties, forking the cut trajectory between
    // runs. Parallelism lives in the probe-slave fan-out below instead,
    // which is thread-count-invariant (see BendersOptions::probe_cuts).
    mopts.threads = 1;
    mopts.time_limit_sec =
        std::min(mopts.time_limit_sec, opts.time_limit_sec - elapsed());
    if (mopts.time_limit_sec <= 0.0) break;
    // The session carries the previous root basis across iterations by
    // itself, so each master re-solve starts warm after the cut append.
    const MilpResult mr = solve_milp(msession, mopts);
    st.master_pivots += mr.lp_iterations;
    st.stats.merge(mr);
    if (mr.status == MilpStatus::Infeasible) {
      // Structurally infeasible master (e.g. conflicting pinned slices
      // without the §3.4 relaxation): report an empty admission.
      AdmissionResult res;
      res.admitted.assign(inst.tenants().size(), std::nullopt);
      res.solve_ms = elapsed() * 1e3;
      res.iterations = iter;
      return res;
    }
    // Limit-hit audit: a NoSolution master carries no usable x̄ — stop with
    // the current incumbent rather than read garbage. A Feasible (limit-hit
    // but incumbent-bearing) master is safe to continue from: its x̄ is
    // integer-feasible so the slave cut stays valid, and best_bound is a
    // true lower bound even when the tree was truncated (branch-and-bound
    // folds dropped limit-hit nodes into best_bound conservatively).
    if (mr.status == MilpStatus::NoSolution) break;
    st.lb = std::max(st.lb, mr.best_bound);

    const std::vector<char> active = detail::extract_active(master, mr.x);

    // ---- Probe set: admitted non-pinned tenants, ascending index, capped.
    // Dropping one such tenant from x̄ keeps the master structurally
    // feasible, so each probe slave yields a globally valid cut and (when
    // feasible) a complete candidate admission for the incumbent. The set
    // is a pure function of x̄: identical for every thread count.
    std::vector<int> probe_tenants;
    if (opts.probe_cuts > 0) {
      std::vector<char> tenant_active(inst.tenants().size(), 0);
      for (std::size_t j = 0; j < active.size(); ++j) {
        if (active[j]) tenant_active[static_cast<size_t>(vars[j].tenant)] = 1;
      }
      for (std::size_t t = 0; t < inst.tenants().size(); ++t) {
        if (tenant_active[t] == 0) continue;
        if (inst.tenants()[t].pinned_cu.has_value()) continue;
        probe_tenants.push_back(static_cast<int>(t));
        if (static_cast<int>(probe_tenants.size()) >= opts.probe_cuts) break;
      }
    }
    std::vector<std::vector<char>> probe_x(probe_tenants.size());
    for (std::size_t p = 0; p < probe_tenants.size(); ++p) {
      probe_x[p] = active;
      for (std::size_t j = 0; j < probe_x[p].size(); ++j) {
        if (vars[j].tenant == probe_tenants[p]) probe_x[p][j] = 0;
      }
    }
    for (int t : probe_tenants) probe_slaves.try_emplace(t, inst);

    // ---- Fan the slave solves out across the pool: slot 0 is the slave
    // at x̄, slot p >= 1 the per-tenant probe on its own SlaveProblem.
    std::vector<SlaveResult> srs(1 + probe_tenants.size());
    pool.parallel_for(0, srs.size(), [&](std::size_t p) {
      if (p == 0) {
        srs[0] = slave.solve(active, deficit);
      } else {
        srs[p] = probe_slaves.at(probe_tenants[p - 1])
                     .solve(probe_x[p - 1], deficit);
      }
    });
    st.stats.separation_rounds += static_cast<long>(srs.size());

    const SlaveResult& sr = srs[0];
    // An uncertified slave cannot exclude anything, so re-solving the
    // unchanged master would spin until the budget runs out. Stop with the
    // current incumbent — but only after the probe results below are
    // harvested: a feasible probe from this same fan-out may still improve
    // the incumbent we return.
    const bool vacuous_stop = sr.uncertified();
    if (sr.feasible) st.offer(inst, active, sr);
    if (!vacuous_stop) append_cut(sr.cut, std::to_string(iter));

    // ---- Probe cuts, appended in tenant order (deterministic). An
    // uncertified probe is skipped silently — only the x̄ slave's stops the
    // loop, above.
    for (std::size_t p = 0; p < probe_tenants.size(); ++p) {
      const SlaveResult& pr = srs[p + 1];
      if (pr.uncertified()) continue;
      if (pr.feasible) st.offer(inst, probe_x[p], pr);
      append_cut(pr.cut, std::to_string(iter) + "p" + std::to_string(p));
    }

    if (vacuous_stop) break;
    if (st.converged(opts.epsilon)) {
      ++iter;
      break;
    }
    if (elapsed() > opts.time_limit_sec) break;
  }

  return st.result(inst, iter, elapsed() * 1e3, opts.epsilon);
}

AdmissionResult solve_no_overbooking(const AcrrInstance& inst,
                                     const solver::MilpOptions& opts) {
  using namespace ovnes::solver;
  if (!inst.config().no_overbooking) {
    throw std::logic_error(
        "solve_no_overbooking requires AcrrConfig::no_overbooking");
  }
  const auto t0 = std::chrono::steady_clock::now();

  // Full MILP with z ≡ Λ·x: the capacity rows (14)-(16) become linear in x
  // directly, priced at Λ.
  detail::MasterModel m = detail::build_master(inst, /*with_theta=*/false);
  const auto& vars = inst.vars();

  add_usage_rows(inst, m, &VarInfo::sla, "");

  LpSession session(std::move(m.lp), opts.lp);
  const MilpResult mr = solve_milp(session, opts);
  AdmissionResult res;
  res.solve_ms = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0).count() * 1e3;
  if (mr.status != MilpStatus::Optimal && mr.status != MilpStatus::Feasible) {
    res.admitted.assign(inst.tenants().size(), std::nullopt);
    return res;
  }
  const std::vector<char> active = detail::extract_active(m, mr.x);
  std::vector<double> z(vars.size(), 0.0);
  for (std::size_t j = 0; j < vars.size(); ++j) {
    if (active[j]) z[j] = vars[j].sla;  // full-SLA reservation
  }
  res = detail::assemble_result(inst, active, z);
  res.objective = mr.objective;
  res.bound = mr.best_bound;
  res.optimal = mr.status == MilpStatus::Optimal;
  res.solve_ms = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0).count() * 1e3;
  res.master_pivots = mr.lp_iterations;
  static_cast<SolveStats&>(res) = mr;
  return res;
}

}  // namespace ovnes::acrr
