// P1: google-benchmark microbenchmarks for the solver substrate — LP solve
// latency versus size, MILP branch-and-bound on knapsack instances, the
// Benders slave, Yen's k-shortest paths on operator topologies, and the
// derive-then-draw cost of an RngStream child.
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include "acrr/benders.hpp"
#include "acrr/kac.hpp"
#include "acrr/slave.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "solver/lp_session.hpp"
#include "solver/milp.hpp"
#include "solver/simplex.hpp"
#include "topo/generators.hpp"

namespace {

using namespace ovnes;
using namespace ovnes::solver;

LpModel random_lp(int vars, int rows, std::uint64_t seed) {
  RngStream rng(seed);
  LpModel m;
  for (int j = 0; j < vars; ++j) {
    m.add_variable("x" + std::to_string(j), 0.0, rng.uniform(1.0, 10.0),
                   rng.uniform(-5.0, 5.0));
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<Coef> coefs;
    for (int j = 0; j < vars; ++j) {
      if (rng.flip(0.4)) coefs.push_back({j, rng.uniform(0.0, 3.0)});
    }
    m.add_row("r" + std::to_string(i), RowSense::LessEq,
              rng.uniform(5.0, 50.0), std::move(coefs));
  }
  return m;
}

// Benders-master shape for the cut-resolve family: slack-heavy and
// overwhelmingly sparse, which is what the orchestrator's masters actually
// look like (each capacity row couples only the handful of tenants sharing
// one base station). nnz(A) grows linearly in m — 8 coefficients per row —
// instead of the quadratic growth of random_lp's 40%-dense rows, which is
// what makes the m ∈ {2000, 5000} tier reachable at all.
LpModel benders_master_lp(int vars, int rows, std::uint64_t seed) {
  RngStream rng(seed);
  LpModel m;
  for (int j = 0; j < vars; ++j) {
    m.add_variable("x" + std::to_string(j), 0.0, rng.uniform(1.0, 10.0),
                   rng.uniform(-5.0, 5.0));
  }
  const int k = std::min(vars, 8);
  for (int i = 0; i < rows; ++i) {
    // A contiguous window of k columns (distinct by construction) at a
    // random anchor: banded locally, unordered globally.
    const int anchor = static_cast<int>(rng.uniform_int(0, vars - 1));
    std::vector<Coef> coefs;
    for (int t = 0; t < k; ++t) {
      coefs.push_back({(anchor + t) % vars, rng.uniform(0.1, 3.0)});
    }
    m.add_row("r" + std::to_string(i), RowSense::LessEq,
              rng.uniform(5.0, 50.0), std::move(coefs));
  }
  return m;
}

void BM_SimplexSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const LpModel m = random_lp(n, n / 2, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_lp(m));
  }
  state.SetLabel(std::to_string(n) + " vars");
}
BENCHMARK(BM_SimplexSolve)->Arg(16)->Arg(64)->Arg(256);

// Benders-master shape: solve an LP, append a cut violated at the optimum,
// re-solve — either cold from scratch or warm from the previous basis. The
// `simplex_iters` counter is the total pivot count across the loop; warm
// re-solves must beat cold ones on it (tier-1 acceptance for the
// warm-start work).
void master_resolve_loop(benchmark::State& state, bool use_warm_basis) {
  const int n = 48;
  long iters = 0;
  for (auto _ : state) {
    LpModel m = random_lp(n, 24, 11);
    RngStream rng(5);
    iters = 0;
    LpResult r = solve_lp(m);
    iters += r.iterations;
    Basis basis = r.basis;
    for (int k = 0; k < 12 && r.status == LpStatus::Optimal; ++k) {
      std::vector<Coef> coefs;
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) {
        const double a = rng.uniform(0.1, 1.0);
        coefs.push_back({j, a});
        lhs += a * r.x[static_cast<size_t>(j)];
      }
      m.add_row("cut" + std::to_string(k), RowSense::LessEq, 0.8 * lhs,
                std::move(coefs));
      r = solve_lp(m, {}, use_warm_basis && !basis.empty() ? &basis : nullptr);
      iters += r.iterations;
      basis = r.basis;
    }
    benchmark::DoNotOptimize(r);
  }
  state.counters["simplex_iters"] = static_cast<double>(iters);
}

void BM_MasterResolveCold(benchmark::State& state) {
  master_resolve_loop(state, false);
}
BENCHMARK(BM_MasterResolveCold);

void BM_MasterResolveWarm(benchmark::State& state) {
  master_resolve_loop(state, true);
}
BENCHMARK(BM_MasterResolveWarm);

// P2: basis factorize/re-solve cost at Benders-master scale. A warm
// re-solve of an *unchanged* model from its own optimal basis is one basis
// factorization plus a zero-pivot pricing pass, so this isolates the
// refactorization cost of the LU kernel.
void BM_RefactorizeResolveLu(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const LpModel lp = random_lp(m, m, 17);
  const LpResult base = solve_lp(lp);
  long pivots = 0;
  for (auto _ : state) {
    const LpResult r = solve_lp(lp, {}, &base.basis);
    pivots += r.iterations;
    benchmark::DoNotOptimize(r);
  }
  state.counters["pivots"] = static_cast<double>(pivots);
  state.SetLabel("m=" + std::to_string(m) +
                 (base.basis.empty() ? " (no basis!)" : ""));
}
BENCHMARK(BM_RefactorizeResolveLu)
    ->Arg(100)->Arg(300)->Arg(500)->Unit(benchmark::kMillisecond);

// P4/P5/P6 (ISSUE 4/5/6 acceptance): cut re-solve strategy comparison at
// m ∈ {200, 300, 500} plus a KeptLu/Dual-only sparse tier at
// m ∈ {2000, 5000}. The instances are benders_master_lp's slack-heavy
// sparse masters (8 nnz per capacity row; sparse cuts over the active
// allocation) — the workload the ISSUE 6 sparse kernel is built for.
// Until PR 6 this family ran on random_lp's 40%-dense rows, so wall times
// are not comparable across that boundary; docs/benchmarks.md carries the
// PR 5-code-on-this-workload numbers for the apples-to-apples kernel
// comparison. The loop: solve, append a violated cut, re-solve, six
// times — under three re-solve strategies:
//   * KeptLu  — stateful LpSession with the live-factorization defaults:
//               each cut is absorbed as a bordered update into the kept
//               LU, dual steepest-edge pricing restores feasibility —
//               refactorizations collapse toward 0;
//   * Dual    — the rebuild-per-solve baseline: the same session with
//               keep_factors OFF (rebuild the LU from basis statuses every
//               solve, DSE weights reset each solve), the setting B&B
//               lanes run with;
//   * Cold    — stateless re-solve from scratch.
// KeptLu must beat Dual on `refactorizations`; both price the dual loop by
// steepest edge and take the same pivots, so KeptLu's wall-time lead is
// the rebuilds it skips and shows at the sparse tier (m >= 2000), not at
// m = 300. Both must beat Cold on `simplex_iters` and time at m >= 200;
// `dual_resolves` counts the re-solves that actually took the dual path.
//
// Timing covers the six cut re-solves only: the model build and the
// initial cold solve run under PauseTiming, since no re-solve strategy
// differs there and at m >= 200 the cold solve would otherwise swamp the
// cut-round regime this family exists to measure. The `simplex_iters` /
// `refactorizations` counters follow the same scope (re-solves only).
enum class CutResolveMode { KeptLu, Dual, Cold };

void cut_resolve_mode_loop(benchmark::State& state, CutResolveMode mode) {
  const int n = static_cast<int>(state.range(0));
  long iters = 0;
  long dual_resolves = 0;
  long refactorizations = 0;
  long kept_resolves = 0;
  long kernel_solves = 0;
  long hypersparse_hits = 0;
  long factor_nnz = 0;
  double fill_ratio = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    LpModel m = benders_master_lp(n, n, 11);
    RngStream rng(5);
    iters = 0;
    dual_resolves = 0;
    const auto make_cut = [&](const std::vector<double>& x) {
      // A Benders optimality cut touches one slave's tenant set, not the
      // whole variable vector: sparse support sampled from the active
      // allocation (positive x_j), ~24 coefficients.
      std::vector<int> pos;
      for (int j = 0; j < n; ++j) {
        if (x[static_cast<size_t>(j)] > 1e-9) pos.push_back(j);
      }
      if (pos.empty()) {  // degenerate all-zero optimum: any support works
        for (int j = 0; j < std::min(n, 24); ++j) pos.push_back(j);
      }
      const double p =
          std::min(1.0, 24.0 / static_cast<double>(pos.size()));
      std::vector<Coef> coefs;
      double lhs = 0.0;
      for (const int j : pos) {
        if (!rng.flip(p)) continue;
        const double a = rng.uniform(0.1, 1.0);
        coefs.push_back({j, a});
        lhs += a * x[static_cast<size_t>(j)];
      }
      if (coefs.empty()) {
        const double a = rng.uniform(0.1, 1.0);
        coefs.push_back({pos.front(), a});
        lhs = a * x[static_cast<size_t>(pos.front())];
      }
      return std::pair{coefs, 0.8 * lhs};
    };
    if (mode == CutResolveMode::KeptLu || mode == CutResolveMode::Dual) {
      SimplexOptions sopts;
      sopts.keep_factors = mode == CutResolveMode::KeptLu;
      LpSession sess(std::move(m), sopts);
      const LpResult* r = &sess.solve();
      const long base_refacs = sess.stats().refactorizations;
      const long base_ksolves = sess.stats().kernel_solves;
      const long base_hyper = sess.stats().hypersparse_hits;
      state.ResumeTiming();
      for (int k = 0; k < 6 && r->status == LpStatus::Optimal; ++k) {
        auto [coefs, rhs] = make_cut(r->x);
        sess.add_cut("cut" + std::to_string(k), RowSense::LessEq, rhs,
                     std::move(coefs));
        r = &sess.solve();
        iters += r->iterations;
        if (r->used_dual_simplex) ++dual_resolves;
      }
      refactorizations = sess.stats().refactorizations - base_refacs;
      kept_resolves = sess.stats().kept_solves;
      kernel_solves = sess.stats().kernel_solves - base_ksolves;
      hypersparse_hits = sess.stats().hypersparse_hits - base_hyper;
      factor_nnz = sess.stats().factor_nnz;
      fill_ratio = sess.stats().fill_ratio;
      benchmark::DoNotOptimize(r);
    } else {
      LpResult r = solve_lp(m);
      state.ResumeTiming();
      for (int k = 0; k < 6 && r.status == LpStatus::Optimal; ++k) {
        auto [coefs, rhs] = make_cut(r.x);
        m.add_row("cut" + std::to_string(k), RowSense::LessEq, rhs,
                  std::move(coefs));
        r = solve_lp(m);
        iters += r.iterations;
      }
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["simplex_iters"] = static_cast<double>(iters);
  if (mode == CutResolveMode::KeptLu || mode == CutResolveMode::Dual) {
    state.counters["dual_resolves"] = static_cast<double>(dual_resolves);
    state.counters["refactorizations"] = static_cast<double>(refactorizations);
    state.counters["kept_resolves"] = static_cast<double>(kept_resolves);
    // ISSUE 6 sparsity counters: kernel traffic over the six re-solves and
    // the shape of the latest factorization the session holds.
    state.counters["kernel_solves"] = static_cast<double>(kernel_solves);
    state.counters["hypersparse_hits"] =
        static_cast<double>(hypersparse_hits);
    state.counters["factor_nnz"] = static_cast<double>(factor_nnz);
    state.counters["fill_ratio"] = fill_ratio;
  }
  state.SetLabel("m=" + std::to_string(n));
}

void BM_CutResolveKeptLu(benchmark::State& state) {
  cut_resolve_mode_loop(state, CutResolveMode::KeptLu);
}
BENCHMARK(BM_CutResolveKeptLu)
    ->Arg(200)->Arg(300)->Arg(500)
    // Sparse tier: linear-ish under the sparse kernel. KeptLu/Dual only —
    // the cold strategy would dominate total bench time without saying
    // anything new about the kernel.
    ->Arg(2000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_CutResolveDual(benchmark::State& state) {
  cut_resolve_mode_loop(state, CutResolveMode::Dual);
}
BENCHMARK(BM_CutResolveDual)
    ->Arg(200)->Arg(300)->Arg(500)
    ->Arg(2000)->Arg(5000)->Unit(benchmark::kMillisecond);

void BM_CutResolveCold(benchmark::State& state) {
  cut_resolve_mode_loop(state, CutResolveMode::Cold);
}
BENCHMARK(BM_CutResolveCold)
    ->Arg(200)->Arg(300)->Arg(500)->Unit(benchmark::kMillisecond);

// Branch-and-bound node re-solves, lane-shaped. The master is
// benders_master_lp plus 16 dense optimality cuts (each over about half
// the columns, violated at the optimum it was cut from — a multi-tree
// Benders master's cuts span every tenant), so a dual pivot row touches
// most columns. Each node is what a B&B lane does: keep_factors off,
// push(), branch one fractional variable (x <= floor or x >= ceil), solve
// from the root basis, pop(). The rows never change, so this isolates
// per-node overhead: dual pricing and the column view.
// `dual_pivots_per_solve` is the mean pivot count of the node LPs that the
// dual simplex restored; `column_builds` counts the session's CSC builds
// over the whole run (1: the view outlives every node).
void BM_NodeResolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LpModel master;
  {
    LpSession cutter(benders_master_lp(n, n, 11));
    RngStream rng(3);
    for (int k = 0; k < 16 && cutter.solve().status == LpStatus::Optimal;
         ++k) {
      const std::vector<double>& x = cutter.last().x;
      std::vector<Coef> coefs;
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) {
        if (!rng.flip(0.5)) continue;
        const double a = rng.uniform(0.1, 1.0);
        coefs.push_back({j, a});
        lhs += a * x[static_cast<size_t>(j)];
      }
      cutter.add_cut("dense" + std::to_string(k), RowSense::LessEq, 0.8 * lhs,
                     std::move(coefs));
    }
    master = cutter.model();
  }
  SimplexOptions lane_lp;
  lane_lp.keep_factors = false;
  LpSession sess(std::move(master), lane_lp);
  const LpResult& root = sess.solve();
  if (root.status != LpStatus::Optimal) {
    state.SkipWithError("root LP not optimal");
    return;
  }
  const SharedBasis root_snapshot = sess.basis();
  struct Branch {
    int var;
    double lower, upper;
  };
  std::vector<Branch> children;
  for (int j = 0; j < n && children.size() < 32; ++j) {
    const double v = root.x[static_cast<size_t>(j)];
    if (std::abs(v - std::round(v)) < 1e-6) continue;
    const Variable& var = sess.model().variable(j);
    children.push_back({j, var.lower, std::floor(v)});
    children.push_back({j, std::min(std::ceil(v), var.upper), var.upper});
  }
  long solves = 0;
  long dual_solves = 0;
  long dual_pivots = 0;
  for (auto _ : state) {
    for (const Branch& b : children) {
      sess.push();
      sess.set_bounds(b.var, b.lower, b.upper);
      sess.set_warm_basis(root_snapshot);
      const LpResult& r = sess.solve();
      ++solves;
      if (r.used_dual_simplex) {
        ++dual_solves;
        dual_pivots += r.iterations;
      }
      benchmark::DoNotOptimize(r.objective);
      sess.pop();
    }
  }
  state.counters["node_solves"] = static_cast<double>(children.size());
  state.counters["dual_solve_share"] =
      solves > 0 ? static_cast<double>(dual_solves) / static_cast<double>(solves)
                 : 0.0;
  state.counters["dual_pivots_per_solve"] =
      dual_solves > 0
          ? static_cast<double>(dual_pivots) / static_cast<double>(dual_solves)
          : 0.0;
  state.counters["column_builds"] =
      static_cast<double>(sess.stats().column_builds);
  state.SetLabel("m=" + std::to_string(sess.model().num_rows()) +
                 " n=" + std::to_string(n));
}
BENCHMARK(BM_NodeResolve)->Arg(200)->Arg(500)->Unit(benchmark::kMillisecond);

// P3: branch-and-bound node throughput (ISSUE 3 acceptance). A weakly
// correlated multi-knapsack forces a deep tree; `nodes_per_sec` is the
// headline counter. BM_MilpBnbThroughput/T runs T parallel lanes on a
// T-wide pool — on a multicore host 4 lanes must clear >= 2x the serial
// node rate, with the objective identical to the serial run.
LpModel correlated_knapsack(int n, int rows, std::uint64_t seed) {
  RngStream rng(seed);
  LpModel m;
  std::vector<std::vector<Coef>> caps(static_cast<size_t>(rows));
  std::vector<double> totals(static_cast<size_t>(rows), 0.0);
  for (int j = 0; j < n; ++j) {
    const double w = rng.uniform(1.0, 10.0);
    // Profit tracks weight: bound pruning stays weak, the tree deep.
    m.add_binary("b" + std::to_string(j), -(w + rng.uniform(0.0, 2.0)));
    for (int r = 0; r < rows; ++r) {
      const double wr = r == 0 ? w : rng.uniform(1.0, 10.0);
      caps[static_cast<size_t>(r)].push_back({j, wr});
      totals[static_cast<size_t>(r)] += wr;
    }
  }
  for (int r = 0; r < rows; ++r) {
    m.add_row("cap" + std::to_string(r), RowSense::LessEq,
              0.5 * totals[static_cast<size_t>(r)],
              std::move(caps[static_cast<size_t>(r)]));
  }
  return m;
}

void BM_MilpBnbThroughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const LpModel m = correlated_knapsack(34, 2, 23);
  exec::ThreadPool pool(static_cast<std::size_t>(threads));
  MilpOptions opts;
  opts.threads = threads;
  opts.pool = &pool;
  long nodes = 0;
  long peak_open = 0;
  double objective = 0.0;
  for (auto _ : state) {
    const MilpResult r = solve_milp(m, opts);
    nodes += r.nodes;
    peak_open = std::max(peak_open, r.peak_open_nodes);
    objective = r.objective;
  }
  state.counters["nodes_per_sec"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kIsRate);
  // Memory footprint of the open pool (ISSUE 4 satellite): queued nodes
  // hold a refcounted handle to the parent basis instead of a full Basis
  // copy, so peak RSS stays flat as peak_open_nodes grows. ru_maxrss is a
  // process-wide high-water mark (kilobytes on Linux) — compare across
  // the benchmark binary's variants, not across runs.
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  state.counters["peak_open_nodes"] = static_cast<double>(peak_open);
  state.counters["peak_rss_mb"] =
      static_cast<double>(ru.ru_maxrss) / 1024.0;
  state.SetLabel("obj=" + std::to_string(objective));
}
BENCHMARK(BM_MilpBnbThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Anytime first-feasible behaviour (ISSUE 10): the heuristics variant of
// BM_MilpBnbThroughput at m >= 1000 variables. range(0) = variable count,
// range(1) = heuristics+pseudocost on/off. Node-limited so the counters
// measure time-to-first-incumbent and the proven gap at equal search
// budget; the pinned twins live in bench_regression's
// solver/milp_heuristics_* cases.
void BM_MilpFirstFeasible(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool heur = state.range(1) != 0;
  const LpModel m = correlated_knapsack(n, 3, 23);
  MilpOptions opts;
  opts.threads = 1;
  // The root dive alone consumes hundreds of node-counted LP solves at
  // n >= 1000, so the budget must scale with n for first_incumbent_nodes
  // to be meaningful (mirrors the bench_regression pinned cases).
  opts.max_nodes = 2 * n;
  if (heur) {
    opts.branching = BranchRule::Pseudocost;
    opts.rens_heuristic = true;
  }
  long first = -1;
  long heur_incumbents = 0;
  double gap = 0.0;
  for (auto _ : state) {
    const MilpResult r = solve_milp(m, opts);
    first = r.first_incumbent_nodes;
    heur_incumbents = r.heuristic_incumbents;
    gap = r.gap();
  }
  state.counters["first_incumbent_nodes"] = static_cast<double>(first);
  state.counters["heuristic_incumbents"] = static_cast<double>(heur_incumbents);
  state.counters["gap"] = gap;
}
BENCHMARK(BM_MilpFirstFeasible)
    ->Args({1000, 0})->Args({1000, 1})->Args({2000, 0})->Args({2000, 1})
    ->Unit(benchmark::kMillisecond);

void BM_MilpKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  RngStream rng(7);
  LpModel m;
  std::vector<Coef> cap;
  for (int j = 0; j < n; ++j) {
    m.add_binary("b" + std::to_string(j), -rng.uniform(1.0, 10.0));
    cap.push_back({j, rng.uniform(1.0, 5.0)});
  }
  m.add_row("cap", RowSense::LessEq, static_cast<double>(n), cap);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_milp(m));
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(12)->Arg(24)->Arg(48);

acrr::AcrrInstance make_instance(const topo::Topology& topo,
                                 const topo::PathCatalog& catalog,
                                 std::size_t tenants) {
  RngStream rng(3);
  std::vector<acrr::TenantModel> tms;
  for (std::size_t i = 0; i < tenants; ++i) {
    acrr::TenantModel tm;
    tm.request.tenant = TenantId(static_cast<std::uint32_t>(i));
    tm.request.tmpl = slice::standard_template(
        static_cast<slice::SliceType>(rng.uniform_int(0, 2)));
    tm.request.duration_epochs = 20;
    tm.lambda_hat = rng.uniform(0.2, 0.5) * tm.request.tmpl.sla_rate;
    tm.sigma_hat = 0.2;
    tms.push_back(std::move(tm));
  }
  return acrr::AcrrInstance(topo, catalog, tms);
}

void BM_BendersSlave(benchmark::State& state) {
  const topo::Topology topo = topo::make_romanian({0.04, 9});
  const topo::PathCatalog catalog(topo, 2);
  const acrr::AcrrInstance inst =
      make_instance(topo, catalog, static_cast<std::size_t>(state.range(0)));
  acrr::SlaveProblem slave(inst);
  std::vector<char> active(inst.vars().size(), 0);
  // Activate every tenant on its first feasible CU.
  for (int t = 0; t < static_cast<int>(inst.tenants().size()); ++t) {
    const auto cus = inst.feasible_cus(t);
    if (cus.empty()) continue;
    for (const auto& group : inst.vars_by_bs(t, cus.front())) {
      if (!group.empty()) active[static_cast<size_t>(group.front())] = 1;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(slave.solve(active, true));
  }
}
BENCHMARK(BM_BendersSlave)->Arg(5)->Arg(10)->Arg(20);

void BM_BendersFull(benchmark::State& state) {
  const topo::Topology topo = topo::make_romanian({0.03, 9});
  const topo::PathCatalog catalog(topo, 2);
  const acrr::AcrrInstance inst =
      make_instance(topo, catalog, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acrr::solve_benders(inst));
  }
}
BENCHMARK(BM_BendersFull)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_KacFull(benchmark::State& state) {
  const topo::Topology topo = topo::make_romanian({0.03, 9});
  const topo::PathCatalog catalog(topo, 2);
  const acrr::AcrrInstance inst =
      make_instance(topo, catalog, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acrr::solve_kac(inst));
  }
}
BENCHMARK(BM_KacFull)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_KShortestPaths(benchmark::State& state) {
  const topo::Topology topo = topo::make_romanian({0.06, 9});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topo::PathCatalog(topo, static_cast<std::size_t>(state.range(0))));
  }
  state.SetLabel("k=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_KShortestPaths)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

// RngStream as the scn/ generators use it: derive a child keyed by a fresh
// index, then take k uniform draws. A service-day child draws 3-5 values, so
// at k = 1 and 16 the cost is derive plus the engine's lazy first draws;
// k = 1000 is a long stream. per_draw is the wall time per uniform draw.
void BM_RngDerive(benchmark::State& state) {
  const std::int64_t draws = state.range(0);
  const RngStream root(static_cast<std::uint64_t>(draws) + 2018);
  std::uint64_t index = 0;
  for (auto _ : state) {
    RngStream child = root.derive("tenant", index++);
    double sum = 0.0;
    for (std::int64_t k = 0; k < draws; ++k) sum += child.uniform();
    benchmark::DoNotOptimize(sum);
  }
  state.counters["per_draw"] = benchmark::Counter(
      static_cast<double>(state.iterations() * draws),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RngDerive)->Arg(1)->Arg(16)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
