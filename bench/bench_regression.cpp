// bench_regression — the pinned regression catalog behind BENCH_10.json.
//
// Runs a fixed set of named cases spanning the stack — solver microbenches
// (kept-LU cut re-solves, single-vs-multi-tree Benders convergence),
// orchestration sweeps on the scn metro/WAN families, Monte Carlo SLA-risk
// sweeps, a traffic-table digest and a simulated service day — and emits
// one JSON report:
//
//   {
//     "schema_version": 1,
//     "mode": "full" | "smoke",
//     "catalog_fingerprint": "<hex>",     // over every case fingerprint
//     "cases": [ { "name", "tier", "fingerprint",
//                  "correctness": {...},  // exact-match fields
//                  "timing": {...} } ]    // tolerance-band fields
//   }
//
// Every case is a pure function of its config: the correctness block is
// byte-identical across runs, thread counts (OVNES_THREADS) and compilers
// (floats render through json::format_double). The fingerprint is an FNV-1a
// digest of the case's canonical config string, so any config drift shows
// up as a fingerprint mismatch instead of a silent baseline shift.
//
// `--smoke` runs only the smoke-tier cases — with configs identical to the
// same-named cases in full mode, so CI can diff its subset against the
// committed full-mode BENCH_10.json. `--out FILE` writes the report to FILE
// (stdout otherwise). scripts/check_bench_regression.py does the diffing.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "acrr/benders.hpp"
#include "acrr/kac.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "exec/thread_pool.hpp"
#include "scn/montecarlo.hpp"
#include "scn/service_day.hpp"
#include "scn/topologies.hpp"
#include "scn/traffic.hpp"
#include "solver/lp_session.hpp"
#include "solver/milp.hpp"
#include "solver/simplex.hpp"
#include "svc/service.hpp"
#include "topo/generators.hpp"

namespace ovnes {
namespace {

using solver::Coef;
using solver::LpModel;
using solver::LpResult;
using solver::LpStatus;
using solver::RowSense;

double now_ms(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Case {
  std::string name;
  std::string tier;    ///< "smoke" (runs in both modes) or "full"
  std::string config;  ///< canonical config string -> fingerprint
  std::function<void(json::Object& correctness, json::Object& timing)> run;
};

// ---------------------------------------------------------------------------
// solver/kept_lu_resolve — the LpSession cut re-solve loop at Benders-master
// shape (bench_solver_micro's benders_master_lp + sparse-support cuts),
// pinned here as counters: pivot totals, refactorizations and kept re-solves
// must not drift as the simplex/LU kernels evolve.

LpModel benders_master_lp(int vars, int rows, std::uint64_t seed) {
  RngStream rng(seed);
  LpModel m;
  for (int j = 0; j < vars; ++j) {
    m.add_variable("x" + std::to_string(j), 0.0, rng.uniform(1.0, 10.0),
                   rng.uniform(-5.0, 5.0));
  }
  const int k = std::min(vars, 8);
  for (int i = 0; i < rows; ++i) {
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

void run_kept_lu(int n, json::Object& correctness, json::Object& timing) {
  LpModel m = benders_master_lp(n, n, 11);
  RngStream rng(5);
  solver::LpSession sess(std::move(m), {});
  const LpResult* r = &sess.solve();
  const long base_refacs = sess.stats().refactorizations;
  long iters = 0;
  long dual_resolves = 0;

  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < 6 && r->status == LpStatus::Optimal; ++k) {
    // Sparse cut over the active allocation (~24 coefficients), the same
    // construction as bench_solver_micro's cut_resolve family.
    std::vector<int> pos;
    for (int j = 0; j < n; ++j) {
      if (r->x[static_cast<size_t>(j)] > 1e-9) pos.push_back(j);
    }
    if (pos.empty()) {
      for (int j = 0; j < std::min(n, 24); ++j) pos.push_back(j);
    }
    const double p = std::min(1.0, 24.0 / static_cast<double>(pos.size()));
    std::vector<Coef> coefs;
    double lhs = 0.0;
    for (const int j : pos) {
      if (!rng.flip(p)) continue;
      const double a = rng.uniform(0.1, 1.0);
      coefs.push_back({j, a});
      lhs += a * r->x[static_cast<size_t>(j)];
    }
    if (coefs.empty()) {
      const double a = rng.uniform(0.1, 1.0);
      coefs.push_back({pos.front(), a});
      lhs = a * r->x[static_cast<size_t>(pos.front())];
    }
    sess.add_cut("cut" + std::to_string(k), RowSense::LessEq, 0.8 * lhs,
                 std::move(coefs));
    r = &sess.solve();
    iters += r->iterations;
    if (r->used_dual_simplex) ++dual_resolves;
  }
  timing["wall_ms"] = now_ms(t0);

  correctness["simplex_iters"] = iters;
  correctness["dual_resolves"] = dual_resolves;
  correctness["refactorizations"] = sess.stats().refactorizations - base_refacs;
  correctness["kept_resolves"] = sess.stats().kept_solves;
  correctness["objective"] = r->objective;
  correctness["optimal"] = r->status == LpStatus::Optimal;
}

// ---------------------------------------------------------------------------
// solver/convergence — the bench_convergence grid point, pinned. Correctness
// carries the multi-tree vs single-tree cut machinery counters; the checker
// derives the single-tree gates (fewer separation rounds summed, pivots
// within 10%, optimality parity) that scripts/check_convergence_regression.py
// used to assert from bench output.

void run_convergence(double scale, std::size_t tenants,
                     json::Object& correctness, json::Object& timing) {
  using namespace ovnes::acrr;
  const topo::Topology topo = topo::make_romanian({scale, 17});
  const topo::PathCatalog catalog(topo, 2);
  std::vector<TenantModel> tms;
  RngStream rng(17);
  for (std::size_t i = 0; i < tenants; ++i) {
    TenantModel tm;
    tm.request.tenant = TenantId(static_cast<std::uint32_t>(i));
    tm.request.name = "t" + std::to_string(i);
    const auto type = static_cast<slice::SliceType>(rng.uniform_int(0, 2));
    tm.request.tmpl = slice::standard_template(type);
    tm.request.duration_epochs = 20;
    tm.request.penalty_factor = 1.0;
    tm.lambda_hat = rng.uniform(0.2, 0.6) * tm.request.tmpl.sla_rate;
    tm.sigma_hat = rng.uniform(0.05, 0.3);
    tms.push_back(std::move(tm));
  }
  const AcrrInstance inst(topo, catalog, tms);

  BendersOptions bopts;
  bopts.time_limit_sec = 60.0;
  const auto t0 = std::chrono::steady_clock::now();
  const AdmissionResult mt = solve_benders(inst, bopts);
  const double mt_ms = now_ms(t0);
  BendersOptions stopts = bopts;
  stopts.single_tree = true;
  // One branch-and-bound lane: with extra lanes the cut-pool race makes the
  // separation/pivot counters schedule-dependent (bench_convergence tolerates
  // that; a pinned baseline cannot). The classic loop pins its master to one
  // thread internally for the same reason.
  stopts.master.threads = 1;
  const auto t1 = std::chrono::steady_clock::now();
  const AdmissionResult st = solve_benders(inst, stopts);
  const double st_ms = now_ms(t1);
  const auto t2 = std::chrono::steady_clock::now();
  const AdmissionResult kac = solve_kac(inst);
  const double kac_ms = now_ms(t2);

  correctness["num_bs"] = topo.num_bs();
  correctness["vars"] = inst.vars().size();
  correctness["mt_sep_rounds"] = mt.separation_rounds;
  correctness["mt_pivots"] = mt.master_pivots;
  correctness["mt_cuts"] = mt.cuts_separated;
  correctness["mt_optimal"] = mt.optimal;
  correctness["mt_accepted"] = mt.num_accepted();
  correctness["st_sep_rounds"] = st.separation_rounds;
  correctness["st_pivots"] = st.master_pivots;
  correctness["st_cuts"] = st.cuts_separated;
  correctness["st_optimal"] = st.optimal;
  correctness["st_accepted"] = st.num_accepted();
  correctness["st_pool_hits"] = st.cuts_from_pool;
  correctness["kac_accepted"] = kac.num_accepted();
  timing["benders_ms"] = mt_ms;
  timing["st_ms"] = st_ms;
  timing["kac_ms"] = kac_ms;
}

// ---------------------------------------------------------------------------
// solver/milp_heuristics — ISSUE 10 acceptance: on a node-limited weakly
// correlated knapsack at m >= 1000 variables (BM_MilpFirstFeasible's family),
// pseudocost branching + RENS must reach the first incumbent with less
// search work and no proven-gap regression versus the historical
// most-fractional rule at the same budget. Both solves pin threads=1 so
// every counter is a pure function of the config; the checker derives the
// heuristics gates from these fields (milp_heuristics_gates).

LpModel bnb_knapsack(int n, int rows, std::uint64_t seed) {
  RngStream rng(seed);
  LpModel m;
  std::vector<std::vector<Coef>> caps(static_cast<size_t>(rows));
  std::vector<double> totals(static_cast<size_t>(rows), 0.0);
  for (int j = 0; j < n; ++j) {
    const double w = rng.uniform(1.0, 10.0);
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

void run_milp_heuristics(int n, int rows, long max_nodes,
                         json::Object& correctness, json::Object& timing) {
  using namespace ovnes::solver;
  const LpModel m = bnb_knapsack(n, rows, 23);

  MilpOptions off;  // the pre-heuristics configuration
  off.threads = 1;
  off.max_nodes = max_nodes;
  off.time_limit_sec = 600.0;  // the node budget is the binding limit
  const auto t0 = std::chrono::steady_clock::now();
  const MilpResult def = solve_milp(m, off);
  timing["default_ms"] = now_ms(t0);

  MilpOptions on = off;
  on.branching = BranchRule::Pseudocost;
  on.rens_heuristic = true;
  const auto t1 = std::chrono::steady_clock::now();
  const MilpResult heur = solve_milp(m, on);
  timing["heuristics_ms"] = now_ms(t1);

  correctness["vars"] = n;
  correctness["def_status"] = to_string(def.status);
  correctness["def_nodes"] = def.nodes;
  correctness["def_first_incumbent_nodes"] = def.first_incumbent_nodes;
  correctness["def_gap"] = def.gap();
  correctness["heur_status"] = to_string(heur.status);
  correctness["heur_nodes"] = heur.nodes;
  correctness["heur_first_incumbent_nodes"] = heur.first_incumbent_nodes;
  correctness["heur_gap"] = heur.gap();
  correctness["heuristic_incumbents"] = heur.heuristic_incumbents;
  correctness["strong_probes"] = heur.strong_probes;
  correctness["pseudocost_branchings"] = heur.pseudocost_branchings;
}

// ---------------------------------------------------------------------------
// orch/metro + orch/wan — one admission scenario on each scn topology
// family (the full-tier cases run at 100+ nodes). Correctness pins the
// generated topology (digest + structure) and the scenario outcome.

void run_family_scenario(const topo::Topology& built,
                         std::function<topo::Topology()> factory,
                         std::size_t tenants, double forecast_bias,
                         json::Object& correctness, json::Object& timing) {
  const scn::TopologyStats stats = scn::topology_stats(built);
  orch::ScenarioConfig sc;
  sc.topology_factory = std::move(factory);
  sc.seed = 42;
  sc.k_paths = 2;
  sc.algorithm = orch::Algorithm::Kac;
  sc.tenants = orch::homogeneous(slice::SliceType::eMBB, tenants, 0.5, 0.25, 4.0);
  sc.samples_per_epoch = 8;
  sc.min_epochs = 2;
  sc.max_epochs = 4;
  sc.target_rse = 0.0;
  sc.forecast_bias = forecast_bias;

  const auto t0 = std::chrono::steady_clock::now();
  const orch::ScenarioResult r = orch::run_scenario(sc);
  timing["wall_ms"] = now_ms(t0);

  correctness["topology_digest"] = hex64(topo::topology_digest(built));
  correctness["nodes"] = stats.nodes;
  correctness["links"] = stats.links;
  correctness["bs"] = stats.bs;
  correctness["connected"] = stats.connected;
  correctness["accepted"] = r.accepted;
  correctness["requested"] = r.requested;
  correctness["epochs"] = r.epochs;
  correctness["mean_net_revenue"] = r.mean_net_revenue;
  correctness["violation_minutes"] = r.violation_minutes;
}

// ---------------------------------------------------------------------------
// mc/sla_risk — the Monte Carlo sweep through the exec pool; rows_digest is
// the thread-count-independence sentinel for the whole orch pipeline.

void run_sla_risk(std::size_t scenarios, double bias, json::Object& correctness,
                  json::Object& timing) {
  scn::SlaRiskConfig cfg;
  cfg.scenarios = scenarios;
  cfg.seed = 7;
  cfg.forecast.bias = bias;
  const scn::SlaRiskResult r = scn::run_sla_risk_sweep(cfg);
  correctness["scenarios"] = r.scenarios;
  correctness["rows_digest"] = hex64(r.rows_digest);
  correctness["accept_rate"] = r.accept_rate;
  correctness["mean_net_revenue"] = r.mean_net_revenue;
  correctness["revenue_p05"] = r.revenue_p05;
  correctness["revenue_p50"] = r.revenue_p50;
  correctness["violation_prob_mean"] = r.violation_prob_mean;
  correctness["violation_minutes_mean"] = r.violation_minutes_mean;
  correctness["violation_minutes_p95"] = r.violation_minutes_p95;
  correctness["mean_overbooked_mbps"] = r.mean_overbooked_mbps;
  timing["wall_sec"] = r.wall_sec;
  timing["scenarios_per_sec"] =
      r.wall_sec > 0.0 ? static_cast<double>(r.scenarios) / r.wall_sec : 0.0;
}

// ---------------------------------------------------------------------------
// svc/service_day — a scn::make_service_day script through the admission
// service. The decision-log digest is the service's determinism contract.

void run_service_day(std::size_t num_bs, std::size_t tenants, std::size_t hours,
                     std::size_t flash_spikes, json::Object& correctness,
                     json::Object& timing) {
  scn::ServiceDayConfig day;
  day.tenants = tenants;
  day.hours = hours;
  day.seed = 2018;
  day.flash.spikes = flash_spikes;
  const std::vector<svc::Event> script = scn::make_service_day(day);
  const topo::Topology topo = topo::make_mini(
      num_bs, 16.0 * static_cast<double>(num_bs),
      32.0 * static_cast<double>(num_bs));

  svc::ServiceConfig cfg;
  cfg.num_shards = 8;
  cfg.queue_capacity = script.size() + 1;
  cfg.shard.full_resolve_every = 6;
  cfg.shard.drift_threshold = 0.25;
  cfg.shard.max_resolve_tenants = 40;
  cfg.shard.resolve_max_nodes = 2000;
  svc::AdmissionService service(topo, cfg, &exec::ThreadPool::global());

  const auto t0 = std::chrono::steady_clock::now();
  for (const svc::Event& e : script) {
    if (!service.submit(e)) std::abort();  // sized above; must not shed
  }
  service.drain();
  const double wall_ms = now_ms(t0);

  LatencyHistogram latency(0.1, 1e7, 16);
  for (const svc::Decision& d : service.decisions()) {
    if (d.event == svc::EventType::TenantArrival) latency.add(d.latency_us);
  }
  const svc::ShardStats& sh = service.stats().shards;
  correctness["script_digest"] = hex64(scn::script_digest(script));
  correctness["decision_digest"] = hex64(service.decision_log_digest());
  correctness["events"] = script.size();
  correctness["decisions"] = service.decisions().size();
  correctness["admitted"] = sh.admitted;
  correctness["rejected"] = sh.rejected_profit + sh.rejected_capacity +
                            sh.rejected_no_route + sh.rejected_solver;
  correctness["sla_violation_minutes"] = sh.violation_minutes;
  correctness["cuts_from_pool"] = sh.cuts_from_pool;
  timing["wall_ms"] = wall_ms;
  timing["decisions_per_sec"] =
      wall_ms > 0.0
          ? 1000.0 * static_cast<double>(service.decisions().size()) / wall_ms
          : 0.0;
  timing["p50_us"] = latency.p50();
  timing["p99_us"] = latency.p99();
}

// ---------------------------------------------------------------------------
// Catalog. Case names and configs are pinned: changing either regenerates
// the fingerprint and the checker demands a new committed baseline.

std::vector<Case> make_catalog() {
  std::vector<Case> cat;

  for (const int m : {200, 500, 2000}) {
    cat.push_back(
        {"solver/kept_lu_resolve_m" + std::to_string(m),
         m <= 500 ? "smoke" : "full",
         "benders_master_lp m=" + std::to_string(m) + " seed=11 cuts=6 rng=5",
         [m](json::Object& c, json::Object& t) { run_kept_lu(m, c, t); }});
  }

  const std::vector<std::pair<double, std::size_t>> conv_sizes = {
      {0.02, 6}, {0.04, 10}, {0.06, 16}};
  for (const auto& [scale, tenants] : conv_sizes) {
    char name[64];
    std::snprintf(name, sizeof name, "solver/convergence_s%03d_t%02d",
                  static_cast<int>(scale * 100), static_cast<int>(tenants));
    char config[96];
    std::snprintf(config, sizeof config,
                  "romanian scale=%s tenants=%d seed=17 k=2 tl=60",
                  json::format_double(scale).c_str(), static_cast<int>(tenants));
    const double s = scale;
    const std::size_t n = tenants;
    cat.push_back({name, tenants <= 10 ? "smoke" : "full", config,
                   [s, n](json::Object& c, json::Object& t) {
                     run_convergence(s, n, c, t);
                   }});
  }

  cat.push_back({"solver/milp_heuristics_n1000", "smoke",
                 "bnb_knapsack n=1000 rows=3 seed=23 max_nodes=2000 "
                 "pseudocost rel=4 rens threads=1",
                 [](json::Object& c, json::Object& t) {
                   run_milp_heuristics(1000, 3, 2000, c, t);
                 }});
  cat.push_back({"solver/milp_heuristics_n2000", "full",
                 "bnb_knapsack n=2000 rows=4 seed=23 max_nodes=4000 "
                 "pseudocost rel=4 rens threads=1",
                 [](json::Object& c, json::Object& t) {
                   run_milp_heuristics(2000, 4, 4000, c, t);
                 }});

  {
    scn::MetroConfig small;
    small.num_bs = 24;
    small.core_switches = 4;
    small.agg_per_core = 2;
    small.seed = 3;
    cat.push_back({"orch/metro_small", "smoke",
                   "metro bs=24 core=4 agg=2 seed=3 tenants=8 kac",
                   [small](json::Object& c, json::Object& t) {
                     run_family_scenario(
                         scn::make_metro(small),
                         [small] { return scn::make_metro(small); }, 8, 0.0, c,
                         t);
                   }});
  }
  {
    scn::MetroConfig big;  // defaults: 96 BS -> 130 nodes
    big.seed = 3;
    cat.push_back({"orch/metro_130n", "full",
                   "metro bs=96 core=6 agg=4 seed=3 tenants=16 kac",
                   [big](json::Object& c, json::Object& t) {
                     run_family_scenario(
                         scn::make_metro(big),
                         [big] { return scn::make_metro(big); }, 16, 0.0, c, t);
                   }});
  }
  {
    scn::WanConfig wan;  // defaults: 24 PoPs x (1+4) + 3 + 1 = 124 nodes
    wan.seed = 4;
    cat.push_back({"orch/wan_124n", "full",
                   "wan pops=24 bs=4 seed=4 tenants=16 kac bias=0.3",
                   [wan](json::Object& c, json::Object& t) {
                     // Forecast-error stress on the WAN case: realized demand
                     // 30% above declared, so violation minutes are non-zero.
                     run_family_scenario(
                         scn::make_wan(wan),
                         [wan] { return scn::make_wan(wan); }, 16, 0.3, c, t);
                   }});
  }

  cat.push_back({"scn/traffic_table", "smoke",
                 "tenants=32 hours=24 pareto a=1.8 diurnal=3 flash=1 seed=9",
                 [](json::Object& c, json::Object& t) {
                   scn::TrafficModelConfig cfg;
                   cfg.seed = 9;
                   cfg.flash.spikes = 1;
                   const auto t0 = std::chrono::steady_clock::now();
                   const scn::TrafficTable table = scn::make_traffic_table(cfg);
                   t["wall_ms"] = now_ms(t0);
                   c["digest"] = hex64(table.digest());
                   double fc = 0.0;
                   for (const double f : table.forecast_mbps) fc += f;
                   c["forecast_sum_mbps"] = fc;
                 }});

  cat.push_back({"mc/sla_risk_200", "smoke",
                 "scenarios=200 seed=7 mini bs=5 kac bias=0",
                 [](json::Object& c, json::Object& t) {
                   run_sla_risk(200, 0.0, c, t);
                 }});
  cat.push_back({"mc/sla_risk_1200", "full",
                 "scenarios=1200 seed=7 mini bs=5 kac bias=0.2",
                 [](json::Object& c, json::Object& t) {
                   run_sla_risk(1200, 0.2, c, t);
                 }});

  cat.push_back({"svc/service_day_smoke", "smoke",
                 "bs=8 tenants=600 hours=12 flash=0 seed=2018",
                 [](json::Object& c, json::Object& t) {
                   run_service_day(8, 600, 12, 0, c, t);
                 }});
  cat.push_back({"svc/service_day_flash", "full",
                 "bs=12 tenants=4000 hours=24 flash=2 seed=2018",
                 [](json::Object& c, json::Object& t) {
                   run_service_day(12, 4000, 24, 2, c, t);
                 }});

  return cat;
}

}  // namespace
}  // namespace ovnes

int main(int argc, char** argv) {
  using namespace ovnes;
  bool smoke = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_regression [--smoke] [--out FILE]\n");
      return 2;
    }
  }

  const std::vector<Case> catalog = make_catalog();
  std::uint64_t cat_fp = 0xcbf29ce484222325ull;
  json::Array cases;
  for (const Case& c : catalog) {
    const std::uint64_t fp = scn::fnv1a(c.name + "|" + c.config);
    // The catalog fingerprint covers every case — full and smoke alike — in
    // both modes, so a smoke run diffs cleanly against a full baseline.
    for (const char ch : hex64(fp)) {
      cat_fp ^= static_cast<unsigned char>(ch);
      cat_fp *= 0x100000001b3ull;
    }
    if (smoke && c.tier != "smoke") continue;
    std::fprintf(stderr, "[bench_regression] %s ...\n", c.name.c_str());
    json::Object correctness, timing;
    c.run(correctness, timing);
    json::Object entry;
    entry["name"] = c.name;
    entry["tier"] = c.tier;
    entry["fingerprint"] = hex64(fp);
    entry["correctness"] = correctness;
    entry["timing"] = timing;
    cases.push_back(std::move(entry));
  }

  json::Object report;
  report["schema_version"] = 1;
  report["mode"] = smoke ? "smoke" : "full";
  report["catalog_fingerprint"] = hex64(cat_fp);
  report["cases"] = std::move(cases);
  const std::string text = json::Value(std::move(report)).dump(2) + "\n";

  if (out_path != nullptr) {
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_regression: cannot open %s\n", out_path);
      return 1;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "[bench_regression] wrote %s\n", out_path);
  } else {
    std::fputs(text.c_str(), stdout);
  }
  return 0;
}
