#include "solver/milp.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>

#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "solver/cut_pool.hpp"
#include "solver/heuristics.hpp"

namespace ovnes::solver {

const char* to_string(MilpStatus s) {
  switch (s) {
    case MilpStatus::Optimal: return "optimal";
    case MilpStatus::Feasible: return "feasible";
    case MilpStatus::Infeasible: return "infeasible";
    case MilpStatus::NoSolution: return "no_solution";
  }
  return "unknown";
}

void SolveStats::merge(const SolveStats& o) {
  cuts_separated += o.cuts_separated;
  cuts_from_pool += o.cuts_from_pool;
  cuts_evicted += o.cuts_evicted;
  separation_rounds += o.separation_rounds;
  pseudocost_branchings += o.pseudocost_branchings;
  strong_probes += o.strong_probes;
  heuristic_incumbents += o.heuristic_incumbents;
  if (o.first_incumbent_nodes >= 0 &&
      (first_incumbent_nodes < 0 ||
       o.first_incumbent_nodes < first_incumbent_nodes)) {
    first_incumbent_nodes = o.first_incumbent_nodes;
  }
}

double MilpResult::gap() const {
  if (status == MilpStatus::Optimal) return 0.0;
  if (status != MilpStatus::Feasible) return kInf;
  return (objective - best_bound) / std::max(1.0, std::abs(objective));
}

namespace {

/// Per-probe LP pivot cap of a strong-branching probe; a truncated dual
/// probe still yields a valid degradation lower bound.
constexpr int kStrongProbeIterations = 200;
/// Fractional root separation rounds under MilpOptions::benders_lp_cuts.
constexpr int kMaxLpCutRounds = 8;
/// Integral-candidate separation rounds per node (and per heuristic dive);
/// hitting it drops the node conservatively.
constexpr int kMaxSeparationRounds = 64;
/// Fraction of integer variables freed ("destroyed") per LNS episode.
constexpr double kLnsDestroyFraction = 0.25;

/// OVNES_MILP_DEBUG, read once per process.
bool milp_debug() {
  static const bool on = std::getenv("OVNES_MILP_DEBUG") != nullptr;
  return on;
}

struct Node {
  // Bound overrides relative to the root model: (var, lower, upper).
  std::vector<std::tuple<int, double, double>> fixes;
  double parent_bound = -kInf;  ///< LP bound of the parent (for pruning)
  int depth = 0;
  long seq = 0;  ///< creation order; tie-break so one lane mimics old DFS
  /// Parent's optimal LP basis, shared refcounted with the sibling node
  /// and any LpSession frame still holding it: after branching only the
  /// branched variable is pushed out of bounds, so the child LP re-solves
  /// from here with a handful of dual pivots instead of a full Phase 1.
  SharedBasis warm;
  // Branching that created this node (pseudocost bookkeeping): comparing
  // this node's LP bound against parent_bound yields the true observed
  // degradation for (branch_var, direction). branch_var = -1 at the root.
  int branch_var = -1;
  bool branch_up = false;
  double branch_frac = 0.0;  ///< parent LP fractional part of branch_var
};

/// Heap order for the best-first pool: lowest parent bound first; among
/// equal bounds the deepest node, then the most recently created one (the
/// "nearest side" child is pushed last, so it is explored first — the
/// preference the old DFS realized by stack order).
struct NodeWorse {
  bool operator()(const Node& a, const Node& b) const {
    if (a.parent_bound != b.parent_bound) return a.parent_bound > b.parent_bound;
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.seq < b.seq;
  }
};

double elapsed_sec(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// State shared by every branch-and-bound lane. Heap-allocated and owned
/// via shared_ptr by each lane task: a task dequeued after the search
/// finished still finds live (if closed) state, observes `done` and exits,
/// so solve_milp never blocks on queued-but-unstarted pool tasks (which
/// could deadlock a saturated pool whose workers are all inside MILP
/// solves themselves).
struct BnbShared {
  const LpModel* base = nullptr;
  MilpOptions opts;
  std::vector<int> int_vars;
  std::chrono::steady_clock::time_point t0;
  /// Warm handle for the root node (and the dive): the caller session's
  /// incumbent basis; null on the stateless overload.
  SharedBasis root_warm;
  /// The solve's cut pool, shared by its lanes; non-null iff
  /// opts.lazy_cuts is set.
  std::unique_ptr<CutPool> cuts;
  /// Serializes lazy-cut callback invocations: the callback contract lets
  /// it keep unsynchronized per-decomposition state (slave sessions, core
  /// points). Separate from `mu` — separation runs slave LPs and must not
  /// stall the incumbent/pool bookkeeping of other lanes.
  std::mutex sep_mu;

  /// Pseudocost state (BranchRule::Pseudocost runs only), guarded by
  /// pc_mu — separate from `mu` so strong-branching probe bookkeeping
  /// never stalls the incumbent/pool publishing of other lanes.
  std::mutex pc_mu;
  Pseudocosts pc;  ///< guarded by pc_mu
  /// The result's counters. `pseudocost_branchings` and `strong_probes`
  /// (probe LPs reserved in pairs before the fan-out, so the budget is
  /// never oversubscribed across lanes) are guarded by pc_mu, every other
  /// field by mu. cuts_evicted is read off the pool at compose time.
  SolveStats stats;

  std::mutex mu;
  std::condition_variable cv;
  // All fields below are guarded by mu.
  std::vector<Node> open;  ///< heap under NodeWorse
  long next_seq = 0;
  long peak_open = 0;      ///< high-water mark of the open pool
  int in_flight = 0;       ///< popped nodes whose LP is being evaluated
  bool done = false;
  double incumbent = kInf;
  std::vector<double> best_x;
  long nodes = 0;
  long lp_iterations = 0;
  long lns_next = 0;  ///< node count that triggers the next LNS episode
  long lns_runs = 0;  ///< episodes started (seeds the destroy stream)
  bool hit_limit = false;
  bool unbounded = false;
  bool root_solved = false;
  double root_bound = -kInf;
  /// First exception thrown by any lane; rethrown from run(). A throwing
  /// lane also sets `done` so every other lane winds down promptly.
  std::exception_ptr error;
  /// Min over parent bounds of nodes whose LP hit the iteration limit: the
  /// subtree was abandoned unexplored, so its bound must stay in the
  /// best_bound accounting or the reported gap would overstate certainty.
  double dropped_bound = kInf;

  [[nodiscard]] double absolute_gap() const {
    return opts.gap_tol * std::max(1.0, std::abs(incumbent));
  }
  void push_open(Node n) {
    n.seq = next_seq++;
    open.push_back(std::move(n));
    std::push_heap(open.begin(), open.end(), NodeWorse{});
    peak_open = std::max(peak_open, static_cast<long>(open.size()));
  }
  [[nodiscard]] Node pop_open() {
    std::pop_heap(open.begin(), open.end(), NodeWorse{});
    Node n = std::move(open.back());
    open.pop_back();
    return n;
  }
};

/// Most fractional variable within the best (lowest) priority class that
/// has any fractional member; -1 when integral.
int pick_branch_var(const LpModel& base, const std::vector<int>& int_vars,
                    const std::vector<double>& x) {
  int best = -1;
  int best_prio = std::numeric_limits<int>::max();
  double best_frac_dist = 0.0;
  for (int j : int_vars) {
    const double v = x[static_cast<size_t>(j)];
    const double frac = v - std::floor(v);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist <= kIntTol) continue;
    const int prio = base.variable(j).branch_priority;
    if (prio < best_prio || (prio == best_prio && dist > best_frac_dist)) {
      best_prio = prio;
      best_frac_dist = dist;
      best = j;
    }
  }
  return best;
}

void round_integers(const std::vector<int>& int_vars, std::vector<double>& x) {
  for (int j : int_vars) {
    x[static_cast<size_t>(j)] = std::round(x[static_cast<size_t>(j)]);
  }
}

/// Install a strictly better incumbent and keep the anytime counters.
/// Caller holds sh.mu (or runs in the serial pre-lane phase, where no
/// other thread can observe the fields). `heuristic` marks dive/RENS/LNS
/// sources for the heuristic_incumbents counter.
void install_incumbent(BnbShared& sh, double obj, const std::vector<double>& x,
                       bool heuristic) {
  if (obj >= sh.incumbent) return;
  const bool first = sh.best_x.empty();
  sh.incumbent = obj;
  sh.best_x = x;
  round_integers(sh.int_vars, sh.best_x);
  if (first) sh.stats.first_incumbent_nodes = sh.nodes;
  if (heuristic) ++sh.stats.heuristic_incumbents;
}

/// \brief Measured bound deltas of one strong-branching probe pair.
struct ProbeOutcome {
  double down = -1.0;  ///< child-bound delta; < 0 when the probe proved nothing
  double up = -1.0;
  long iters = 0;      ///< LP pivots spent (caller folds into lp_iterations)
};

/// One strong-branching probe: the child LP bound delta after pushing
/// `var` to one side, solved on a copy of the node model so the lane
/// session's live result stays untouched. The copy + solve_lp(warm) pair
/// makes a probe a pure function of (node model, basis), identical
/// whether it runs inline or on a fanned-out pool lane.
double probe_delta(const LpModel& node_model, const SimplexOptions& lp_opts,
                   const Basis* warm, int var, bool up, double v,
                   double parent_obj, long& iters) {
  LpModel copy = node_model;
  const auto& vb = node_model.variable(var);
  if (up) {
    copy.set_bounds(var, std::ceil(v), vb.upper);
  } else {
    copy.set_bounds(var, vb.lower, std::floor(v));
  }
  LpResult r = solve_lp(copy, lp_opts, warm);
  if (r.status == LpStatus::InvalidBasis) r = solve_lp(copy, lp_opts);
  iters += r.iterations;
  if (r.status == LpStatus::Optimal) {
    return std::max(r.objective - parent_obj, 0.0);
  }
  if (r.status == LpStatus::Infeasible) {
    // The whole child prunes — the strongest possible degradation. Feed a
    // bounded-but-large estimate so the running mean stays finite.
    return std::max(1.0, std::abs(parent_obj));
  }
  if (r.status == LpStatus::IterationLimit && r.used_dual_simplex) {
    // Truncated dual simplex: the running objective is a monotone lower
    // bound on the child LP, hence a valid under-estimate of the delta.
    return std::max(r.objective - parent_obj, 0.0);
  }
  return -1.0;  // no usable information
}

/// Branch-variable selection dispatch. BranchRule::MostFractional keeps
/// the historical pick_branch_var byte-for-byte (pinned trajectories);
/// BranchRule::Pseudocost strong-branches unreliable candidates first —
/// probe pairs fanned over idle pool lanes, observations applied in
/// candidate order so the pseudocost state is independent of probe
/// completion order — then maximizes the product score. Returns -1 when
/// the point is integral; `probe_iters` accumulates probe LP pivots.
int choose_branch(BnbShared& sh, const LpModel& node_model, const LpResult& lp,
                  const SharedBasis& warm, long& probe_iters) {
  const MilpOptions& opts = sh.opts;
  if (opts.branching != BranchRule::Pseudocost) {
    return pick_branch_var(*sh.base, sh.int_vars, lp.x);
  }
  const std::vector<BranchCandidate> cands =
      fractional_candidates(*sh.base, sh.int_vars, lp.x);
  if (cands.empty()) return -1;
  if (cands.size() == 1) return cands[0].var;  // nothing to rank

  // Reserve probe pairs for unreliable candidates under the global budget
  // (both reservations and the counter live under pc_mu, so concurrent
  // lanes can never oversubscribe max_strong_probes).
  std::vector<std::size_t> to_probe;
  {
    std::lock_guard<std::mutex> lk(sh.pc_mu);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (sh.pc.reliable(cands[i].var, opts.reliability)) continue;
      if (sh.stats.strong_probes + 2 > opts.max_strong_probes) break;
      sh.stats.strong_probes += 2;
      to_probe.push_back(i);
    }
  }
  if (!to_probe.empty()) {
    SimplexOptions probe_lp = opts.lp;
    probe_lp.keep_factors = false;
    probe_lp.max_iterations = kStrongProbeIterations;
    std::vector<ProbeOutcome> out(to_probe.size());
    const Basis* warm_ptr = warm != nullptr ? warm.get() : nullptr;
    const auto probe_one = [&](std::size_t k) {
      const BranchCandidate& c = cands[to_probe[k]];
      ProbeOutcome& o = out[k];
      o.down = probe_delta(node_model, probe_lp, warm_ptr, c.var,
                           /*up=*/false, c.value, lp.objective, o.iters);
      o.up = probe_delta(node_model, probe_lp, warm_ptr, c.var,
                         /*up=*/true, c.value, lp.objective, o.iters);
    };
    exec::ThreadPool& pool =
        opts.pool != nullptr ? *opts.pool : exec::ThreadPool::global();
    // parallel_for is re-entrant (the calling lane drains its own chunk
    // counter), so fanning out from inside a lane task cannot deadlock a
    // saturated pool; with one lane it degenerates to the plain loop.
    pool.parallel_for(0, to_probe.size(), probe_one);
    std::lock_guard<std::mutex> lk(sh.pc_mu);
    for (std::size_t k = 0; k < to_probe.size(); ++k) {
      const BranchCandidate& c = cands[to_probe[k]];
      if (out[k].down >= 0.0) sh.pc.observe_down(c.var, out[k].down, c.frac);
      if (out[k].up >= 0.0) sh.pc.observe_up(c.var, out[k].up, 1.0 - c.frac);
      probe_iters += out[k].iters;
    }
  }

  std::vector<double> scores(cands.size());
  std::lock_guard<std::mutex> lk(sh.pc_mu);
  for (std::size_t i = 0; i < cands.size(); ++i) {
    scores[i] = sh.pc.score(cands[i].var, cands[i].frac);
  }
  const int pick = select_by_score(cands, scores);
  bool probed = false;
  for (std::size_t k : to_probe) probed = probed || cands[k].var == pick;
  if (!probed && sh.pc.reliable(pick, opts.reliability)) {
    // The chosen variable was ranked purely from accumulated pseudocosts
    // (already reliable, no probe this node): a pseudocost branching.
    ++sh.stats.pseudocost_branchings;
  }
  return pick;
}

/// \brief One separation attempt at an LP point (lazy-cut runs only).
///
/// Pool lookup first — a pooled row violated at `x` rejects the candidate
/// without invoking the callback (no slave solve) — then the serialized
/// callback. Appends nothing: the caller owns how rows enter its session
/// (in-frame for node separation, permanent for the dive). Counters are
/// returned for the caller to publish under its own locking discipline.
struct SeparationStep {
  std::vector<Rowdef> rows;  ///< violated rows to append (empty = accept)
  bool from_pool = false;    ///< rows came from the pool; no callback ran
  bool called = false;       ///< callback was invoked (one separation round)
  bool abandon = false;      ///< callback failed without a certificate
  long fresh = 0;            ///< rows newly admitted to the pool
};

SeparationStep separate_candidate(BnbShared& sh, const LpResult& lp,
                                  bool integral) {
  SeparationStep step;
  step.rows = sh.cuts->violated_at(lp.x);
  if (!step.rows.empty()) {
    step.from_pool = true;
    return step;
  }
  LazyCutResult sep;
  {
    std::lock_guard<std::mutex> lk(sh.sep_mu);
    sep = sh.opts.lazy_cuts(LazyCutContext{lp.x, lp.objective, integral});
    // Pool-only rows go in under the separation lock, in callback order
    // and ahead of the rejection rows.
    for (Rowdef& r : sep.pool_cuts) {
      if (sh.cuts->add(std::move(r))) ++step.fresh;
    }
  }
  step.called = true;
  if (sep.abandon) {
    step.abandon = true;
    return step;
  }
  for (Rowdef& r : sep.cuts) {
    Rowdef pooled = r;  // the pool normalizes its copy; callers append
    if (sh.cuts->add(std::move(pooled))) ++step.fresh;  // the original
    step.rows.push_back(std::move(r));
  }
  return step;
}

/// Shared tail of a heuristic episode (RENS at the root, LNS re-runs from
/// the incumbent): budgeted fix-and-dive on the session's restricted
/// frame, integral candidates routed through the lazy-cut acceptance gate
/// (a heuristic incumbent passes the exact same verification as a tree
/// candidate), bookkeeping folded into sh under mu. The caller owns the
/// enclosing restriction frame; cuts the gate appends land inside the
/// dive's nested frames (permanent copies reach every lane via the pool).
/// Returns true when an incumbent was installed.
bool run_heuristic_dive(BnbShared& sh, LpSession& sess, double cutoff) {
  const MilpOptions& opts = sh.opts;
  long gate_fresh = 0, gate_pool = 0, gate_rounds = 0;
  const AcceptGate gate = [&](const LpResult& cand) {
    SeparationStep s = separate_candidate(sh, cand, true);
    gate_rounds += s.called ? 1 : 0;
    gate_fresh += s.fresh;
    gate_pool += s.from_pool ? static_cast<long>(s.rows.size()) : 0;
    if (s.abandon) return GateVerdict::Abandon;
    if (s.rows.empty()) return GateVerdict::Accept;
    for (Rowdef& r : s.rows) sess.add_cut(std::move(r));
    return GateVerdict::Reject;
  };
  SubDiveOptions dopts;
  dopts.cutoff = cutoff;
  dopts.max_gate_rounds = kMaxSeparationRounds;
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    dopts.max_lp_solves =
        std::min(opts.heur_node_budget, std::max(0L, opts.max_nodes - sh.nodes));
  }
  dopts.should_stop = [&sh] {
    if (elapsed_sec(sh.t0) > sh.opts.time_limit_sec) return true;
    std::lock_guard<std::mutex> lk(sh.mu);
    return sh.done;
  };
  const long it0 = sess.stats().iterations;
  const SubDiveResult sub = fix_and_dive(sess, sh.int_vars, dopts,
                                         sh.cuts != nullptr ? &gate : nullptr);
  bool installed = false;
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.nodes += sub.lp_solves;  // heuristic LPs consume node budget
    sh.lp_iterations += sess.stats().iterations - it0;
    sh.stats.separation_rounds += gate_rounds;
    sh.stats.cuts_separated += gate_fresh;
    sh.stats.cuts_from_pool += gate_pool;
    if (sub.abandoned) {
      // Heuristic-found-but-unverified candidate: fold conservatively —
      // the point was discarded, and the solve can no longer claim
      // Optimal on a tree whose separation oracle failed mid-run (the
      // same accounting as an abandoned lane node).
      sh.hit_limit = true;
    }
    if (sub.found && sub.objective < sh.incumbent) {
      install_incumbent(sh, sub.objective, sub.x, /*heuristic=*/true);
      installed = true;
    }
  }
  return installed;
}

/// One LNS episode: fix a seeded subset of integer variables to the
/// incumbent (destroy fraction freed), fix-and-dive the rest under the
/// heuristic budget with the incumbent objective as cutoff. Runs on the
/// claiming lane's own session between nodes (frame-scoped; pool cuts
/// synced first) and releases its in_flight slot when done.
void lns_episode(BnbShared& sh, std::optional<LpSession>& sess,
                 std::size_t& pool_version, long run_idx, double cutoff,
                 const std::vector<double>& incumbent) {
  const MilpOptions& opts = sh.opts;
  int depth0 = 0;
  try {
    if (!sess.has_value()) {
      SimplexOptions lane_lp = opts.lp;
      lane_lp.keep_factors = false;
      sess.emplace(*sh.base, lane_lp);
    }
    if (sh.cuts != nullptr) {
      auto fresh_rows = sh.cuts->fetch_new(pool_version);
      for (Rowdef& r : fresh_rows) sess->add_cut(std::move(r));
    }
    depth0 = sess->depth();
    // Destroy set: a pure function of the episode index, independent of
    // which lane claims it (RngStream::derive splittability contract).
    RngStream rng = RngStream(0x6f766e65736c6e73ULL)  // "ovneslns"
                        .derive("lns", static_cast<std::uint64_t>(run_idx));
    sess->push();
    lns_restrict(*sess, sh.int_vars, incumbent,
                 [&](int) { return rng.flip(kLnsDestroyFraction); });
    run_heuristic_dive(sh, *sess, cutoff);
    sess->pop();
  } catch (...) {
    std::lock_guard<std::mutex> lk(sh.mu);
    if (sh.error == nullptr) sh.error = std::current_exception();
    sh.done = true;
  }
  // Unwind a frame left open by a throw so the lane's next node still
  // evaluates on the root box.
  if (sess.has_value()) {
    while (sess->depth() > depth0) sess->pop();
  }
  std::lock_guard<std::mutex> lk(sh.mu);
  --sh.in_flight;
  sh.cv.notify_all();
}

/// OVNES_MILP_DEBUG diagnostics for an integral node whose solution still
/// violates the model. `work` carries the node's bounds (still applied).
void debug_integral_violation(const LpModel& work, const MilpOptions& opts,
                              const LpResult& lp) {
  std::fprintf(stderr, "MILP DEBUG: integral node violates by %g (obj %g)\n",
               work.max_violation(lp.x), lp.objective);
  SimplexOptions strict = opts.lp;
  strict.refresh_interval = 1;
  const LpResult lp2 = solve_lp(work, strict);
  std::fprintf(stderr, "  strict resolve: status=%s obj=%g viol=%g\n",
               to_string(lp2.status), lp2.objective,
               lp2.status == LpStatus::Optimal ? work.max_violation(lp2.x) : -1.0);
  // Dump the model for offline replay.
  FILE* f = std::fopen("/tmp/fail_lp.txt", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "  (model dump skipped: /tmp/fail_lp.txt not writable)\n");
    return;
  }
  std::fprintf(f, "%d %d\n", work.num_vars(), work.num_rows());
  for (int j = 0; j < work.num_vars(); ++j) {
    const auto& v = work.variable(j);
    std::fprintf(f, "v %.17g %.17g %.17g\n", v.lower, v.upper, v.cost);
  }
  for (int i = 0; i < work.num_rows(); ++i) {
    const auto& r = work.row(i);
    std::fprintf(f, "r %d %.17g %zu", (int)r.sense, r.rhs, r.coefs.size());
    for (const auto& c : r.coefs) std::fprintf(f, " %d %.17g", c.var, c.value);
    std::fprintf(f, "\n");
  }
  std::fclose(f);
}

/// Evaluate one popped node (its in_flight slot is held by the caller):
/// solve the LP inside a session delta frame, then publish the outcome —
/// incumbent / children / bound bookkeeping — under the shared lock.
/// Returns false when the search is done and the lane should exit. Note
/// `sh.base` is only dereferenced here, i.e. while a node is held: after
/// `done` no node is ever acquired, so a lane task that starts late never
/// touches a caller model that may already be gone.
bool evaluate_node(BnbShared& sh, Node& node,
                   std::optional<LpSession>& sess,
                   std::size_t& pool_version) {
  const LpModel& base = *sh.base;
  const MilpOptions& opts = sh.opts;

  // ---- LP evaluation, outside the lock. Lane-private session,
  // constructed once per lane: the node's bound fixes are applied inside a
  // push()ed delta frame (undone by pop() below) and the parent's basis
  // rides in as a refcounted handle. keep_factors stays OFF for node
  // evaluation: a lane-persistent factorization would make a node's LP
  // result depend on which nodes the lane happened to solve before, and
  // the determinism contract (serial and parallel agree on the objective)
  // needs each node to be a pure function of (bounds, warm basis). The
  // dive heuristic and the Benders master session — both strictly
  // sequential — do keep theirs.
  if (!sess.has_value()) {
    SimplexOptions lane_lp = opts.lp;
    lane_lp.keep_factors = false;
    sess.emplace(base, lane_lp);
  }
  if (sh.cuts != nullptr) {
    // Permanent lane sync, at frame depth 0: rows other lanes pooled since
    // this lane's last node join the lane model for good. Cuts are
    // globally valid, so bounds of nodes evaluated earlier remain valid
    // relaxations — they merely lacked these rows.
    auto fresh_rows = sh.cuts->fetch_new(pool_version);
    for (Rowdef& r : fresh_rows) sess->add_cut(std::move(r));
  }
  sess->push();
  for (const auto& [var, lo, hi] : node.fixes) sess->set_bounds(var, lo, hi);
  sess->set_warm_basis(node.warm);
  const LpResult* lp_ptr = &sess->solve();
  if (lp_ptr->status == LpStatus::InvalidBasis) {
    // Safety net: a node's warm handle is its parent's snapshot, taken on
    // whichever lane evaluated the parent and possibly over in-frame
    // separation rows this lane's model does not carry. A basis that
    // references rows beyond this model must not kill the node — drop it
    // and re-solve cold (plain solve_lp callers get the error instead).
    sess->clear_basis();
    lp_ptr = &sess->solve();
  }
  SharedBasis child_basis = sess->basis();  // one handle for both children
  // Pseudocost observation from the real child evaluation: this node IS
  // one side of its parent's branching, and its (pre-separation) LP bound
  // delta is the ground truth the strong-branching probes only estimate.
  if (opts.branching == BranchRule::Pseudocost && node.branch_var >= 0 &&
      node.parent_bound > -kInf && lp_ptr->status == LpStatus::Optimal) {
    const double delta = lp_ptr->objective - node.parent_bound;
    std::lock_guard<std::mutex> lk(sh.pc_mu);
    if (node.branch_up) {
      sh.pc.observe_up(node.branch_var, delta, 1.0 - node.branch_frac);
    } else {
      sh.pc.observe_down(node.branch_var, delta, node.branch_frac);
    }
  }
  long probe_iters = 0;
  int frac = -1;
  if (lp_ptr->status == LpStatus::Optimal) {
    frac = choose_branch(sh, sess->model(), *lp_ptr, child_basis, probe_iters);
    if (frac < 0 && milp_debug() &&
        sess->model().max_violation(lp_ptr->x) > 1e-5) {
      debug_integral_violation(sess->model(), opts, *lp_ptr);
    }
  }

  // ---- Lazy separation. Cuts are appended *in-frame*: they steer
  // this node's re-solves and vanish at pop(); the permanent copy reaches
  // every lane (this one included) through the pool sync above. Each
  // re-solve starts from the previous optimal basis, i.e. the add_cut
  // dual-simplex path.
  bool sep_dropped = false;
  long sep_rounds = 0, sep_new = 0, sep_pool = 0, sep_resolves = 0;
  long extra_lp_iters = 0;
  if (sh.cuts != nullptr && lp_ptr->status == LpStatus::Optimal) {
    const auto resolve = [&] {
      extra_lp_iters += lp_ptr->iterations;  // bank the superseded solve
      ++sep_resolves;
      lp_ptr = &sess->solve();
      frac = -1;
      if (lp_ptr->status == LpStatus::Optimal) {
        child_basis = sess->basis();
        frac = choose_branch(sh, sess->model(), *lp_ptr, child_basis,
                             probe_iters);
      }
    };
    // Fractional root rounds (SCIP's benderslp idea): tighten the root
    // bound with callback cuts before any branching happens.
    if (opts.benders_lp_cuts && node.fixes.empty()) {
      for (int round = 0; round < kMaxLpCutRounds; ++round) {
        if (frac < 0 || lp_ptr->status != LpStatus::Optimal) break;
        if (elapsed_sec(sh.t0) > opts.time_limit_sec) break;
        SeparationStep step = separate_candidate(sh, *lp_ptr, false);
        sep_rounds += step.called ? 1 : 0;
        sep_new += step.fresh;
        sep_pool += step.from_pool ? static_cast<long>(step.rows.size()) : 0;
        if (step.abandon || step.rows.empty()) break;
        for (Rowdef& r : step.rows) sess->add_cut(std::move(r));
        resolve();
      }
    }
    // Integral acceptance gate: a candidate becomes an incumbent only if
    // separation returns no violated row. Every re-solve consumes node
    // budget like a dive step, so repeated rejections terminate; any
    // limit hit mid-separation drops the node conservatively (its parent
    // bound folds into best_bound at publish, and the solve can no longer
    // claim Optimal).
    while (frac < 0 && lp_ptr->status == LpStatus::Optimal) {
      bool over_budget;
      bool hopeless;
      {
        std::lock_guard<std::mutex> lk(sh.mu);
        over_budget = sh.nodes + sep_resolves >= opts.max_nodes;
        // A candidate no better than the incumbent is pruned at publish
        // regardless of the separation verdict (cuts only push its
        // objective up): skip the slave solves.
        hopeless = lp_ptr->objective >= sh.incumbent - sh.absolute_gap();
      }
      if (hopeless) break;
      if (over_budget || elapsed_sec(sh.t0) > opts.time_limit_sec ||
          sep_rounds >= kMaxSeparationRounds) {
        sep_dropped = true;
        break;
      }
      SeparationStep step = separate_candidate(sh, *lp_ptr, true);
      sep_rounds += step.called ? 1 : 0;
      sep_new += step.fresh;
      sep_pool += step.from_pool ? static_cast<long>(step.rows.size()) : 0;
      if (step.abandon) {
        sep_dropped = true;
        break;
      }
      if (step.rows.empty()) break;  // candidate survives separation
      for (Rowdef& r : step.rows) sess->add_cut(std::move(r));
      resolve();
    }
  }
  const LpResult& lp = *lp_ptr;

  // ---- Publish the outcome.
  bool keep_going;
  {
    std::unique_lock<std::mutex> lk(sh.mu);
    sh.lp_iterations += lp.iterations + extra_lp_iters + probe_iters;
    sh.nodes += sep_resolves;  // separation re-solves consume node budget
    sh.stats.cuts_separated += sep_new;
    sh.stats.cuts_from_pool += sep_pool;
    sh.stats.separation_rounds += sep_rounds;
    if (!sh.root_solved && lp.status == LpStatus::Optimal) {
      sh.root_bound = lp.objective;
      sh.root_solved = true;
    }
    if (sep_dropped) {
      // Node abandoned mid-separation (limit or certificate-less slave):
      // same conservative accounting as an LP iteration-limit node — the
      // unverified candidate is NOT accepted and the subtree's bound stays
      // in best_bound.
      sh.hit_limit = true;
      sh.dropped_bound = std::min(sh.dropped_bound, node.parent_bound);
    } else switch (lp.status) {
      case LpStatus::Infeasible:
        break;  // dead branch
      case LpStatus::Unbounded:
        // Unbounded relaxation: treat conservatively, abandon the search.
        sh.unbounded = true;
        sh.done = true;
        break;
      case LpStatus::IterationLimit:
      case LpStatus::InvalidBasis:
        // The LP is unsolved — its x/duals are garbage and must not seed
        // an incumbent or a branching decision. Drop the node but keep its
        // parent bound so the result can never claim Optimal or a tighter
        // bound than was actually proved. (InvalidBasis is unreachable
        // after the cold retry above; handled identically for safety.)
        sh.hit_limit = true;
        sh.dropped_bound = std::min(sh.dropped_bound, node.parent_bound);
        break;
      case LpStatus::Optimal: {
        if (lp.objective >= sh.incumbent - sh.absolute_gap()) break;
        if (frac < 0) {
          // Integer feasible.
          install_incumbent(sh, lp.objective, lp.x, /*heuristic=*/false);
          break;
        }
        // Branch. The preferred ("nearest") side is pushed last so the
        // heap tie-break explores it first. Both children share the
        // parent's basis through one refcounted handle.
        const double v = lp.x[static_cast<size_t>(frac)];
        node.warm.reset();  // superseded by child_basis
        Node down = node, up = node;
        down.fixes.emplace_back(frac, base.variable(frac).lower, std::floor(v));
        up.fixes.emplace_back(frac, std::ceil(v), base.variable(frac).upper);
        down.parent_bound = up.parent_bound = lp.objective;
        down.depth = up.depth = node.depth + 1;
        down.warm = child_basis;
        up.warm = child_basis;
        down.branch_var = up.branch_var = frac;
        down.branch_up = false;
        up.branch_up = true;
        down.branch_frac = up.branch_frac = v - std::floor(v);
        if (v - std::floor(v) <= 0.5) {
          sh.push_open(std::move(up));
          sh.push_open(std::move(down));
        } else {
          sh.push_open(std::move(down));
          sh.push_open(std::move(up));
        }
        break;
      }
    }
    --sh.in_flight;
    sh.cv.notify_all();
    keep_going = !sh.done;
  }
  // Close the node's delta frame: bounds return to the root box and the
  // lane session is ready for the next (possibly unrelated) node.
  sess->pop();
  return keep_going;
}

/// One branch-and-bound lane: pop best-first nodes, evaluate their LP on a
/// lane-private LpSession (delta frames, no per-node model copy), update
/// the shared incumbent/bounds and push children. Runs on the calling
/// thread and, in parallel mode, as a pool task per extra lane.
void bnb_lane(const std::shared_ptr<BnbShared>& sh) {
  const MilpOptions& opts = sh->opts;
  std::optional<LpSession> sess;  // lane-private, created on first node
  std::size_t pool_version = 0;   // cut-pool log position this lane synced

  for (;;) {
    // Periodic LNS re-runs from the current incumbent: whichever lane
    // first observes the node count crossing the threshold claims the
    // episode (the claimed in_flight slot keeps the search alive while it
    // runs) and executes it on its own session between nodes.
    if (opts.lns_interval > 0) {
      long run_idx = -1;
      double cutoff = kInf;
      std::vector<double> incumbent;
      {
        std::lock_guard<std::mutex> lk(sh->mu);
        if (!sh->done && !sh->best_x.empty() && sh->nodes >= sh->lns_next &&
            sh->nodes < opts.max_nodes) {
          sh->lns_next = sh->nodes + opts.lns_interval;
          run_idx = sh->lns_runs++;
          cutoff = sh->incumbent;
          incumbent = sh->best_x;
          ++sh->in_flight;
        }
      }
      if (run_idx >= 0) {
        lns_episode(*sh, sess, pool_version, run_idx, cutoff, incumbent);
      }
    }
    Node node;
    {
      std::unique_lock<std::mutex> lk(sh->mu);
      for (;;) {
        if (sh->done) return;
        if (sh->nodes >= opts.max_nodes ||
            elapsed_sec(sh->t0) > opts.time_limit_sec) {
          sh->hit_limit = true;
          sh->done = true;
          sh->cv.notify_all();
          return;
        }
        if (!sh->open.empty()) break;
        if (sh->in_flight == 0) {  // nothing left and nobody producing
          sh->done = true;
          sh->cv.notify_all();
          return;
        }
        sh->cv.wait(lk);
      }
      node = sh->pop_open();
      ++sh->nodes;
      if (node.parent_bound >= sh->incumbent - sh->absolute_gap()) {
        continue;  // cannot improve (covered by the incumbent in best_bound)
      }
      ++sh->in_flight;
    }
    // Exception barrier: anything thrown while this lane holds a node
    // (set_bounds on malformed bounds, bad_alloc on the model copy, ...)
    // is recorded for run() to rethrow, `done` stops the other lanes, and
    // the held in_flight is released so nobody waits forever. Without the
    // barrier a throw on a pool task would reach the worker loop and
    // std::terminate.
    bool keep_going;
    try {
      keep_going = evaluate_node(*sh, node, sess, pool_version);
    } catch (...) {
      std::lock_guard<std::mutex> lk(sh->mu);
      if (sh->error == nullptr) sh->error = std::current_exception();
      sh->done = true;
      --sh->in_flight;
      sh->cv.notify_all();
      return;
    }
    if (!keep_going) return;
  }
}

class BranchAndBound {
 public:
  BranchAndBound(const LpModel& model, const MilpOptions& opts,
                 LpSession* session = nullptr)
      : base_(model), opts_(opts), int_vars_(model.integer_vars()),
        session_(session) {}

  MilpResult run() {
    MilpResult res;
    const auto t0 = std::chrono::steady_clock::now();
    auto sh = std::make_shared<BnbShared>();
    sh->base = &base_;
    sh->opts = opts_;
    if (opts_.lazy_cuts) sh->cuts = std::make_unique<CutPool>();
    sh->int_vars = int_vars_;
    sh->t0 = t0;
    if (opts_.branching == BranchRule::Pseudocost) {
      sh->pc.resize(static_cast<std::size_t>(base_.num_vars()));
    }

    if (session_ != nullptr) {
      // Stateful root re-solve on the caller's session: after a Benders
      // cut append the incumbent basis is dual-feasible, so this is the
      // dual-simplex path; the resulting basis stays live in the session
      // for the next call and seeds the dive and the root node here. The
      // root node's lane re-verifies from that basis (one refactorization
      // + a zero-pivot pricing pass) — accepted so branching/incumbent
      // logic stays in one place, the lanes.
      const LpResult& root = session_->solve();
      sh->lp_iterations += root.iterations;
      if (root.status == LpStatus::Optimal) {
        sh->root_solved = true;
        sh->root_bound = root.objective;
        sh->root_warm = session_->basis();
      } else if (root.status == LpStatus::Infeasible) {
        res.status = MilpStatus::Infeasible;
        res.lp_iterations = static_cast<int>(sh->lp_iterations);
        return res;
      } else if (root.status == LpStatus::Unbounded) {
        res.status = MilpStatus::NoSolution;
        res.best_bound = -kInf;
        res.lp_iterations = static_cast<int>(sh->lp_iterations);
        return res;
      }
      // IterationLimit: fall through — the tree re-derives what it can.
    }

    bool dive_hit_limit = false;
    if (opts_.dive_heuristic) dive(*sh, dive_hit_limit);
    if (opts_.rens_heuristic) rens(*sh);
    // First LNS episode fires lns_interval nodes after the serial phase
    // (the heuristics above already consumed node budget).
    sh->lns_next = sh->nodes + opts_.lns_interval;

    Node root;
    root.warm = sh->root_warm;
    {
      std::lock_guard<std::mutex> lk(sh->mu);
      sh->push_open(std::move(root));
    }

    exec::ThreadPool& pool =
        opts_.pool != nullptr ? *opts_.pool : exec::ThreadPool::global();
    std::size_t lanes = opts_.threads > 0
                            ? static_cast<std::size_t>(opts_.threads)
                            : pool.size();
    for (std::size_t l = 1; l < lanes; ++l) {
      pool.post([sh] { bnb_lane(sh); });
    }
    bnb_lane(sh);

    // The calling lane is done; wait for in-flight nodes on other lanes
    // (running, hence finite) before reading results. Queued-but-unstarted
    // lane tasks need no wait: they observe `done` and exit.
    std::unique_lock<std::mutex> lk(sh->mu);
    sh->cv.wait(lk, [&] { return sh->in_flight == 0; });
    if (sh->error != nullptr) std::rethrow_exception(sh->error);

    // ---- Compose result.
    res.nodes = sh->nodes;
    res.lp_iterations = static_cast<int>(sh->lp_iterations);
    res.peak_open_nodes = sh->peak_open;
    static_cast<SolveStats&>(res) = sh->stats;
    if (sh->cuts != nullptr) res.cuts_evicted = sh->cuts->stats().evicted;
    const bool hit_limit = sh->hit_limit || dive_hit_limit;
    if (sh->unbounded) {
      res.status = MilpStatus::NoSolution;
      res.best_bound = -kInf;
      return res;
    }
    if (sh->best_x.empty()) {
      res.status = hit_limit ? MilpStatus::NoSolution : MilpStatus::Infeasible;
      res.best_bound = sh->root_solved ? sh->root_bound : -kInf;
      return res;
    }
    res.objective = sh->incumbent;
    res.x = std::move(sh->best_x);
    if (hit_limit || !sh->open.empty()) {
      res.status = MilpStatus::Feasible;
      // Bound: min over open nodes, dropped (limit-hit) nodes, and root.
      double bound = std::min(sh->incumbent, sh->dropped_bound);
      for (const Node& n : sh->open) bound = std::min(bound, n.parent_bound);
      if (!sh->root_solved) bound = -kInf;
      res.best_bound = std::min(bound, sh->incumbent);
    } else {
      res.status = MilpStatus::Optimal;
      res.best_bound = sh->incumbent;
    }
    return res;
  }

 private:
  /// LP-guided rounding dive: repeatedly pin the most fractional integer
  /// variable to its nearest integer and re-solve on a throwaway session
  /// (each re-solve is a bound-fix delta, i.e. the dual-simplex case).
  /// Either reaches an integral feasible point (the initial incumbent) or
  /// dead-ends. Runs serially before the lanes start; every dive LP counts
  /// as a node and the node/time limits abort it like any other part of
  /// the search.
  void dive(BnbShared& sh, bool& dive_hit_limit) const {
    LpSession sess(base_, opts_.lp);
    sess.set_warm_basis(sh.root_warm);
    int sep_rounds = 0;
    // Separation re-solves share the step budget: `continue` advances
    // `step`, and every pass through the loop head counts a node against
    // the shared limits like any other dive LP.
    for (std::size_t step = 0;
         step <= int_vars_.size() + static_cast<std::size_t>(sep_rounds);
         ++step) {
      if (sh.nodes >= opts_.max_nodes ||
          elapsed_sec(sh.t0) > opts_.time_limit_sec) {
        dive_hit_limit = true;
        return;
      }
      ++sh.nodes;
      const LpResult* lp = &sess.solve();
      if (lp->status == LpStatus::InvalidBasis) {
        // Safety net: the root handle is the caller session's basis on
        // this very model, so this should not fire; if it does, go cold
        // instead of silently skipping the dive.
        sess.clear_basis();
        lp = &sess.solve();
      }
      sh.lp_iterations += lp->iterations;
      if (lp->status != LpStatus::Optimal) return;  // dead end
      const int frac = pick_branch_var(base_, int_vars_, lp->x);
      if (frac < 0) {
        if (sh.cuts != nullptr) {
          // The dive seeds the incumbent, so its integral point passes the
          // same acceptance gate as a lane candidate: an unseparated point
          // (e.g. an under-estimated Benders theta) could wrongly prune
          // the true optimum later. Cuts land permanently in the dive
          // session (no frames here) and in the pool for the lanes.
          if (sep_rounds >= kMaxSeparationRounds) return;
          SeparationStep s = separate_candidate(sh, *lp, true);
          sh.stats.separation_rounds += s.called ? 1 : 0;
          sh.stats.cuts_separated += s.fresh;
          sh.stats.cuts_from_pool +=
              s.from_pool ? static_cast<long>(s.rows.size()) : 0;
          if (s.abandon) {
            // Heuristic-found-but-unverified candidate: discard it AND
            // record the truncation — the separation oracle failed
            // without a certificate, so this solve must never claim
            // Optimal on the strength of a tree that pruned against
            // later-verified incumbents only (conservative folding, same
            // accounting as an abandoned lane node).
            dive_hit_limit = true;
            return;
          }
          if (!s.rows.empty()) {
            ++sep_rounds;
            for (Rowdef& r : s.rows) sess.add_cut(std::move(r));
            continue;  // re-solve with the cuts enforced
          }
        }
        if (milp_debug() &&
            sess.model().max_violation(lp->x) > 1e-5) {
          std::fprintf(stderr, "MILP DEBUG dive: violates by %g (obj %g)\n",
                       sess.model().max_violation(lp->x), lp->objective);
        }
        install_incumbent(sh, lp->objective, lp->x, /*heuristic=*/true);
        return;
      }
      const double v = std::round(lp->x[static_cast<size_t>(frac)]);
      sess.set_bounds(frac, v, v);
    }
  }

  /// RENS (relaxation-enforced neighborhood search) at the root: on its
  /// own session (like the dive), re-solve the root LP, fix near-integral
  /// integers and shrink the rest to their rounding box, then fix-and-dive
  /// the restricted sub-MILP under the heuristic budget. Where the plain
  /// dive dead-ends on the first infeasible rounding, the backtracking
  /// sub-search recovers — the time-to-first-feasible lever on the hard
  /// multi-knapsack instances. Runs serially before the lanes start.
  void rens(BnbShared& sh) const {
    if (int_vars_.empty()) return;
    if (sh.nodes >= opts_.max_nodes ||
        elapsed_sec(sh.t0) > opts_.time_limit_sec) {
      return;
    }
    LpSession sess(base_, opts_.lp);
    sess.set_warm_basis(sh.root_warm);
    if (sh.cuts != nullptr) {
      // Start from the rows the dive separated (already counted there).
      std::size_t version = 0;
      auto pooled = sh.cuts->fetch_new(version);
      for (Rowdef& r : pooled) sess.add_cut(std::move(r));
    }
    ++sh.nodes;  // the root re-solve counts like a dive step
    const LpResult* root = &sess.solve();
    if (root->status == LpStatus::InvalidBasis) {
      sess.clear_basis();
      root = &sess.solve();
    }
    sh.lp_iterations += root->iterations;
    if (root->status != LpStatus::Optimal) return;
    const std::vector<double> root_x = root->x;  // dive solves invalidate *root
    sess.push();
    rens_restrict(sess, int_vars_, root_x);
    run_heuristic_dive(sh, sess, sh.incumbent);
    sess.pop();
  }

  const LpModel& base_;
  MilpOptions opts_;
  std::vector<int> int_vars_;
  LpSession* session_ = nullptr;  ///< not owned; see solve_milp(LpSession&)
};

}  // namespace

MilpResult solve_milp(const LpModel& model, const MilpOptions& opts) {
  return BranchAndBound(model, opts).run();
}

MilpResult solve_milp(LpSession& session, const MilpOptions& opts) {
  return BranchAndBound(session.model(), opts, &session).run();
}

}  // namespace ovnes::solver
