#include "solver/heuristics.hpp"

#include <algorithm>
#include <cmath>

#include "solver/branching.hpp"

namespace ovnes::solver {

namespace {

/// Slack for "is the alternative integer still inside the (restricted)
/// box" checks during backtracking; integer bounds are exact so anything
/// below 0.5 works.
constexpr double kBoundEps = 1e-9;

}  // namespace

SubDiveResult fix_and_dive(LpSession& sess, const std::vector<int>& int_vars,
                           const SubDiveOptions& opts,
                           const AcceptGate* gate) {
  SubDiveResult res;

  // One entry per frame this search has pushed: the fixed variable and the
  // adjacent integer not yet tried at that level. pop()ing the frame
  // restores the pre-fix bounds AND the basis handle held at push() time,
  // so the alternative child re-solves warm from the same parent basis the
  // first child did — the dual-simplex bound-flip case.
  struct Level {
    int var;
    double alt;      ///< untried adjacent integer value
    bool alt_tried;  ///< both children explored; level is exhausted
  };
  std::vector<Level> stack;
  const auto unwind = [&] {
    for (std::size_t i = 0; i < stack.size(); ++i) sess.pop();
    stack.clear();
  };

  for (;;) {
    if (opts.should_stop && opts.should_stop()) {
      res.hit_limit = true;
      unwind();
      return res;
    }
    if (res.lp_solves >= opts.max_lp_solves) {
      res.hit_limit = true;
      unwind();
      return res;
    }
    const LpResult* lp = &sess.solve();
    ++res.lp_solves;
    if (lp->status == LpStatus::InvalidBasis) {
      // Stale caller-seeded warm basis: retry cold, like the tree lanes.
      sess.clear_basis();
      lp = &sess.solve();
      ++res.lp_solves;
    }
    // An unsolved LP (iteration limit) proves nothing about this sub-box:
    // it dead-ends like an infeasible child, but the truncation is
    // recorded — "not found" is then not a certificate of absence.
    if (lp->status == LpStatus::IterationLimit) res.hit_limit = true;
    bool dead =
        lp->status != LpStatus::Optimal || lp->objective >= opts.cutoff;

    if (!dead) {
      const std::vector<BranchCandidate> cands = fractional_candidates(
          sess.model(), int_vars, lp->x);
      if (cands.empty()) {
        // Integral candidate below the cutoff: acceptance gate, then done.
        if (gate != nullptr) {
          if (res.gate_rounds >= opts.max_gate_rounds) {
            res.hit_limit = true;
            unwind();
            return res;
          }
          ++res.gate_rounds;
          const GateVerdict verdict = (*gate)(*lp);
          if (verdict == GateVerdict::Abandon) {
            // No certificate either way: the candidate must be discarded
            // (it could under-estimate the true cost and wrongly prune the
            // optimum) and the caller must fold this into hit_limit.
            res.abandoned = true;
            res.hit_limit = true;
            unwind();
            return res;
          }
          if (verdict == GateVerdict::Reject) continue;  // cuts appended;
                                                         // re-solve in place
        }
        res.found = true;
        res.objective = lp->objective;
        res.x = lp->x;
        for (int j : int_vars) {
          res.x[static_cast<std::size_t>(j)] =
              std::round(res.x[static_cast<std::size_t>(j)]);
        }
        unwind();
        return res;
      }
      // Descend: fix the most fractional candidate to its nearest integer
      // (ties to the lower variable index via ascending candidate order).
      std::size_t pick = 0;
      double best_dist = -1.0;
      for (std::size_t i = 0; i < cands.size(); ++i) {
        if (cands[i].dist() > best_dist) {
          best_dist = cands[i].dist();
          pick = i;
        }
      }
      const BranchCandidate& c = cands[pick];
      const double fix = std::round(c.value);
      const double alt = fix <= c.value ? fix + 1.0 : fix - 1.0;
      sess.push();
      sess.set_bounds(c.var, fix, fix);
      stack.push_back({c.var, alt, false});
      continue;
    }

    // Dead end: backtrack to the deepest level with an untried
    // alternative. Validity of the alternative is checked against the
    // box *after* popping the level's frame — an enclosing RENS
    // restriction may have shrunk it to a single value.
    bool resumed = false;
    while (!stack.empty()) {
      Level lvl = stack.back();
      sess.pop();
      stack.pop_back();
      if (lvl.alt_tried) continue;
      const auto& v = sess.model().variable(lvl.var);
      if (lvl.alt < v.lower - kBoundEps || lvl.alt > v.upper + kBoundEps) {
        continue;
      }
      sess.push();
      sess.set_bounds(lvl.var, lvl.alt, lvl.alt);
      lvl.alt_tried = true;
      stack.push_back(lvl);
      resumed = true;
      break;
    }
    if (!resumed) return res;  // neighborhood exhausted (stack is empty)
  }
}

long rens_restrict(LpSession& sess, const std::vector<int>& int_vars,
                   const std::vector<double>& x) {
  long fixed = 0;
  for (int j : int_vars) {
    const double v = x[static_cast<std::size_t>(j)];
    const double r = std::round(v);
    const auto& var = sess.model().variable(j);
    if (std::abs(v - r) <= kIntTol) {
      const double pin = std::clamp(r, var.lower, var.upper);
      sess.set_bounds(j, pin, pin);
      ++fixed;
    } else {
      sess.set_bounds(j, std::max(var.lower, std::floor(v)),
                      std::min(var.upper, std::ceil(v)));
    }
  }
  return fixed;
}

}  // namespace ovnes::solver
