#include "solver/lp_session.hpp"

#include <stdexcept>
#include <utility>

namespace ovnes::solver {

LpSession::LpSession(LpModel model, SimplexOptions opts)
    : model_(std::move(model)), opts_(opts) {}

LpSession LpSession::borrow(const LpModel& model, SimplexOptions opts) {
  LpSession s(LpModel{}, opts);
  s.borrowed_ = &model;
  return s;
}

LpModel& LpSession::mutable_model() {
  if (borrowed_ != nullptr) {
    throw std::logic_error(
        "LpSession: typed deltas/frames need an owned model "
        "(session was created with borrow())");
  }
  return model_;
}

int LpSession::add_cut(std::string name, RowSense sense, double rhs,
                       std::vector<Coef> coefs) {
  const int row = mutable_model().add_row(std::move(name), sense, rhs,
                                          std::move(coefs));
  columns_stale_ = true;
  return row;
}

int LpSession::add_cut(Rowdef row) {
  return add_cut(std::move(row.name), row.sense, row.rhs,
                 std::move(row.coefs));
}

void LpSession::set_bounds(int var, double lower, double upper) {
  LpModel& m = mutable_model();
  if (!frames_.empty()) {
    const Variable& v = m.variable(var);
    frames_.back().saved_bounds.push_back({var, v.lower, v.upper});
  }
  m.set_bounds(var, lower, upper);
}

void LpSession::set_cost(int var, double cost) {
  LpModel& m = mutable_model();
  if (!frames_.empty()) {
    frames_.back().saved_costs.push_back({var, m.variable(var).cost});
  }
  m.set_cost(var, cost);
}

void LpSession::push() {
  Frame f;
  f.num_rows = mutable_model().num_rows();
  f.basis = basis_;
  frames_.push_back(std::move(f));
}

void LpSession::pop() {
  if (frames_.empty()) {
    throw std::logic_error("LpSession::pop without matching push");
  }
  LpModel& m = mutable_model();
  Frame& f = frames_.back();
  // Undo in reverse order so a variable touched twice inside the frame
  // lands back on its pre-frame values.
  for (auto it = f.saved_costs.rbegin(); it != f.saved_costs.rend(); ++it) {
    m.set_cost(it->var, it->cost);
  }
  for (auto it = f.saved_bounds.rbegin(); it != f.saved_bounds.rend(); ++it) {
    m.set_bounds(it->var, it->lower, it->upper);
  }
  if (f.num_rows != m.num_rows()) {
    m.truncate_rows(f.num_rows);
    columns_stale_ = true;
  }
  basis_ = std::move(f.basis);
  frames_.pop_back();
  // The kept factorization is NOT rolled back here — the next solve's
  // adoption check does the right thing on its own: if the frame only
  // touched bounds and the restored snapshot marks the same variable set
  // Basic, the incumbent kernel is reused verbatim (a factorization
  // depends on the basis columns, not on bounds); if rows were appended
  // inside the frame, or the frame's solve failed (which cleared the
  // kernel's slot order), or the basic set moved, the next solve
  // refactorizes from the restored snapshot's statuses instead of
  // resuming on stale or failed factors.
}

const LpResult& LpSession::solve() {
  const Basis* warm =
      (basis_ != nullptr && !basis_->empty()) ? basis_.get() : nullptr;
  // The live factorization rides along only for owned, keep-alive sessions:
  // one-shot borrowed wrappers have nothing to carry it to, and
  // keep_factors = false restores the rebuild-from-statuses behaviour.
  BasisFactors* kept =
      (borrowed_ == nullptr && opts_.keep_factors) ? &kept_ : nullptr;
  // A borrowed model is the caller's, who may have changed its rows since
  // the last solve, so its view is rebuilt every time.
  if (columns_stale_ || borrowed_ != nullptr) {
    model().build_columns(columns_);
    columns_stale_ = false;
    ++stats_.column_builds;
  }
  result_ = detail::simplex_solve(model(), opts_, warm, kept, columns_);
  if (result_.status == LpStatus::IterationLimit && result_.used_warm_start) {
    // Warm starting is a pivot-count optimization and must never degrade
    // the outcome: a numerically poor incumbent basis that stalls the
    // solve is retried cold before reporting failure. (The failed run
    // already cleared kept_'s order, so the retry reuses only the kernel
    // allocation, never the failed factors.)
    const int warm_iters = result_.iterations;
    const int warm_refacs = result_.refactorizations;
    const long warm_ksolves = result_.kernel_solves;
    const long warm_hyper = result_.hypersparse_hits;
    const int warm_reord = result_.reorderings;
    result_ = detail::simplex_solve(model(), opts_, nullptr, kept, columns_);
    result_.iterations += warm_iters;
    result_.refactorizations += warm_refacs;
    result_.kernel_solves += warm_ksolves;
    result_.hypersparse_hits += warm_hyper;
    result_.reorderings += warm_reord;
  }

  ++stats_.solves;
  stats_.iterations += result_.iterations;
  stats_.refactorizations += result_.refactorizations;
  stats_.kernel_solves += result_.kernel_solves;
  stats_.hypersparse_hits += result_.hypersparse_hits;
  stats_.reorderings += result_.reorderings;
  stats_.factor_nnz = result_.factor_nnz;
  stats_.fill_ratio = result_.fill_ratio;
  if (result_.used_dual_simplex) ++stats_.dual_solves;
  if (result_.used_kept_factors) ++stats_.kept_solves;
  if (result_.used_warm_start) {
    ++stats_.warm_solves;
  } else {
    ++stats_.cold_solves;
  }

  // One-shot borrowed sessions (the solve_lp wrappers) are discarded right
  // after the solve: skip the incumbent-basis snapshot — the extra copy +
  // allocation measurably churns the heap on tight re-solve loops.
  if (borrowed_ != nullptr) return result_;

  if (result_.status == LpStatus::Optimal && !result_.basis.empty()) {
    basis_ = std::make_shared<const Basis>(result_.basis);
  } else if (result_.status != LpStatus::Optimal) {
    // A failed / infeasible / limit-hit solve leaves nothing worth
    // restarting from; drop the incumbent so the next solve goes cold.
    basis_.reset();
  }
  return result_;
}

// ---------------------------------------------------------------------
// solve_lp compatibility wrappers: one throwaway *borrowed* session per
// call (no model copy) with the caller's options; a warm basis takes the
// same dual-simplex dispatch as a session re-solve.

LpResult solve_lp(const LpModel& model, const SimplexOptions& opts) {
  LpSession session = LpSession::borrow(model, opts);
  session.solve();
  return session.take_last();
}

LpResult solve_lp(const LpModel& model, const SimplexOptions& opts,
                  const Basis* warm) {
  LpSession session = LpSession::borrow(model, opts);
  if (warm != nullptr && !warm->empty()) {
    // Non-owning aliasing handle: `warm` outlives this one-shot session,
    // so the pre-session pointer contract needs no deep Basis copy here.
    session.set_warm_basis(SharedBasis(SharedBasis{}, warm));
  }
  session.solve();
  return session.take_last();
}

}  // namespace ovnes::solver
