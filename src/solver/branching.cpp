#include "solver/branching.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ovnes::solver {

namespace {
constexpr double kScoreEps = 1e-6;
}  // namespace

const char* to_string(BranchRule r) {
  switch (r) {
    case BranchRule::MostFractional: return "most_fractional";
    case BranchRule::Pseudocost: return "pseudocost";
  }
  return "unknown";
}

std::vector<BranchCandidate> fractional_candidates(
    const LpModel& model, const std::vector<int>& int_vars,
    const std::vector<double>& x) {
  std::vector<BranchCandidate> out;
  int best_prio = std::numeric_limits<int>::max();
  for (int j : int_vars) {
    const double v = x[static_cast<std::size_t>(j)];
    const double frac = v - std::floor(v);
    if (std::min(frac, 1.0 - frac) <= kIntTol) continue;
    const int prio = model.variable(j).branch_priority;
    if (prio > best_prio) continue;
    if (prio < best_prio) {
      best_prio = prio;
      out.clear();
    }
    out.push_back({j, v, frac});
  }
  return out;
}

void Pseudocosts::observe_down(int var, double delta, double frac) {
  if (frac <= 0.0) return;
  const double unit = std::max(delta, 0.0) / frac;
  Entry& e = entries_[static_cast<std::size_t>(var)];
  e.down_sum += unit;
  ++e.down_count;
  global_down_sum_ += unit;
  ++global_down_count_;
  ++observations_;
}

void Pseudocosts::observe_up(int var, double delta, double frac) {
  if (frac <= 0.0) return;
  const double unit = std::max(delta, 0.0) / frac;
  Entry& e = entries_[static_cast<std::size_t>(var)];
  e.up_sum += unit;
  ++e.up_count;
  global_up_sum_ += unit;
  ++global_up_count_;
  ++observations_;
}

double Pseudocosts::down_cost(int var) const {
  const Entry& e = entries_[static_cast<std::size_t>(var)];
  if (e.down_count > 0) return e.down_sum / static_cast<double>(e.down_count);
  if (global_down_count_ > 0) {
    return global_down_sum_ / static_cast<double>(global_down_count_);
  }
  return 1.0;
}

double Pseudocosts::up_cost(int var) const {
  const Entry& e = entries_[static_cast<std::size_t>(var)];
  if (e.up_count > 0) return e.up_sum / static_cast<double>(e.up_count);
  if (global_up_count_ > 0) {
    return global_up_sum_ / static_cast<double>(global_up_count_);
  }
  return 1.0;
}

double Pseudocosts::score(int var, double frac) const {
  const double down = down_cost(var) * frac;
  const double up = up_cost(var) * (1.0 - frac);
  return std::max(down, kScoreEps) * std::max(up, kScoreEps);
}

int select_by_score(const std::vector<BranchCandidate>& cands,
                    const std::vector<double>& scores) {
  int best = -1;
  double best_score = -1.0;
  double best_dist = -1.0;
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const double s = scores[i];
    const double d = cands[i].dist();
    if (best >= 0 && (s < best_score ||
                      (s == best_score &&
                       (d < best_dist ||
                        (d == best_dist && cands[i].var > best))))) {
      continue;
    }
    best = cands[i].var;
    best_score = s;
    best_dist = d;
  }
  return best;
}

}  // namespace ovnes::solver
