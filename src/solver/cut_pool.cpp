#include "solver/cut_pool.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace ovnes::solver {

namespace {

// Row comparison tolerance, relative to the normalized (max |coef| = 1)
// scale. Two separations of the same slave dual reproduce coefficients to
// round-off, not bit-exactly, so equality is banded.
constexpr double kCoefTol = 1e-9;

std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  // splitmix64 round — cheap, good avalanche for the small key streams here.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Quantized coefficient for hashing: coarse enough (1e-6 on a unit-scaled
/// row) that round-off lands in the same bucket, with exact comparison
/// done against the bucket's entries afterwards.
std::uint64_t quantize(double v) {
  return static_cast<std::uint64_t>(std::llround(v * 1e6));
}

bool same_row(const Rowdef& a, const Rowdef& b) {
  if (a.sense != b.sense || a.coefs.size() != b.coefs.size()) return false;
  for (std::size_t i = 0; i < a.coefs.size(); ++i) {
    if (a.coefs[i].var != b.coefs[i].var) return false;
    if (std::abs(a.coefs[i].value - b.coefs[i].value) > kCoefTol) return false;
  }
  return true;
}

}  // namespace

std::uint64_t CutPool::normalize(Rowdef& row) {
  std::sort(row.coefs.begin(), row.coefs.end(),
            [](const Coef& a, const Coef& b) { return a.var < b.var; });
  // Merge duplicate vars, drop (near-)zeros.
  std::vector<Coef> merged;
  merged.reserve(row.coefs.size());
  for (const Coef& c : row.coefs) {
    if (!merged.empty() && merged.back().var == c.var) {
      merged.back().value += c.value;
    } else {
      merged.push_back(c);
    }
  }
  std::erase_if(merged, [](const Coef& c) { return c.value == 0.0; });
  // One canonical sense per halfspace: a·x >= b  ==  -a·x <= -b.
  if (row.sense == RowSense::GreaterEq) {
    for (Coef& c : merged) c.value = -c.value;
    row.rhs = -row.rhs;
    row.sense = RowSense::LessEq;
  }
  // Positive scaling preserves the halfspace; divide by max |coef| so
  // scalar multiples collide. (All-zero rows keep scale 1.)
  double scale = 0.0;
  for (const Coef& c : merged) scale = std::max(scale, std::abs(c.value));
  if (scale > 0.0) {
    for (Coef& c : merged) c.value /= scale;
    row.rhs /= scale;
  }
  row.coefs = std::move(merged);

  std::uint64_t h = hash_mix(0, static_cast<std::uint64_t>(row.sense));
  h = hash_mix(h, row.coefs.size());
  for (const Coef& c : row.coefs) {
    h = hash_mix(h, static_cast<std::uint64_t>(c.var));
    h = hash_mix(h, quantize(c.value));
  }
  // rhs deliberately excluded: same-support rows with different rhs must
  // land in one bucket so the dominance check below sees them.
  return h;
}

bool CutPool::add(Rowdef row) {
  const std::uint64_t sig = normalize(row);
  std::lock_guard<std::mutex> lk(mu_);
  auto& bucket = index_[sig];
  for (std::size_t idx : bucket) {
    Entry& e = entries_[idx];
    if (!same_row(e.row, row)) continue;
    if (row.rhs >= e.row.rhs - kCoefTol) {
      // Equal or weaker: the pooled row already implies it.
      ++(row.rhs <= e.row.rhs + kCoefTol ? stats_.duplicates
                                         : stats_.dominated);
      ++e.activity;
      e.idle_rounds = 0;
      return false;
    }
    // Strictly tighter rhs: the new row dominates — retire the pooled one
    // from the active set (the log keeps it; lane models that already
    // appended it simply carry a redundant weaker row).
    e.active = false;
    ++stats_.dominated;
    ++stats_.evicted;
    std::erase(bucket, idx);
    break;
  }
  Entry e;
  e.row = std::move(row);
  e.signature = sig;
  entries_.push_back(std::move(e));
  bucket.push_back(entries_.size() - 1);
  ++stats_.inserted;
  return true;
}

std::vector<Rowdef> CutPool::violated_at(const std::vector<double>& x) {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.lookups;
  std::vector<Rowdef> out;
  for (Entry& e : entries_) {
    if (!e.active) continue;
    double lhs = 0.0;
    for (const Coef& c : e.row.coefs) {
      const auto j = static_cast<std::size_t>(c.var);
      if (j < x.size()) lhs += c.value * x[j];
    }
    // Normalized rows are LessEq or Equal; Equal rows cut both ways.
    const double viol = e.row.sense == RowSense::Equal
                            ? std::abs(lhs - e.row.rhs)
                            : lhs - e.row.rhs;
    if (viol > opts_.violation_tol) {
      out.push_back(e.row);
      ++e.activity;
      e.idle_rounds = 0;
      ++stats_.hits;
    }
  }
  return out;
}

std::vector<Rowdef> CutPool::fetch_new(std::size_t& version) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Rowdef> out;
  for (std::size_t i = version; i < entries_.size(); ++i) {
    out.push_back(entries_[i].row);
  }
  version = entries_.size();
  return out;
}

void CutPool::advance_round() {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t active = 0;
  for (Entry& e : entries_) {
    if (!e.active) continue;
    ++e.idle_rounds;
    ++active;
  }
  if (active <= opts_.capacity) return;
  // Eviction order: longest idle streak first, then least activity, then
  // oldest. Only rows past max_idle_rounds are eligible — a hot pool over
  // capacity keeps its recent rows rather than thrash.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].active && entries_[i].idle_rounds > opts_.max_idle_rounds) {
      candidates.push_back(i);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              const Entry& ea = entries_[a];
              const Entry& eb = entries_[b];
              if (ea.idle_rounds != eb.idle_rounds) {
                return ea.idle_rounds > eb.idle_rounds;
              }
              if (ea.activity != eb.activity) return ea.activity < eb.activity;
              return a < b;
            });
  for (std::size_t i : candidates) {
    if (active <= opts_.capacity) break;
    Entry& e = entries_[i];
    e.active = false;
    std::erase(index_[e.signature], i);
    ++stats_.evicted;
    --active;
  }
}

std::size_t CutPool::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const Entry& e : entries_) n += e.active ? 1 : 0;
  return n;
}

std::size_t CutPool::log_size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

CutPool::Stats CutPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace ovnes::solver
