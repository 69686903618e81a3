// Concurrent, deduplicating pool of cutting planes.
//
// Single-tree Branch-and-Benders-cut separates cuts *inside* one
// branch-and-bound run: any lane may produce a cut at any time, and every
// lane wants every cut. The pool is the shared rendezvous point, one per
// lazy-cut solve_milp run and gone when the run returns:
//
//  * add() admits a row once — rows that are permutations or positive
//    scalar multiples of a pooled row hash to the same normalized
//    signature and are rejected as duplicates. A row with the same
//    support/coefficients but a strictly tighter rhs *replaces* the pooled
//    one (dominance): the weaker row leaves the active set, the only way
//    a row ever does.
//  * fetch_new(version) returns every row admitted after `version` —
//    the append-only log lanes use to sync their LpSession models before
//    evaluating a node. The log is never compacted: a row a lane already
//    appended to its model must stay addressable forever.
//  * violated_at(x) scans the *active* rows for violation at a candidate
//    point. A hit lets the caller skip the slave solve that originally
//    priced the row (counted in Stats::hits).
//
// There is no age or size eviction: a pool lives for one solve, and the
// pinned runs pool a few dozen rows at most.
//
// Thread safety: every public member is safe to call concurrently; one
// mutex guards the pool (cut rows are tiny relative to the slave solves
// that produce them, so a sharded design would be tuning noise here).
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "solver/lp_model.hpp"

namespace ovnes::solver {

/// \brief Concurrent deduplicating cut pool shared across B&B lanes (see
/// file comment for the single-tree Benders role it plays).
class CutPool {
 public:
  struct Stats {
    long inserted = 0;    ///< rows admitted as new
    long duplicates = 0;  ///< rejected: equal (mod permutation/scale) row pooled
    long dominated = 0;   ///< rejected or replaced on same-support dominance
    long evicted = 0;     ///< rows a strictly tighter row replaced
    long lookups = 0;     ///< violated_at calls
    long hits = 0;        ///< rows returned by violated_at
  };

  /// Admit a cut. Returns true when the row is new (appended to the log);
  /// false when an equal or dominating row is already pooled. A row that
  /// strictly dominates a pooled one (same support and coefficients,
  /// tighter rhs) is admitted and the dominated row leaves the active set.
  bool add(Rowdef row);

  /// Active rows violated by more than a 1e-7 noise floor at `x` (indexed
  /// by model variable; missing tail treated as 0).
  [[nodiscard]] std::vector<Rowdef> violated_at(const std::vector<double>& x);

  /// Every row admitted after `version` (the add() log position); updates
  /// `version` to the current log end. Lanes call this before a node to
  /// append the new rows to their private LpSession.
  [[nodiscard]] std::vector<Rowdef> fetch_new(std::size_t& version) const;

  [[nodiscard]] std::size_t size() const;         ///< active rows
  [[nodiscard]] std::size_t log_size() const;     ///< all rows ever admitted
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    Rowdef row;              ///< normalized: coefs sorted by var, scaled
    bool active = true;      ///< false once dominated (log keeps the row)
  };

  /// Sort/merge coefs, drop zeros, scale by max |coef| (positive scale
  /// preserves sense); GreaterEq rows are flipped to LessEq so the two
  /// spellings of one halfspace collide. Returns the signature hash.
  static std::uint64_t normalize(Rowdef& row);

  mutable std::mutex mu_;
  std::vector<Entry> entries_;  ///< append-only log; Entry::active gates scans
  /// signature -> indices of the active entries (collision bucket).
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index_;
  Stats stats_;
};

}  // namespace ovnes::solver
