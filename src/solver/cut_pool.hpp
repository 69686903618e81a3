// Concurrent, deduplicating pool of cutting planes.
//
// Single-tree Branch-and-Benders-cut separates cuts *inside* one
// branch-and-bound run: any lane may produce a cut at any time, and every
// lane wants every cut. The pool is the shared rendezvous point, one per
// lazy-cut solve_milp run and gone when the run returns:
//
//  * add() admits a row once — rows that are permutations or positive
//    scalar multiples of a pooled row hash to the same normalized
//    signature and are rejected as duplicates (the pooled row's activity
//    is bumped instead). A row with the same support/coefficients but a
//    strictly tighter rhs *replaces* the pooled one (dominance).
//  * fetch_new(version) returns every row admitted after `version` —
//    the append-only log lanes use to sync their LpSession models before
//    evaluating a node. The log is never compacted: a row a lane already
//    appended to its model must stay addressable forever.
//  * violated_at(x) scans the *active* rows for violation at a candidate
//    point. A hit re-activates the row and lets the caller skip the slave
//    solve that originally priced it (counted in Stats::hits).
//  * advance_round()/evict() implement age + activity eviction: rows
//    whose slack stayed inactive for `max_idle_rounds` rounds are dropped
//    from the scan set (never from the log) oldest-and-least-active
//    first, until the active set fits `capacity`.
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
  struct Options {
    /// Active-set size triggering eviction (the log still keeps evicted
    /// rows; they only leave the violated_at scan and the dedup index).
    std::size_t capacity = 4096;
    /// Rounds a row may stay idle (never violated / never re-added)
    /// before eviction may take it, once the pool is over capacity.
    int max_idle_rounds = 8;
    /// Violation below this is noise, not a cut worth returning.
    double violation_tol = 1e-7;
  };

  struct Stats {
    long inserted = 0;    ///< rows admitted as new
    long duplicates = 0;  ///< rejected: equal (mod permutation/scale) row pooled
    long dominated = 0;   ///< rejected or replaced on same-support dominance
    long evicted = 0;     ///< rows aged out of the active set
    long lookups = 0;     ///< violated_at calls
    long hits = 0;        ///< rows returned by violated_at (re-activations)
  };

  CutPool() = default;
  explicit CutPool(Options opts) : opts_(opts) {}

  /// Admit a cut. Returns true when the row is new (appended to the log);
  /// false when an equal or dominating row is already pooled — its
  /// activity is bumped so eviction keeps hot cuts. A row that strictly
  /// dominates a pooled one (same support and coefficients, tighter rhs)
  /// is admitted and the dominated row is evicted from the active set.
  bool add(Rowdef row);

  /// Rows violated by more than `Options::violation_tol` at `x` (indexed
  /// by model variable; missing tail treated as 0). Bumps each hit's
  /// activity. Evicted rows stay out of the scan by design —
  /// re-separation re-adds them through add(), which is the
  /// re-activation path.
  [[nodiscard]] std::vector<Rowdef> violated_at(const std::vector<double>& x);

  /// Every row admitted after `version` (the add() log position); updates
  /// `version` to the current log end. Lanes call this before a node to
  /// append the new rows to their private LpSession.
  [[nodiscard]] std::vector<Rowdef> fetch_new(std::size_t& version) const;

  /// Close a separation round: ages every active row, then evicts idle
  /// rows (oldest idle streak first, lowest activity as tie-break) until
  /// the active set fits Options::capacity again.
  void advance_round();

  [[nodiscard]] std::size_t size() const;         ///< active rows
  [[nodiscard]] std::size_t log_size() const;     ///< all rows ever admitted
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    Rowdef row;              ///< normalized: coefs sorted by var, scaled
    std::uint64_t signature = 0;
    long activity = 0;       ///< add-dedup bumps + violated_at hits
    int idle_rounds = 0;     ///< advance_round()s since last activity
    bool active = true;      ///< false once evicted (log keeps the row)
  };

  /// Sort/merge coefs, drop zeros, scale by max |coef| (positive scale
  /// preserves sense); GreaterEq rows are flipped to LessEq so the two
  /// spellings of one halfspace collide. Returns the signature hash.
  static std::uint64_t normalize(Rowdef& row);

  mutable std::mutex mu_;
  Options opts_;
  std::vector<Entry> entries_;  ///< append-only log; Entry::active gates scans
  /// signature -> entry indices (collision bucket). Evicted entries are
  /// removed so a re-separated row re-inserts cleanly.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> index_;
  Stats stats_;
};

}  // namespace ovnes::solver
