// Deterministic, stream-splittable random number generation.
//
// Every stochastic component (traffic models, topology synthesis, workload
// schedules) draws from an explicitly-seeded RngStream so simulations are
// reproducible and sub-components are statistically independent.
//
// Splittability contract (relied on by the scn/ scenario generators and the
// Monte Carlo SLA-risk sweeps): `derive(label, index)` is a pure function of
// (parent seed, label, index). It never touches or consumes the parent's
// engine state, so
//   * deriving the same child twice yields identical streams no matter how
//     many draws the parent made in between;
//   * children keyed by distinct (label, index) pairs are statistically
//     independent of each other and of the parent;
//   * a sweep that derives one child per scenario index gets byte-identical
//     per-scenario draws regardless of evaluation order or thread count.
// Per-entity draws should therefore be keyed (`derive("tenant", i)`) rather
// than taken sequentially from one shared stream.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

namespace ovnes {

/// A seeded RNG with named sub-stream derivation.
///
/// `derive("traffic", 7)` produces a stream whose seed is a hash of the
/// parent seed, the label and the index — independent draws without manual
/// seed bookkeeping (see the splittability contract in the file comment).
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derive an independent child stream. Const on purpose: derivation is a
  /// pure function of (seed, label, index) and leaves the engine untouched.
  [[nodiscard]] RngStream derive(std::string_view label,
                                 std::uint64_t index = 0) const;

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Gaussian with the given mean / stddev.
  double gaussian(double mean, double stddev);

  /// Gaussian truncated below at `lo` (resampled; used for non-negative
  /// traffic draws).
  double truncated_gaussian(double mean, double stddev, double lo = 0.0);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with the given mean.
  double exponential(double mean);

  /// Pareto (type I) with tail index `alpha` and scale `xmin > 0`:
  /// P[X > x] = (xmin/x)^alpha for x >= xmin. Inverse-CDF on a single
  /// uniform draw, so the mapping is fixed by this file rather than by the
  /// standard library's distribution internals. Heavy-tailed tenant demand
  /// in scn/ draws from this.
  double pareto(double alpha, double xmin);

  /// Lognormal: exp(N(log_mean, log_sigma)). One Gaussian draw.
  double lognormal(double log_mean, double log_sigma);

  /// Bernoulli trial.
  bool flip(double p_true);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace ovnes
