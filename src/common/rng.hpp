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
//
// Engine: every stream draws exactly `std::mt19937_64`'s sequence for its
// seed, from `LazyMt19937_64` below rather than the library engine. Most
// children draw a handful of values, so the engine seeds and twists only the
// state words the next output needs: `derive` is O(1) (one FNV hash, two
// splitmix rounds), the first draw seeds about 157 of the 312 words, and a
// long stream costs what the library engine costs.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace ovnes {

/// A UniformRandomBitGenerator whose output is word for word that of
/// `std::mt19937_64` seeded with the same value, done lazily.
///
/// Seeding: construction stores x[0] = seed only. The recurrence
/// x[i] = f * (x[i-1] ^ (x[i-1] >> 62)) + i fills x[1..311] on demand, as far
/// as the next output needs: output k of the first block twists word k from
/// x[k], x[k+1] and x[k+156], so it needs the first k + 157 words.
///
/// Twist on draw: the library regenerates all 312 words when a block runs
/// out, in one loop that is sequential in k. Twisting word k when output k
/// is drawn reads the same words in the same state (words before k already
/// twisted, the rest not), so the output is the same. Tempering is the
/// standard one.
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit LazyMt19937_64(result_type seed) { x_[0] = seed; }

  result_type operator()() {
    const std::uint32_t k = next_;
    if (seeded_ < kN) seed_words(k + kM + 1);
    const std::uint32_t k1 = k + 1 < kN ? k + 1 : 0;
    const std::uint32_t km = k + kM < kN ? k + kM : k + kM - kN;
    const result_type y = (x_[k] & kUpperMask) | (x_[k1] & ~kUpperMask);
    result_type z = x_[km] ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
    x_[k] = z;
    next_ = k1;
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::uint32_t kN = 312;  // state words
  static constexpr std::uint32_t kM = 156;  // twist offset
  static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
  static constexpr result_type kUpperMask = ~result_type{0} << 31;

  // Runs the seeding recurrence until the first `count` words are seeded.
  void seed_words(std::uint32_t count) {
    result_type prev = x_[seeded_ - 1];
    for (; seeded_ < count; ++seeded_) {
      prev = 6364136223846793005ULL * (prev ^ (prev >> 62)) + seeded_;
      x_[seeded_] = prev;
    }
  }

  // Zeroed so that copying a part-seeded engine reads no indeterminate word.
  std::array<result_type, kN> x_{};
  std::uint32_t next_ = 0;    // block position of the next output
  std::uint32_t seeded_ = 1;  // x_[0, seeded_) hold their seeded values
};

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
  LazyMt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace ovnes
