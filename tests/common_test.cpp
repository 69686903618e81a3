// Unit tests for src/common: RNG streams, running stats, empirical
// distributions, JSON round-trip, row formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <set>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace ovnes {
namespace {

// ---------------------------------------------------------------- RngStream

TEST(RngStream, Deterministic) {
  RngStream a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngStream, DerivedStreamsDiffer) {
  RngStream root(7);
  RngStream t0 = root.derive("traffic", 0);
  RngStream t1 = root.derive("traffic", 1);
  RngStream topo = root.derive("topology", 0);
  EXPECT_NE(t0.seed(), t1.seed());
  EXPECT_NE(t0.seed(), topo.seed());
  // Derivation is a pure function of (seed, label, index).
  EXPECT_EQ(root.derive("traffic", 0).seed(), t0.seed());
}

TEST(RngStream, UniformRange) {
  RngStream r(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngStream, GaussianMoments) {
  RngStream r(3);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.gaussian(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RngStream, GaussianZeroSigmaIsDeterministic) {
  RngStream r(3);
  EXPECT_DOUBLE_EQ(r.gaussian(5.0, 0.0), 5.0);
}

TEST(RngStream, TruncatedGaussianNonNegative) {
  RngStream r(9);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(r.truncated_gaussian(1.0, 3.0, 0.0), 0.0);
  }
}

TEST(RngStream, TruncatedGaussianPathologicalMean) {
  RngStream r(9);
  // Mean far below the floor: clamps instead of spinning forever.
  EXPECT_DOUBLE_EQ(r.truncated_gaussian(-1e9, 1.0, 0.0), 0.0);
}

TEST(RngStream, UniformIntBounds) {
  RngStream r(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = r.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all faces observed
}

// Splittability contract (common/rng.hpp): derive() is a pure function of
// (seed, label, index) — independent of parent consumption and call order.
TEST(RngStream, DeriveIndependentOfParentConsumption) {
  RngStream a(42), b(42);
  for (int i = 0; i < 1000; ++i) a.uniform();  // burn the parent engine
  RngStream ca = a.derive("child", 3);
  RngStream cb = b.derive("child", 3);
  EXPECT_EQ(ca.seed(), cb.seed());
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(ca.uniform(), cb.uniform());
}

TEST(RngStream, DeriveOrderIndependent) {
  RngStream root(9);
  const std::uint64_t forward = root.derive("x", 0).seed();
  RngStream other(9);
  // Deriving a sibling first changes nothing.
  const std::uint64_t sibling = other.derive("x", 7).seed();
  EXPECT_NE(sibling, forward);
  EXPECT_EQ(other.derive("x", 0).seed(), forward);
}

TEST(RngStream, ParetoTailAndSupport) {
  RngStream r(11);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double v = r.pareto(2.0, 1.5);
    ASSERT_GE(v, 1.5);  // support is [xmin, inf)
    sum += v;
  }
  // E[X] = alpha*xmin/(alpha-1) = 3 for alpha=2, xmin=1.5.
  EXPECT_NEAR(sum / 20000.0, 3.0, 0.25);
}

TEST(RngStream, LognormalMedian) {
  RngStream r(13);
  std::vector<double> v(10001);
  for (double& x : v) x = r.lognormal(1.0, 0.5);
  std::nth_element(v.begin(), v.begin() + 5000, v.end());
  EXPECT_NEAR(v[5000], std::exp(1.0), 0.1);  // median = e^mu
}

// The in-house engine must emit std::mt19937_64's sequence word for word;
// every pinned digest rests on it. 1,000 draws cross the 311 -> 312 and
// 623 -> 624 block boundaries, and the first 157 draws cover every step of
// the lazy seeding.
std::vector<std::uint64_t> engine_seeds() {
  const RngStream root(42);
  return {0,
          1,
          5489,
          ~std::uint64_t{0},
          root.derive("tenant", 0).seed(),
          root.derive("arrival", 7).seed(),
          root.derive("scenario", 1999).seed()};
}

TEST(LazyMt19937_64, MatchesStdMt19937_64WordForWord) {
  for (const std::uint64_t seed : engine_seeds()) {
    std::mt19937_64 expected(seed);
    LazyMt19937_64 engine(seed);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(engine(), expected()) << "seed " << seed << ", draw " << i;
    }
  }
}

// A copy taken part-way through the lazy seeding, or at a block boundary,
// continues exactly like the engine it was copied from.
TEST(LazyMt19937_64, CopiesContinueLikeTheOriginal) {
  for (const std::uint64_t seed : engine_seeds()) {
    for (const int taken_after : {0, 1, 155, 156, 157, 311, 312}) {
      std::mt19937_64 expected(seed);
      LazyMt19937_64 engine(seed);
      for (int i = 0; i < taken_after; ++i) {
        expected();
        engine();
      }
      LazyMt19937_64 copy = engine;
      for (int i = 0; i < 700; ++i) {
        const std::uint64_t want = expected();
        ASSERT_EQ(copy(), want) << "seed " << seed << ", copy after "
                                << taken_after << ", draw " << i;
        ASSERT_EQ(engine(), want) << "seed " << seed << ", original after "
                                  << taken_after << ", draw " << i;
      }
    }
  }
}

static_assert(LazyMt19937_64::min() == std::mt19937_64::min());
static_assert(LazyMt19937_64::max() == std::mt19937_64::max());

// The first draws of every distribution for one seed. The std distributions
// behind them are libstdc++'s algorithms, not the standard's; a change of
// engine or standard library fails here instead of moving digests silently.
TEST(RngStream, FirstDrawsArePinned) {
  constexpr std::uint64_t kSeed = 20180604;
  const auto first4 = [](auto draw) {
    RngStream r(kSeed);
    std::vector<decltype(draw(r))> v;
    for (int i = 0; i < 4; ++i) v.push_back(draw(r));
    return v;
  };
  using D = std::vector<double>;
  EXPECT_EQ(first4([](RngStream& r) { return r.uniform(); }),
            (D{0x1.0c9f70e1b28f8p-4, 0x1.20ba462ae8386p-1,
               0x1.862568dc5a0fdp-1, 0x1.6cb4c56e4f4fap-2}));
  EXPECT_EQ(first4([](RngStream& r) { return r.uniform(-2.0, 3.0); }),
            (D{-0x1.ac0e2cb978332p+0, 0x1.a3a35ed6891ap-1,
               0x1.cf5d8626e1278p+0, -0x1.c0f049b0e6e4p-3}));
  EXPECT_EQ(first4([](RngStream& r) { return r.gaussian(10.0, 2.0); }),
            (D{0x1.46b730a3881e6p+3, 0x1.13d06ce877a27p+3,
               0x1.35f63ce1a1745p+3, 0x1.6a17e1e1ff90fp+2}));
  EXPECT_EQ(first4([](RngStream& r) {
              return r.truncated_gaussian(1.0, 2.0, 0.0);
            }),
            (D{0x1.35b9851c40f2ep+0, 0x1.5f63ce1a17456p-1,
               0x1.d701786aeefa8p-2, 0x1.83dc047b0c76ep+0}));
  EXPECT_EQ(first4([](RngStream& r) { return r.uniform_int(-5, 1000000); }),
            (std::vector<std::int64_t>{65577, 563919, 762003, 356155}));
  EXPECT_EQ(first4([](RngStream& r) { return r.exponential(3.0); }),
            (D{0x1.a0c1237a20b82p-3, 0x1.3eb1a8412afb6p+1,
               0x1.139dcc8bfc124p+2, 0x1.5226fbdcdd9dbp+0}));
  EXPECT_EQ(first4([](RngStream& r) { return r.pareto(1.5, 2.0); }),
            (D{0x1.0bd79dd7c6b16p+1, 0x1.bd2c963cd5915p+1,
               0x1.4d4bd571dfceep+2, 0x1.5756443dba693p+1}));
  EXPECT_EQ(first4([](RngStream& r) { return r.lognormal(0.5, 0.8); }),
            (D{0x1.cb0877ab368ddp+0, 0x1.e5e6406271e34p-1,
               0x1.744ce02fb0c2p+0, 0x1.293e9467a4795p-2}));
  EXPECT_EQ(first4([](RngStream& r) { return r.flip(0.5); }),
            (std::vector<bool>{true, false, false, true}));
}

// ------------------------------------------------------------- RunningStats

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, RelativeStandardErrorShrinks) {
  RngStream r(11);
  RunningStats s;
  double prev = 1e9;
  for (int block = 0; block < 4; ++block) {
    for (int i = 0; i < 2500; ++i) s.add(r.gaussian(100.0, 10.0));
    EXPECT_LT(s.relative_standard_error(), prev);
    prev = s.relative_standard_error();
  }
  EXPECT_LT(s.relative_standard_error(), 0.02);  // the paper's 2% rule
}

// ---------------------------------------------------- EmpiricalDistribution

TEST(EmpiricalDistribution, QuantilesAndCdf) {
  EmpiricalDistribution d;
  for (int i = 1; i <= 100; ++i) d.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(d.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.quantile(1.0), 100.0);
  EXPECT_NEAR(d.quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(d.cdf(50.0), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(100.0), 1.0);
}

TEST(EmpiricalDistribution, CdfSeriesMonotone) {
  EmpiricalDistribution d;
  RngStream r(4);
  for (int i = 0; i < 500; ++i) d.add(r.uniform(0, 10));
  const auto series = d.cdf_series(20);
  ASSERT_EQ(series.size(), 20u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].first, series[i - 1].first);
    EXPECT_GE(series[i].second, series[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

// ---------------------------------------------------------------------- JSON

TEST(Json, DumpNestedObjectWithEscapes) {
  using namespace ovnes::json;
  Object obj;
  obj["name"] = Value("slice \"1\"\n");
  obj["sla_mbps"] = Value(50.5);
  obj["paths"] = Value(Array{Value(1), Value(true), Value(nullptr)});
  Object inner;
  inner["cpu"] = Value(2.5);
  obj["compute"] = Value(std::move(inner));
  obj["empty"] = Value(Array{});
  const Value v(std::move(obj));

  // Object members render in key order.
  EXPECT_EQ(v.dump(),
            "{\"compute\":{\"cpu\":2.5},\"empty\":[],"
            "\"name\":\"slice \\\"1\\\"\\n\",\"paths\":[1,true,null],"
            "\"sla_mbps\":50.5}");
  EXPECT_EQ(v.dump(2),
            "{\n"
            "  \"compute\": {\n"
            "    \"cpu\": 2.5\n"
            "  },\n"
            "  \"empty\": [],\n"
            "  \"name\": \"slice \\\"1\\\"\\n\",\n"
            "  \"paths\": [\n"
            "    1,\n"
            "    true,\n"
            "    null\n"
            "  ],\n"
            "  \"sla_mbps\": 50.5\n"
            "}");
}

// format_double: shortest decimal whose strtod parse is bit-exact, so any
// JSON (or digest text) built from doubles is byte-stable across compilers.
TEST(Json, FormatDoubleRoundTripsBitExact) {
  using namespace ovnes::json;
  const double cases[] = {
      0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-300, 1e300, 5e-324 /* min denormal */,
      2.2250738585072014e-308 /* min normal */, 0.30000000000000004,
      1234567890.123456, 1e15 - 1.0, 1e15 + 2.0, -17.25, 3.141592653589793,
      6.02214076e23, 1.0000000000000002 /* 1 + ulp */};
  for (const double d : cases) {
    const std::string s = format_double(d);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), d) << s;
  }
}

TEST(Json, FormatDoubleCanonicalForms) {
  using namespace ovnes::json;
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(-0.0), "-0");
  EXPECT_EQ(format_double(42.0), "42");          // integral: no exponent
  EXPECT_EQ(format_double(-7.0), "-7");
  EXPECT_EQ(format_double(0.5), "0.5");          // shortest, not %.17g
  EXPECT_EQ(format_double(1.0 / 0.0), "null");   // JSON has no Inf/NaN
  EXPECT_EQ(format_double(std::nan("")), "null");
}

// ----------------------------------------------------------------------- Row

TEST(Row, Formatting) {
  Row row("fig5");
  row.set("topo", std::string("romanian")).set("alpha", 0.2).set("m", 4)
      .set("ok", true);
  EXPECT_EQ(row.str(), "fig5 topo=romanian alpha=0.2 m=4 ok=true");
}

TEST(Row, NumberFormatting) {
  EXPECT_EQ(format_number(1.0), "1");
  EXPECT_EQ(format_number(0.25), "0.25");
  EXPECT_EQ(format_number(1.23456789, 3), "1.235");
  EXPECT_EQ(format_number(-0.0), "0");
}

// ---------------------------------------------------------- LatencyHistogram

TEST(LatencyHistogram, CountsMeanAndMax) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  h.add(1.0);
  h.add(2.0);
  h.add(3.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.max_seen(), 3.0);
}

TEST(LatencyHistogram, QuantilesMatchExactSortedWithinBucketError) {
  // The histogram guarantees quantiles within one log-scale bucket of the
  // exact order statistic: a reported value is the geometric midpoint of
  // the bucket holding rank ceil(q·n), so it is within a factor
  // s = 10^(1/buckets_per_decade) of the exact sorted quantile.
  const int bpd = 16;
  LatencyHistogram h(0.1, 1e7, bpd);
  EmpiricalDistribution exact;
  RngStream r(17);
  for (int i = 0; i < 50000; ++i) {
    // Log-uniform over 4 decades plus a heavy lognormal-ish tail.
    const double v = std::pow(10.0, r.uniform(0.0, 4.0)) *
                     (1.0 + std::abs(r.gaussian(0.0, 0.2)));
    h.add(v);
    exact.add(v);
  }
  const double s = std::pow(10.0, 1.0 / bpd);
  for (const double q : {0.05, 0.25, 0.50, 0.90, 0.99, 0.999}) {
    const double e = exact.quantile(q);
    const double a = h.quantile(q);
    EXPECT_LE(a, e * s * 1.01) << "q=" << q;
    EXPECT_GE(a, e / s * 0.99) << "q=" << q;
  }
}

TEST(LatencyHistogram, UnderflowAndOverflowClamp) {
  LatencyHistogram h(1.0, 100.0, 4);
  h.add(0.001);   // below min -> first bucket
  h.add(1e9);     // above max -> overflow bucket, reported as the range top
  EXPECT_EQ(h.count(), 2u);
  EXPECT_LE(h.quantile(0.25), 1.5);
  EXPECT_GE(h.quantile(1.0), 99.0);
  EXPECT_DOUBLE_EQ(h.max_seen(), 1e9);
}

TEST(LatencyHistogram, MergeMatchesCombinedStream) {
  LatencyHistogram a(0.1, 1e7, 16), b(0.1, 1e7, 16), all(0.1, 1e7, 16);
  RngStream r(3);
  for (int i = 0; i < 2000; ++i) {
    const double v = std::pow(10.0, r.uniform(0.0, 3.0));
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), all.quantile(q));
  }
  LatencyHistogram other(0.1, 1e7, 8);
  EXPECT_THROW(a.merge(other), std::logic_error);
}

}  // namespace
}  // namespace ovnes
