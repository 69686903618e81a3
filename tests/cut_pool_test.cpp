// Tests for the concurrent deduplicating cut pool (solver/cut_pool.hpp):
// normalization-based dedup of permuted/scaled/flipped rows, same-support
// rhs dominance (the pool's only eviction), the fetch_new versioned log,
// and concurrent insert/lookup from 4 threads (run under TSan in CI).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "solver/cut_pool.hpp"

namespace ovnes::solver {
namespace {

Rowdef row(std::vector<Coef> coefs, double rhs,
           RowSense sense = RowSense::LessEq) {
  Rowdef r;
  r.sense = sense;
  r.rhs = rhs;
  r.coefs = std::move(coefs);
  return r;
}

TEST(CutPool, DedupsPermutedScaledAndFlippedRows) {
  CutPool pool;
  EXPECT_TRUE(pool.add(row({{0, 1.0}, {1, 2.0}}, 3.0)));
  // Permuted coefficient order.
  EXPECT_FALSE(pool.add(row({{1, 2.0}, {0, 1.0}}, 3.0)));
  // Positive scalar multiple.
  EXPECT_FALSE(pool.add(row({{0, 2.0}, {1, 4.0}}, 6.0)));
  // Same halfspace spelled as GreaterEq.
  EXPECT_FALSE(pool.add(row({{0, -1.0}, {1, -2.0}}, -3.0,
                            RowSense::GreaterEq)));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.stats().inserted, 1);
  EXPECT_EQ(pool.stats().duplicates, 3);
}

TEST(CutPool, DuplicateVarsAndZerosNormalizeAway) {
  CutPool pool;
  // 0.5 + 0.5 on var 0 merges; the zero coefficient on var 2 drops.
  EXPECT_TRUE(pool.add(row({{0, 0.5}, {0, 0.5}, {1, 2.0}, {2, 0.0}}, 3.0)));
  EXPECT_FALSE(pool.add(row({{0, 1.0}, {1, 2.0}}, 3.0)));
  EXPECT_EQ(pool.size(), 1u);
}

TEST(CutPool, TighterRhsDominatesPooledRow) {
  CutPool pool;
  EXPECT_TRUE(pool.add(row({{0, 1.0}}, 5.0)));
  // Strictly tighter: replaces the pooled row.
  EXPECT_TRUE(pool.add(row({{0, 1.0}}, 3.0)));
  EXPECT_EQ(pool.size(), 1u);
  // Weaker than what is pooled: rejected as dominated.
  EXPECT_FALSE(pool.add(row({{0, 1.0}}, 10.0)));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.stats().dominated, 2);
  // Only the replaced row left the active set; the log keeps both rows.
  EXPECT_EQ(pool.stats().evicted, 1);
  EXPECT_EQ(pool.log_size(), 2u);
  // The surviving row is the tight one: x0 = 4 violates x0 <= 3.
  const auto hits = pool.violated_at({4.0});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NEAR(hits[0].rhs, 3.0, 1e-12);
}

TEST(CutPool, ViolatedAtSkipsSatisfiedAndEqualCutsBothWays) {
  CutPool pool;
  ASSERT_TRUE(pool.add(row({{0, 1.0}}, 1.0)));                   // x0 <= 1
  ASSERT_TRUE(pool.add(row({{1, 1.0}}, 2.0, RowSense::Equal)));  // x1 == 2
  EXPECT_TRUE(pool.violated_at({0.5, 2.0}).empty());
  EXPECT_EQ(pool.violated_at({1.5, 2.0}).size(), 1u);  // x0 violated
  EXPECT_EQ(pool.violated_at({0.5, 0.0}).size(), 1u);  // x1 below
  EXPECT_EQ(pool.violated_at({0.5, 3.0}).size(), 1u);  // x1 above
}

TEST(CutPool, FetchNewReturnsOnlyRowsPastVersion) {
  CutPool pool;
  ASSERT_TRUE(pool.add(row({{0, 1.0}}, 1.0)));
  ASSERT_TRUE(pool.add(row({{1, 1.0}}, 1.0)));
  std::size_t version = 0;
  EXPECT_EQ(pool.fetch_new(version).size(), 2u);
  EXPECT_TRUE(pool.fetch_new(version).empty());
  ASSERT_TRUE(pool.add(row({{2, 1.0}}, 1.0)));
  const auto fresh = pool.fetch_new(version);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].coefs[0].var, 2);
  EXPECT_TRUE(pool.fetch_new(version).empty());
}

TEST(CutPool, ConcurrentInsertAndLookupFourThreads) {
  CutPool pool;
  constexpr int kThreads = 4;
  constexpr int kOps = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, t] {
      std::size_t version = 0;
      for (int i = 0; i < kOps; ++i) {
        // Every thread offers the same row stream: dedup must make the
        // outcome identical to a serial insert of the distinct rows.
        (void)pool.add(row({{i % 8, 1.0}, {8 + i % 4, 2.0}},
                           static_cast<double>(i % 16)));
        if (i % 7 == t) {
          (void)pool.violated_at(std::vector<double>(12, 1.0));
        }
        if (i % 11 == t) {
          (void)pool.fetch_new(version);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // i%4 is determined by i%8, so the stream holds 8 distinct supports with
  // two rhs values each; a tighter rhs *replaces* its support's pooled row,
  // so exactly the 8 supports survive, each at its minimum rhs.
  const auto stats = pool.stats();
  EXPECT_EQ(pool.size(), 8u);
  EXPECT_GE(stats.inserted, 8);
  EXPECT_GT(stats.duplicates, 0);
  std::size_t version = 0;
  const auto all = pool.fetch_new(version);
  EXPECT_EQ(all.size(), pool.log_size());
  for (const Rowdef& r : pool.violated_at(std::vector<double>(12, 100.0))) {
    // Survivor rhs is the support's minimum: rhs/2 (normalization scales
    // by the max coefficient 2.0) of min(s, s+8) = s for support s.
    EXPECT_LE(r.rhs * 2.0, 7.0 + 1e-9);
  }
}

}  // namespace
}  // namespace ovnes::solver
