// Tests for src/util: Status/Result, RNG/Zipf, stats, strings, thread pool.

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/lru_cache.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace sqlgraph {
namespace util {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("row 42");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "row 42");
  EXPECT_EQ(st.ToString(), "NotFound: row 42");
}

TEST(StatusTest, CopyIsCheapAndEqualContent) {
  Status st = Status::Internal("boom");
  Status copy = st;
  EXPECT_EQ(copy.code(), StatusCode::kInternal);
  EXPECT_EQ(copy.message(), "boom");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("non-positive");
  return x * 2;
}

Status UseParse(int x, int* out) {
  ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(ResultTest, ValuePath) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseParse(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseParse(-5, &out).ok());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, RanksWithinDomainAndSkewed) {
  Rng rng(42);
  ZipfSampler zipf(1000, 0.8);
  int head = 0;
  for (int i = 0; i < 10000; ++i) {
    uint64_t r = zipf.Sample(&rng);
    ASSERT_LT(r, 1000u);
    if (r < 10) ++head;
  }
  // With theta=0.8 the top-10 ranks should dominate well beyond uniform 1%.
  EXPECT_GT(head, 1500);
}

TEST(RunningStatTest, MeanAndStddev) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  RunningStat a, b, all;
  for (int i = 0; i < 50; ++i) {
    a.Add(i);
    all.Add(i);
  }
  for (int i = 50; i < 100; ++i) {
    b.Add(i * 1.5);
    all.Add(i * 1.5);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
}

TEST(SamplesTest, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_NEAR(s.Percentile(0.5), 50, 1);
  EXPECT_NEAR(s.Percentile(0.99), 99, 1);
  EXPECT_EQ(s.Percentile(0.0), 1);
  EXPECT_EQ(s.Percentile(1.0), 100);
}

TEST(StringUtilTest, SplitJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, "-"), "a-b--c");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("isPartOf", "is"));
  EXPECT_FALSE(StartsWith("is", "isPartOf"));
  EXPECT_TRUE(EndsWith("weight", "ght"));
}

TEST(StringUtilTest, SqlLikeMatch) {
  EXPECT_TRUE(SqlLikeMatch("chicken", "%en"));
  EXPECT_FALSE(SqlLikeMatch("chickens", "%en"));
  EXPECT_TRUE(SqlLikeMatch("chicken", "chick%"));
  EXPECT_TRUE(SqlLikeMatch("chicken", "c_ick%"));
  EXPECT_TRUE(SqlLikeMatch("abc", "%"));
  EXPECT_TRUE(SqlLikeMatch("", "%"));
  EXPECT_FALSE(SqlLikeMatch("", "_"));
  EXPECT_TRUE(SqlLikeMatch("a%b", "a%b"));
  EXPECT_TRUE(SqlLikeMatch("xyzen", "%y%en"));
  EXPECT_FALSE(SqlLikeMatch("xyen", "%z%en"));
}

TEST(StringUtilTest, SqlQuoteEscapesQuotes) {
  EXPECT_EQ(SqlQuote("it's"), "'it''s'");
  EXPECT_EQ(SqlQuote(""), "''");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanBytes(3ull << 30), "3.0 GiB");
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitThenReuse) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(10); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 11);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(sw.ElapsedNanos(), 0u);
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

// -------------------------------------------------------------- LruCache --

using IntCache = LruCache<int, int>;

TEST(LruCacheTest, LoadsOnceThenHits) {
  IntCache cache(4, LockRank::kPlanCache, "test_cache");
  int loads = 0;
  auto load = [&]() -> Result<int> { return ++loads * 10; };
  bool hit = true;
  auto first = cache.GetOrLoad(1, load, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 10);
  EXPECT_FALSE(hit);
  auto second = cache.GetOrLoad(1, load, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 10);
  EXPECT_TRUE(hit);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  IntCache cache(2, LockRank::kPlanCache, "test_cache");
  int loads = 0;
  auto load = [&]() -> Result<int> { return ++loads; };
  ASSERT_TRUE(cache.GetOrLoad(1, load).ok());
  ASSERT_TRUE(cache.GetOrLoad(2, load).ok());
  ASSERT_TRUE(cache.GetOrLoad(1, load).ok());  // 2 is now least recent
  ASSERT_TRUE(cache.GetOrLoad(3, load).ok());  // evicts 2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(loads, 3);
  ASSERT_TRUE(cache.GetOrLoad(1, load).ok());
  EXPECT_EQ(loads, 3);
  ASSERT_TRUE(cache.GetOrLoad(2, load).ok());
  EXPECT_EQ(loads, 4);
}

TEST(LruCacheTest, StaleEntryIsReplaced) {
  IntCache cache(4, LockRank::kPlanCache, "test_cache");
  int version = 1;
  auto load = [&]() -> Result<int> { return version; };
  auto fresh = [&](int cached) { return cached == version; };
  ASSERT_TRUE(cache.GetOrLoad(7, load, fresh).ok());
  version = 2;
  auto reloaded = cache.GetOrLoad(7, load, fresh);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(*reloaded, 2);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, FailedLoadIsNotCached) {
  IntCache cache(4, LockRank::kPlanCache, "test_cache");
  int loads = 0;
  auto fail = [&]() -> Result<int> {
    ++loads;
    return Status::InvalidArgument("bad key");
  };
  auto r = cache.GetOrLoad(5, fail);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "bad key");
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.GetOrLoad(5, fail).ok());
  EXPECT_EQ(loads, 2);
  auto ok = cache.GetOrLoad(5, []() -> Result<int> { return 1; });
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, ConcurrentFirstCallersLoadOnce) {
  IntCache cache(4, LockRank::kPlanCache, "test_cache");
  constexpr int kThreads = 4;
  std::atomic<int> loads{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto r = cache.GetOrLoad(9, [&]() -> Result<int> {
        loads.fetch_add(1);
        // Keep the load open so the other callers arrive while it runs.
        for (int spin = 0; spin < 1000; ++spin) std::this_thread::yield();
        return 99;
      });
      if (!r.ok() || *r != 99) wrong.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(loads.load(), 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads - 1));
}

}  // namespace
}  // namespace util
}  // namespace sqlgraph
