// Unit tests for src/common: Status/Result, Rng, SparseAccumulator,
// TopKSelector, ThreadPool, env helpers.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <set>

#include "common/env.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sparse_accumulator.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/top_k.h"

namespace rtk {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::IOError("disk gone");
  Status t = s;
  EXPECT_EQ(t.code(), StatusCode::kIOError);
  EXPECT_EQ(t.message(), "disk gone");
  EXPECT_EQ(s, t);
}

TEST(StatusTest, MovedFromLeavesTargetCorrect) {
  Status s = Status::Corruption("x");
  Status t = std::move(s);
  EXPECT_EQ(t.code(), StatusCode::kCorruption);
}

TEST(StatusTest, AllCodesStringify) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_EQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
            "DeadlineExceeded");
  EXPECT_EQ(StatusCodeToString(StatusCode::kCancelled), "Cancelled");
}

TEST(StopwatchTest, NearestRankPercentile) {
  EXPECT_EQ(NearestRankPercentile({}, 50), 0.0);
  const std::vector<double> sample = {1.0, 2.0, 3.0, 4.0};
  // Nearest-rank: sorted[ceil(p/100 * N) - 1].
  EXPECT_EQ(NearestRankPercentile(sample, 0), 1.0);
  EXPECT_EQ(NearestRankPercentile(sample, 25), 1.0);
  EXPECT_EQ(NearestRankPercentile(sample, 50), 2.0);
  EXPECT_EQ(NearestRankPercentile(sample, 75), 3.0);
  EXPECT_EQ(NearestRankPercentile(sample, 99), 4.0);
  EXPECT_EQ(NearestRankPercentile(sample, 100), 4.0);
  EXPECT_EQ(NearestRankPercentile({7.5}, 50), 7.5);
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::NotFound("missing"); };
  auto wrapper = [&]() -> Status {
    RTK_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------- Result --

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    RTK_ASSIGN_OR_RETURN(int x, inner(fail));
    return x + 1;
  };
  EXPECT_EQ(*outer(false), 8);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInternal);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntInclusiveEnds) {
  Rng rng(11);
  bool lo = false, hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo |= (v == -3);
    hi |= (v == 3);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(RngTest, ZipfSkewsTowardSmallValues) {
  Rng rng(19);
  int low = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const uint64_t v = rng.Zipf(1000, 1.2);
    ASSERT_LT(v, 1000u);
    low += (v < 10);
  }
  // Zipf(1.2) concentrates most mass on the first few ranks.
  EXPECT_GT(low, trials / 2);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  for (uint64_t count : {1ull, 5ull, 50ull, 100ull}) {
    std::vector<uint64_t> s = rng.SampleWithoutReplacement(100, count);
    std::set<uint64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), count);
    for (uint64_t v : s) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(29);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
}

// ---------------------------------------------------- SparseAccumulator --

TEST(SparseAccumulatorTest, StartsAtZero) {
  SparseAccumulator acc(10);
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(acc.Get(i), 0.0);
  EXPECT_TRUE(acc.touched().empty());
}

TEST(SparseAccumulatorTest, AddAccumulates) {
  SparseAccumulator acc(10);
  acc.Add(3, 0.5);
  acc.Add(3, 0.25);
  EXPECT_DOUBLE_EQ(acc.Get(3), 0.75);
  EXPECT_EQ(acc.touched().size(), 1u);
}

TEST(SparseAccumulatorTest, SumAndCountAbove) {
  SparseAccumulator acc(10);
  acc.Add(1, 0.2);
  acc.Add(2, 0.3);
  acc.Add(7, 0.05);
  EXPECT_NEAR(acc.Sum(), 0.55, 1e-15);
  EXPECT_EQ(acc.CountAbove(0.1), 2u);
}

TEST(SparseAccumulatorTest, ClearResetsOnlyTouched) {
  SparseAccumulator acc(1000);
  acc.Add(999, 1.0);
  acc.Clear();
  EXPECT_EQ(acc.Get(999), 0.0);
  EXPECT_TRUE(acc.touched().empty());
  acc.Add(999, 2.0);  // reusable after clear
  EXPECT_EQ(acc.Get(999), 2.0);
}

// ------------------------------------------------------------ TopKSelector --

TEST(TopKSelectorTest, KeepsLargestK) {
  TopKSelector sel(3);
  for (uint32_t i = 0; i < 10; ++i) sel.Offer(i, static_cast<double>(i));
  auto top = sel.TakeSortedDescending();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 9u);
  EXPECT_EQ(top[1].first, 8u);
  EXPECT_EQ(top[2].first, 7u);
}

TEST(TopKSelectorTest, ThresholdIsKthLargest) {
  TopKSelector sel(2);
  sel.Offer(0, 5.0);
  sel.Offer(1, 3.0);
  sel.Offer(2, 4.0);
  EXPECT_DOUBLE_EQ(sel.Threshold(), 4.0);
}

TEST(TopKSelectorTest, TieBreaksTowardSmallerId) {
  TopKSelector sel(2);
  sel.Offer(5, 1.0);
  sel.Offer(3, 1.0);
  sel.Offer(9, 1.0);
  auto top = sel.TakeSortedDescending();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 3u);
  EXPECT_EQ(top[1].first, 5u);
}

TEST(TopKSelectorTest, FewerOffersThanK) {
  TopKSelector sel(10);
  sel.Offer(1, 0.5);
  auto top = sel.TakeSortedDescending();
  ASSERT_EQ(top.size(), 1u);
}

TEST(TopKValuesTest, DescendingAndTruncated) {
  std::vector<double> v{0.1, 0.9, 0.5, 0.7};
  auto top = TopKValuesDescending(v, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_DOUBLE_EQ(top[0], 0.9);
  EXPECT_DOUBLE_EQ(top[1], 0.7);
  // k larger than size: everything, sorted.
  auto all = TopKValuesDescending(v, 10);
  EXPECT_EQ(all.size(), 4u);
  EXPECT_DOUBLE_EQ(all.back(), 0.1);
}

// -------------------------------------------------------------- ThreadPool --

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

// ------------------------------------------------------------------- misc --

TEST(HumanBytesTest, Formats) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KiB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.00 MiB");
}

TEST(HumanSecondsTest, Formats) {
  EXPECT_EQ(HumanSeconds(0.0000123), "12.3 us");
  EXPECT_EQ(HumanSeconds(0.123), "123.00 ms");
  EXPECT_EQ(HumanSeconds(12.3), "12.300 s");
}

TEST(EnvTest, FallbacksAndParsing) {
  ::unsetenv("RTK_TEST_ENV_VAR");
  EXPECT_EQ(EnvInt64("RTK_TEST_ENV_VAR", 7), 7);
  ::setenv("RTK_TEST_ENV_VAR", "42", 1);
  EXPECT_EQ(EnvInt64("RTK_TEST_ENV_VAR", 7), 42);
  ::setenv("RTK_TEST_ENV_VAR", "2.5", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("RTK_TEST_ENV_VAR", 1.0), 2.5);
  ::setenv("RTK_TEST_ENV_VAR", "abc", 1);
  EXPECT_EQ(EnvInt64("RTK_TEST_ENV_VAR", 7), 7);
  EXPECT_EQ(EnvString("RTK_TEST_ENV_VAR", ""), "abc");
  ::unsetenv("RTK_TEST_ENV_VAR");
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch sw;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  ASSERT_GT(sink, 0.0);  // keep the loop observable
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMicros(), 0);
  sw.Reset();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
}

}  // namespace
}  // namespace rtk
