// Tests of the benchmark's measurement primitives (harness.h). The check
// that the benchmark's output names every BENCHMARK.json metric with its
// unit lives in run.py --self-test, which can read the JSON file.

#include "harness.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace servebench {
namespace {

TEST(NearestRankTest, PicksTheCeilRankSample) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // any order
  EXPECT_EQ(NearestRank(v, 50).value, 50.0);
  EXPECT_EQ(NearestRank(v, 99).value, 99.0);
  EXPECT_EQ(NearestRank(v, 100).value, 100.0);
  EXPECT_EQ(NearestRank({7.0}, 50).value, 7.0);
  // ceil(0.5 * 3) = 2nd smallest; no interpolation.
  EXPECT_EQ(NearestRank({3.0, 1.0, 2.0}, 50).value, 2.0);
  EXPECT_EQ(NearestRank({1.0, 2.0, 3.0, 4.0}, 50).value, 2.0);
}

TEST(NearestRankTest, SampleCountRuleNeedsTenBeyond) {
  EXPECT_EQ(MinSamplesFor(99), 1000u);
  EXPECT_EQ(MinSamplesFor(95), 200u);
  EXPECT_EQ(MinSamplesFor(50), 20u);
  std::vector<double> v(999, 1.0);
  Quantile q = NearestRank(v, 99);
  EXPECT_FALSE(q.valid);
  EXPECT_EQ(q.samples, 999u);
  v.push_back(2.0);
  q = NearestRank(v, 99);
  EXPECT_TRUE(q.valid);
  EXPECT_EQ(q.samples, 1000u);
  EXPECT_FALSE(NearestRank({}, 50).valid);
}

TEST(QuantileReportTest, KeepsEverySampleCountAndFlagsThinPercentiles) {
  QuantileReport report;
  std::vector<double> thin(999, 0.002);
  std::vector<double> enough(1000, 0.002);
  // 999 samples: p99 is invalid and reads as the sentinel, not a value.
  EXPECT_EQ(report.Layer("a.p99", thin, 99, 1e3), kInvalidPercentile);
  EXPECT_DOUBLE_EQ(report.Layer("b.p99", enough, 99, 1e3), 2.0);
  // A layer that never ran reads 0.
  EXPECT_EQ(report.Layer("c.p50", {}, 50), 0.0);
  ASSERT_EQ(report.entries().size(), 3u);
  EXPECT_EQ(report.entries()[0].q.samples, 999u);
  EXPECT_FALSE(report.entries()[0].q.valid);
  EXPECT_EQ(report.entries()[1].q.samples, 1000u);
  const std::string table = report.Table();
  EXPECT_NE(table.find("a.p99"), std::string::npos);
  EXPECT_NE(table.find("n=999"), std::string::npos);
  EXPECT_NE(table.find("INVALID"), std::string::npos);
  EXPECT_NE(table.find("n=1000"), std::string::npos);
  EXPECT_NE(table.find("(no samples)"), std::string::npos);
}

TEST(SelfTimeTest, NestedChildrenOnlyCountTheDirectLevel) {
  SpanLog log;
  const int64_t root = log.Add("root", 0.0, 10.0, -1, 1);
  const int64_t child = log.Add("child", 2.0, 6.0, root, 1);
  log.Add("grandchild", 3.0, 5.0, child, 1);
  const std::vector<double> self = SelfTimes(log.spans());
  EXPECT_DOUBLE_EQ(self[0], 6.0);  // 10 - 4
  EXPECT_DOUBLE_EQ(self[1], 2.0);  // 4 - 2
  EXPECT_DOUBLE_EQ(self[2], 2.0);
}

TEST(SelfTimeTest, OverlappingChildrenAreCountedOnce) {
  SpanLog log;
  const int64_t root = log.Add("root", 0.0, 10.0, -1, 1);
  log.Add("a", 1.0, 4.0, root, 1);
  log.Add("b", 3.0, 6.0, root, 1);   // overlaps a on [3, 4]
  log.Add("c", 8.0, 12.0, root, 1);  // sticks out of the parent
  log.Add("d", 4.5, 5.0, root, 1);   // inside b
  const std::vector<double> self = SelfTimes(log.spans());
  // covered: [1, 6] + [8, 10] = 7
  EXPECT_DOUBLE_EQ(self[0], 3.0);
}

TEST(SelfTimeTest, ByNameFiltersOnTheRoot) {
  SpanLog log;
  const int64_t r1 = log.Add("replay.request", 0.0, 4.0, -1, 1);
  log.Add("exec.prune", 1.0, 3.0, r1, 1);
  const int64_t r2 = log.Add("replay.update", 4.0, 9.0, -1, 2);
  log.Add("dynamic.repair", 5.0, 9.0, r2, 2);
  const auto by_name = SelfTimeByName(log.spans(), "replay.request");
  EXPECT_DOUBLE_EQ(by_name.at("replay.request"), 2.0);
  EXPECT_DOUBLE_EQ(by_name.at("exec.prune"), 2.0);
  EXPECT_EQ(by_name.count("dynamic.repair"), 0u);
  EXPECT_EQ(SelfTimeByName(log.spans()).size(), 4u);
  // Only the spans of requests below 2: the update tree drops out.
  EXPECT_EQ(SelfTimeByName(log.spans(), "", 2).size(), 2u);
}

TEST(LatencyTest, GeneratorLatenessRunsFromTheDueTime) {
  // A slot freed at 1.000 s and refilled 5 ms later.
  EXPECT_NEAR(GeneratorLateness(1.000, 1.005), 0.005, 1e-12);
  // Early issue is not negative lateness.
  EXPECT_EQ(GeneratorLateness(2.0, 1.999), 0.0);
}

TEST(FailureCountsTest, EveryNonOkOutcomeCounts) {
  FailureCounts f;
  f.Add(Outcome::kOk);
  f.Add(Outcome::kOk);
  f.Add(Outcome::kShed);
  f.Add(Outcome::kExpired);
  f.Add(Outcome::kCancelled);
  f.Add(Outcome::kError);
  f.Add(Outcome::kRejected);
  f.Add(Outcome::kOk);
  EXPECT_EQ(f.attempted, 8u);
  EXPECT_EQ(f.failed(), 5u);
  EXPECT_DOUBLE_EQ(f.fail_frac(), 5.0 / 8.0);
  EXPECT_EQ(FailureCounts().fail_frac(), 0.0);
}

TEST(ResultJsonTest, NamesEveryMetricWithItsUnit) {
  const std::string json = ResultJson(
      true, 10, 1, {{"p50_ms", "ms", 1.25}, {"qps", "1/s", 400.5}});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"qps\": {\"value\": 400.5, \"unit\": \"1/s\"}}}");
}

}  // namespace
}  // namespace servebench
