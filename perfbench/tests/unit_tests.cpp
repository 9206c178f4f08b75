// Tests of the benchmark's own arithmetic: the percentile reporting rule,
// span self time, and the metric-name character set.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileRule, NearestRankWithoutRoundingDrift) {
  EXPECT_EQ(nearest_rank(0.5, 1), 1u);
  EXPECT_EQ(nearest_rank(0.5, 4), 2u);
  EXPECT_EQ(nearest_rank(0.5, 5), 3u);
  // 0.99 * 1000 is 990.0000000000001 in binary floating point.
  EXPECT_EQ(nearest_rank(0.99, 1000), 990u);
  EXPECT_EQ(nearest_rank(0.99, 999), 990u);
  EXPECT_EQ(nearest_rank(0.0, 10), 1u);
  EXPECT_EQ(nearest_rank(1.0, 10), 10u);
}

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(0.99, 1000), 10u);
  EXPECT_TRUE(quantile_supported(0.99, 1000));
  EXPECT_EQ(samples_beyond(0.99, 999), 9u);
  EXPECT_FALSE(quantile_supported(0.99, 999));
  EXPECT_FALSE(quantile_supported(0.99, 0));
  EXPECT_TRUE(quantile_supported(0.5, 20));
  EXPECT_FALSE(quantile_supported(0.5, 19));
}

TEST(PercentileRule, QuantilesOfKnownSamples) {
  Samples s;
  for (int i = 1000; i >= 1; --i) s.add(i);  // unsorted input
  EXPECT_EQ(s.quantile(0.5), 500);
  EXPECT_EQ(s.quantile(0.99), 990);
  EXPECT_EQ(s.size(), 1000u);
  EXPECT_EQ(Samples().quantile(0.5), 0);
}

TEST(PercentileRule, ReportStatesSampleCountsAndDropsUnsupportedP99) {
  Samples few, many;
  for (int i = 0; i < 999; ++i) few.add(i);
  for (int i = 0; i < 1000; ++i) many.add(i);
  Report r;
  EXPECT_FALSE(r.add_latency("few", {few}));
  EXPECT_TRUE(r.add_latency("many", {many}));
  ASSERT_NE(r.find("few_p50_us"), nullptr);
  EXPECT_EQ(r.find("few_p50_us")->samples, 999u);
  EXPECT_EQ(r.find("few_p99_us"), nullptr);
  ASSERT_NE(r.find("many_p99_us"), nullptr);
  EXPECT_EQ(r.find("many_p99_us")->samples, 1000u);
  EXPECT_EQ(r.find("many_p99_us")->value, 989);
}

TEST(PercentileRule, MedianOverPartsFallsBackWhenAPartIsThin) {
  Samples a, b, c, thin;
  for (int i = 0; i < 100; ++i) {
    a.add(10);
    b.add(20);
    c.add(30 + i);
  }
  // Every part supports a p50: the median of 10, 20 and 79.
  EXPECT_EQ(median_of_quantiles({a, b, c}, 0.5), 20);
  EXPECT_EQ(median_of_quantiles({c, a, b}, 0.5), 20);
  // A part with too few samples: the run-wide quantile instead (the
  // per-part median would read 1000).
  thin.add(1000);
  EXPECT_EQ(median_of_quantiles({a, thin, thin}, 0.5), 10);
  // A p99 over 3 x 100 samples: no part supports it alone; rank 297 of
  // 10 x100, 20 x100, 30..129.
  EXPECT_EQ(median_of_quantiles({a, b, c}, 0.99), 126);
}

TEST(PercentileRule, WindowsOfATimedPhase) {
  const Windows w = Windows::Of(1000, 3.5);
  EXPECT_EQ(w.n, 3u);
  EXPECT_EQ(w.len_ns, 1'166'666'666);
  EXPECT_EQ(Windows::Of(0, 0.2).n, 1u);
  Timeline t;
  t.add(1000, 1);                     // first window
  t.add(1000 + w.len_ns, 2);          // second
  t.add(1000 + 2 * w.len_ns + 5, 3);  // third
  t.add(1000 + 9 * w.len_ns, 4);      // late: counts in the last
  t.add(0, 5);                        // early: counts in the first
  const auto parts = t.windows(w);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 2u);
  EXPECT_EQ(parts[1].size(), 1u);
  EXPECT_EQ(parts[2].size(), 2u);
  // Median of 2, 1 and 2 completions per window, per second.
  EXPECT_DOUBLE_EQ(windowed_rate(t, w),
                   2 * 1e9 / static_cast<double>(w.len_ns));
}

TEST(SpanSelfTime, SubtractsChildCoverage) {
  EXPECT_EQ(spans::self_ns(0, 100, {}), 100);
  EXPECT_EQ(spans::self_ns(0, 100, {{10, 20}, {30, 50}}), 70);
  // Overlapping children count once.
  EXPECT_EQ(spans::self_ns(0, 100, {{10, 40}, {30, 50}}), 60);
  // Children are clipped to the parent.
  EXPECT_EQ(spans::self_ns(10, 20, {{0, 15}, {18, 30}}), 3);
  // A child covering the whole parent leaves nothing.
  EXPECT_EQ(spans::self_ns(10, 20, {{0, 30}}), 0);
  // Order of children does not matter; nested children do not
  // double-count.
  EXPECT_EQ(spans::self_ns(0, 100, {{60, 90}, {5, 10}, {65, 70}}), 65);
}

TEST(SpanSelfTime, DeriveUsesDirectChildrenOnly) {
  std::vector<spans::Span> s(4);
  s[0] = {0, 100, 1, -1, spans::Name::kRouterPut, 0};
  s[1] = {10, 40, 1, 0, spans::Name::kChannelCall, 0};
  s[2] = {15, 25, 1, 1, spans::Name::kStorePut, 0};  // grandchild
  s[3] = {50, 60, 1, 0, spans::Name::kChannelCall, 0};
  const auto d = spans::derive(s);
  EXPECT_EQ(d[0].self_ns, 60);
  EXPECT_EQ(d[0].children, 2u);
  EXPECT_EQ(d[1].self_ns, 20);
  EXPECT_EQ(d[1].children, 1u);
  EXPECT_EQ(d[2].self_ns, 10);
  EXPECT_EQ(d[3].self_ns, 10);
}

TEST(SpanRecorder, NestsOnOneThread) {
  spans::set_enabled(true);
  std::thread t([] {
    spans::set_op(7);
    const spans::Scope outer(spans::Name::kRouterPoint);
    { const spans::Scope inner(spans::Name::kChannelCall, 3); }
  });
  t.join();
  spans::set_enabled(false);
  { const spans::Scope ignored(spans::Name::kStorePut); }
  const auto all = spans::take();
  ASSERT_EQ(all.size(), 1u);
  ASSERT_EQ(all[0].spans.size(), 2u);
  const auto& outer = all[0].spans[0];
  const auto& inner = all[0].spans[1];
  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(inner.parent, 0);
  EXPECT_EQ(inner.tag, 3);
  EXPECT_EQ(inner.op, 7u);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
}

TEST(MetricNames, CharacterSet) {
  EXPECT_TRUE(valid_metric_name("point_p50_us"));
  EXPECT_TRUE(valid_metric_name("svc.router.keyed_self_us"));
  EXPECT_TRUE(valid_metric_name("0ratio-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_metric_unit("1/s"));
  EXPECT_TRUE(valid_metric_unit("%"));
  EXPECT_TRUE(valid_metric_unit("count"));
  EXPECT_FALSE(valid_metric_unit(""));
  EXPECT_FALSE(valid_metric_unit("micro seconds"));
  EXPECT_FALSE(valid_metric_unit(std::string(17, 'u')));
  Report r;
  EXPECT_THROW(r.add("bad name", 1, "s", 1), std::invalid_argument);
  r.add("ok", 1, "s", 1);
  EXPECT_THROW(r.add("ok", 2, "s", 1), std::invalid_argument);
}

TEST(Seeds, SubSeedsDifferPerStream) {
  EXPECT_EQ(sub_seed(1, 0), sub_seed(1, 0));
  EXPECT_NE(sub_seed(1, 0), sub_seed(1, 1));
  EXPECT_NE(sub_seed(1, 0), sub_seed(2, 0));
}

}  // namespace
}  // namespace perfbench
