// Tests of the benchmark's own helpers: the percentile support rule,
// self time from nested spans, span parent linking, and the determinism
// of the seeded arrival schedule and tenant mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "schedule.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(200, 0.95));
  EXPECT_FALSE(percentile_supported(199, 0.95));
  EXPECT_TRUE(percentile_supported(20, 0.5));
  EXPECT_FALSE(percentile_supported(19, 0.5));
}

TEST(PercentileRule, HighestSupportedLevel) {
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10000), 0.999);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000), 0.99);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(999), 0.95);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(100), 0.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(40), 0.75);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(20), 0.5);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(19), 0.0);
}

TEST(PercentileRule, UnsupportedTailFallsBackToMaximum) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  const Summary p99 = summarize(v, 0.99);
  EXPECT_FALSE(p99.tail_supported);
  EXPECT_DOUBLE_EQ(p99.tail, 100.0);
  const Summary p90 = summarize(v, 0.9);
  EXPECT_TRUE(p90.tail_supported);
  EXPECT_NEAR(p90.tail, 90.1, 1e-9);  // type 7: 1 + 0.9 * 99
  EXPECT_DOUBLE_EQ(p90.p50, 50.5);
  EXPECT_EQ(p90.n, 100u);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildIntervals) {
  SpanRecorder rec;
  const auto root = rec.add("root", 0, 0.0, 10.0);
  rec.add("a", root, 1.0, 3.0);
  const auto b = rec.add("b", root, 2.0, 5.0);  // overlaps a
  rec.add("c", root, 7.0, 8.0);
  rec.add("grandchild", b, 2.5, 4.5);  // only b's child
  const auto spans = rec.spans();
  const auto self = self_times_ms(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);  // [1,5] and [7,8] covered
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 2.0);
}

TEST(SelfTime, ClipsChildrenToTheParent) {
  SpanRecorder rec;
  const auto root = rec.add("root", 0, 0.0, 4.0);
  rec.add("late", root, 3.0, 9.0);  // recorded past its parent's end
  const auto self = self_times_ms(rec.spans());
  EXPECT_DOUBLE_EQ(self[0], 3.0);
  const auto by_name = self_durations_ms(rec.spans(), "root");
  ASSERT_EQ(by_name.size(), 1u);
  EXPECT_DOUBLE_EQ(by_name[0], 3.0);
}

TEST(SpanLinking, ParentIsTheInnermostOpenSpanOfTheThread) {
  SpanRecorder rec;
  std::uint32_t a = 0, b = 0, c = 0, d = 0;
  {
    ScopedSpan sa(&rec, "a");
    a = sa.id();
    {
      ScopedSpan sb(&rec, "b");
      b = sb.id();
    }
    {
      ScopedSpan sc(&rec, "c");
      c = sc.id();
    }
  }
  {
    ScopedSpan sd(&rec, "d");
    d = sd.id();
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[a - 1].parent, 0u);
  EXPECT_EQ(spans[b - 1].parent, a);
  EXPECT_EQ(spans[c - 1].parent, a);
  EXPECT_EQ(spans[d - 1].parent, 0u);
  for (const Span& s : spans) EXPECT_GE(s.end_ms, s.start_ms);
  EXPECT_LE(spans[a - 1].start_ms, spans[b - 1].start_ms);
  EXPECT_GE(spans[a - 1].end_ms, spans[c - 1].end_ms);
}

TEST(SpanLinking, OtherThreadsAndRecordersStartTheirOwnRoots) {
  SpanRecorder rec;
  SpanRecorder other;
  std::uint32_t outer = 0, foreign = 0, threaded = 0;
  {
    ScopedSpan so(&rec, "outer");
    outer = so.id();
    {
      ScopedSpan sf(&other, "foreign");
      foreign = sf.id();
      std::thread t([&] {
        ScopedSpan st(&rec, "threaded");
        threaded = st.id();
      });
      t.join();
    }
    ScopedSpan inner(&rec, "inner");  // skips the other recorder's span
    EXPECT_EQ(rec.spans()[inner.id() - 1].parent, outer);
  }
  EXPECT_EQ(other.spans()[foreign - 1].parent, 0u);
  EXPECT_EQ(rec.spans()[threaded - 1].parent, 0u);
}

TEST(SpanLinking, NullRecorderRecordsNothing) {
  ScopedSpan span(nullptr, "ignored");
  EXPECT_EQ(span.id(), 0u);
}

TEST(Schedule, SameSeedGivesTheSameArrivalsAndMix) {
  ScheduleSpec spec;
  spec.rate_per_s = 2000.0;
  spec.duration_ms = 2000.0;
  spec.pool0 = 512;
  spec.pool1 = 1000;
  const auto a = poisson_schedule(42, spec);
  const auto b = poisson_schedule(42, spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_ms, b[i].at_ms);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].sample, b[i].sample);
  }
  const auto c = poisson_schedule(43, spec);
  EXPECT_FALSE(a.size() == c.size() && a.front().at_ms == c.front().at_ms);
}

TEST(Schedule, RateMixAndPoolsMatchTheSpec) {
  ScheduleSpec spec;
  spec.rate_per_s = 4000.0;
  spec.duration_ms = 5000.0;
  spec.tenant0_share = 0.75;
  spec.pool0 = 512;
  spec.pool1 = 1000;
  const auto s = poisson_schedule(7, spec);
  const double expected = 20000.0;  // rate x duration; sd = sqrt(20000)
  EXPECT_NEAR(static_cast<double>(s.size()), expected,
              5.0 * std::sqrt(expected));
  std::size_t tenant0 = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_LT(s[i].at_ms, spec.duration_ms);
    if (i > 0) {
      EXPECT_GE(s[i].at_ms, s[i - 1].at_ms);
    }
    EXPECT_LT(s[i].sample, s[i].tenant == 0 ? spec.pool0 : spec.pool1);
    tenant0 += s[i].tenant == 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(tenant0) / static_cast<double>(s.size()),
              0.75, 0.02);
}

TEST(Schedule, SeededPermutationIsADeterministicPermutation) {
  const auto p = seeded_permutation(9, 1000);
  EXPECT_EQ(p, seeded_permutation(9, 1000));
  EXPECT_NE(p, seeded_permutation(10, 1000));
  auto sorted = p;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_EQ(derive_seed(5, 3), derive_seed(5, 3));
}

}  // namespace
}  // namespace perfbench
