// Unit tests for hc_util: strings, Result, time formatting, RNG, tables.
#include <gtest/gtest.h>

#include <cmath>

#include "util/errors.hpp"
#include "util/histogram.hpp"
#include "util/log.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/time_format.hpp"

namespace hc::util {
namespace {

// ---------- strings ----------

TEST(Strings, TrimRemovesSurroundingWhitespace) {
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("\tabc\r\n"), "abc");
    EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, TrimEmptyAndAllSpace) {
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, SplitKeepsEmptyFields) {
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitSingleField) {
    const auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitTrailingSeparatorYieldsEmptyTail) {
    const auto parts = split("a,b,", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[2], "");
}

TEST(Strings, SplitWsDropsEmptyFields) {
    const auto parts = split_ws("  a \t b\n c  ");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitLinesHandlesTrailingNewline) {
    const auto lines = split_lines("a\nb\n");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[1], "b");
}

TEST(Strings, SplitLinesStripsCarriageReturns) {
    const auto lines = split_lines("a\r\nb\r\n");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "a");
    EXPECT_EQ(lines[1], "b");
}

TEST(Strings, JoinWithSeparator) {
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, ReplaceAllReplacesEveryOccurrence) {
    EXPECT_EQ(replace_all("aXbXc", "X", "-"), "a-b-c");
    EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");  // non-overlapping, left to right
    EXPECT_EQ(replace_all("abc", "x", "y"), "abc");
}

TEST(Strings, PadLeftAndRight) {
    EXPECT_EQ(pad_left("7", 4, '0'), "0007");
    EXPECT_EQ(pad_right("ab", 5), "ab   ");
    EXPECT_EQ(pad_left("long-already", 4), "long-already");
}

TEST(Strings, ParseUintAcceptsDigitsOnly) {
    EXPECT_EQ(parse_uint("0"), 0);
    EXPECT_EQ(parse_uint("0042"), 42);
    EXPECT_EQ(parse_uint(""), -1);
    EXPECT_EQ(parse_uint("12a"), -1);
    EXPECT_EQ(parse_uint("-3"), -1);
}

TEST(Strings, FormatFixed) {
    EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
    EXPECT_EQ(format_fixed(2.0, 0), "2");
}

// ---------- Result / Status ----------

TEST(Result, HoldsValue) {
    Result<int> r = 42;
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
    Result<int> r = Error{"boom", 3};
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().message, "boom");
    EXPECT_EQ(r.error_message(), "line 3: boom");
    EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, ValueOnErrorThrows) {
    Result<int> r = Error{"nope"};
    EXPECT_THROW((void)r.value(), PreconditionError);
}

TEST(Result, MapPropagatesError) {
    Result<int> err = Error{"bad"};
    auto mapped = err.map([](int v) { return v * 2; });
    EXPECT_FALSE(mapped.ok());
    Result<int> good = 21;
    EXPECT_EQ(good.map([](int v) { return v * 2; }).value(), 42);
}

TEST(Status, OkByDefault) {
    Status s;
    EXPECT_TRUE(s.ok());
    Status e = Error{"x"};
    EXPECT_FALSE(e.ok());
    EXPECT_EQ(e.error().message, "x");
}

// ---------- time formatting ----------

TEST(TimeFormat, PaperQtimeRendersExactly) {
    // Fig 8: "qtime = Fri Apr 16 17:55:40 2010"
    const std::int64_t t = civil_to_unix(2010, 4, 16, 17, 55, 40);
    EXPECT_EQ(format_pbs_time(t), "Fri Apr 16 17:55:40 2010");
}

TEST(TimeFormat, DetectorTimeRendersExactly) {
    // Fig 6: "time=2010 04 17 20 11 12"
    const std::int64_t t = civil_to_unix(2010, 4, 17, 20, 11, 12);
    EXPECT_EQ(format_detector_time(t), "2010 04 17 20 11 12");
}

TEST(TimeFormat, CivilRoundTrip) {
    const std::int64_t t = civil_to_unix(2012, 9, 24, 9, 30, 0);  // CLUSTER 2012 opening day
    const CivilTime c = unix_to_civil(t);
    EXPECT_EQ(c.year, 2012);
    EXPECT_EQ(c.month, 9);
    EXPECT_EQ(c.day, 24);
    EXPECT_EQ(c.hour, 9);
    EXPECT_EQ(c.weekday, 1);  // a Monday
}

TEST(TimeFormat, UnixEpochIsThursday) {
    const CivilTime c = unix_to_civil(0);
    EXPECT_EQ(c.year, 1970);
    EXPECT_EQ(c.weekday, 4);
}

TEST(TimeFormat, LeapYearFebruary) {
    const std::int64_t t = civil_to_unix(2012, 2, 29, 12, 0, 0);
    const CivilTime c = unix_to_civil(t);
    EXPECT_EQ(c.month, 2);
    EXPECT_EQ(c.day, 29);
}

TEST(TimeFormat, DefaultEpochIsApril16th2010) {
    const CivilTime c = unix_to_civil(default_sim_epoch());
    EXPECT_EQ(c.year, 2010);
    EXPECT_EQ(c.month, 4);
    EXPECT_EQ(c.day, 16);
    EXPECT_EQ(c.hour, 0);
}

TEST(TimeFormat, DurationFormatting) {
    EXPECT_EQ(format_duration(0), "00:00:00");
    EXPECT_EQ(format_duration(3661), "01:01:01");
    EXPECT_EQ(format_duration(90061), "1d 01:01:01");
    EXPECT_EQ(format_duration(-61), "-00:01:01");
}

// ---------- RNG ----------

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next_u64() == b.next_u64()) ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentAndStable) {
    Rng root(7);
    Rng f1 = root.fork("alpha");
    Rng f2 = Rng(7).fork("alpha");
    EXPECT_EQ(f1.next_u64(), f2.next_u64());
    Rng f3 = Rng(7).fork("beta");
    EXPECT_NE(Rng(7).fork("alpha").next_u64(), f3.next_u64());
}

TEST(Rng, UniformIntStaysInRange) {
    Rng rng(99);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
    }
}

TEST(Rng, UniformIntDegenerateRange) {
    Rng rng(5);
    EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
    Rng rng(42);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
    EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(Rng, ChanceBoundaries) {
    Rng rng(1);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, WeightedIndexRespectsWeights) {
    Rng rng(8);
    const double weights[] = {0.0, 1.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 4000; ++i) ++counts[rng.weighted_index(weights)];
    EXPECT_EQ(counts[0], 0);
    EXPECT_GT(counts[2], counts[1]);  // 3:1 odds
}

TEST(Rng, WeightedIndexAllZeroThrows) {
    Rng rng(8);
    const double weights[] = {0.0, 0.0};
    EXPECT_THROW((void)rng.weighted_index(weights), PreconditionError);
}

TEST(Rng, LognormalMedianRoughlyCorrect) {
    Rng rng(77);
    std::vector<double> samples;
    for (int i = 0; i < 9999; ++i) samples.push_back(rng.lognormal_median(100.0, 0.5));
    std::sort(samples.begin(), samples.end());
    EXPECT_NEAR(samples[samples.size() / 2], 100.0, 10.0);
}

// ---------- histogram ----------

TEST(Histogram, CountsBucketsAndStats) {
    Histogram h(0, 10, 5);
    for (double v : {1.0, 1.5, 3.0, 9.0, 9.9}) h.add(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 9.9);
    EXPECT_NEAR(h.mean(), 4.88, 1e-9);
    const std::string render = h.render(10);
    // First bucket holds 2 samples, last holds 2.
    EXPECT_NE(render.find(" 2\n"), std::string::npos);
}

TEST(Histogram, RenderIsByteGolden) {
    Histogram h(0, 10, 5);
    for (double v : {1.0, 1.5, 3.0, 9.0, 9.9}) h.add(v);
    EXPECT_EQ(h.render(10, "s"),
              "[    0.0,     2.0s) ########## 2\n"
              "[    2.0,     4.0s) ##### 1\n"
              "[    4.0,     6.0s)  0\n"
              "[    6.0,     8.0s)  0\n"
              "[    8.0,    10.0s) ########## 2\n");
    // Bars scale to the peak bucket; an empty histogram draws no bars.
    EXPECT_EQ(Histogram(0, 4, 2).render(),
              "[    0.0,     2.0)  0\n"
              "[    2.0,     4.0)  0\n");
}

TEST(Histogram, ClampsOutOfRangeToEdges) {
    Histogram h(0, 10, 2);
    h.add(-5);
    h.add(50);
    EXPECT_EQ(h.count(), 2u);
    const std::string render = h.render(4);
    EXPECT_NE(render.find(" 1\n"), std::string::npos);  // one in each edge bucket
}

TEST(Histogram, PercentilesInterpolate) {
    Histogram h(0, 100, 10);
    for (int i = 1; i <= 100; ++i) h.add(i);
    EXPECT_NEAR(h.percentile(0.5), 50.5, 0.01);
    EXPECT_NEAR(h.percentile(0.95), 95.05, 0.1);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(Histogram, MergeEmptyIntoPopulatedIsNoOp) {
    Histogram h(0, 100, 10);
    for (int i = 1; i <= 100; ++i) h.add(i);
    const Histogram empty(0, 100, 10);
    h.merge(empty);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_NEAR(h.mean(), 50.5, 1e-9);
    // Percentiles stay stable: the empty side's zero min/max must not leak.
    EXPECT_NEAR(h.percentile(0.5), 50.5, 0.01);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
}

TEST(Histogram, MergePopulatedIntoEmptyCopiesEverything) {
    Histogram donor(0, 100, 10);
    for (int i = 1; i <= 100; ++i) donor.add(i);
    Histogram h(0, 100, 10);
    h.merge(donor);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_NEAR(h.percentile(0.5), 50.5, 0.01);
    EXPECT_NEAR(h.percentile(0.95), 95.05, 0.1);
    // Donor untouched.
    EXPECT_EQ(donor.count(), 100u);
    EXPECT_NEAR(donor.percentile(0.5), 50.5, 0.01);
}

TEST(Histogram, MergeCombinesDisjointRanges) {
    Histogram lowhalf(0, 100, 10);
    Histogram highhalf(0, 100, 10);
    for (int i = 1; i <= 50; ++i) lowhalf.add(i);
    for (int i = 51; i <= 100; ++i) highhalf.add(i);
    // Percentile query before merging forces a sort — merge must cope with a
    // sorted-then-appended sample buffer.
    EXPECT_NEAR(lowhalf.percentile(0.5), 25.5, 0.01);
    lowhalf.merge(highhalf);
    EXPECT_EQ(lowhalf.count(), 100u);
    EXPECT_DOUBLE_EQ(lowhalf.min(), 1.0);
    EXPECT_DOUBLE_EQ(lowhalf.max(), 100.0);
    EXPECT_NEAR(lowhalf.mean(), 50.5, 1e-9);
    EXPECT_NEAR(lowhalf.percentile(0.5), 50.5, 0.01);
}

TEST(Histogram, MergeRejectsBucketingMismatch) {
    Histogram a(0, 100, 10);
    Histogram b(0, 50, 10);
    Histogram c(0, 100, 20);
    EXPECT_THROW(a.merge(b), PreconditionError);
    EXPECT_THROW(a.merge(c), PreconditionError);
}

TEST(Histogram, Validation) {
    EXPECT_THROW(Histogram(5, 5, 3), PreconditionError);
    EXPECT_THROW(Histogram(0, 10, 0), PreconditionError);
    Histogram h(0, 1, 1);
    EXPECT_DOUBLE_EQ(h.percentile(1.5), 0.0);  // out-of-range p clamps, empty is safe
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

// ---------- logging ----------

TEST(Log, CaptureSinkReceivesRecords) {
    Logger logger;
    auto sink = std::make_shared<CaptureSink>();
    logger.add_sink([sink](const LogRecord& r) { (*sink)(r); });
    logger.set_clock([] { return 42; });
    logger.info("component", "hello");
    ASSERT_EQ(sink->records().size(), 1u);
    EXPECT_EQ(sink->records()[0].sim_time, 42);
    EXPECT_EQ(sink->records()[0].component, "component");
}

TEST(Log, MinLevelFiltersRecords) {
    Logger logger;
    auto sink = std::make_shared<CaptureSink>();
    logger.add_sink([sink](const LogRecord& r) { (*sink)(r); });
    logger.set_min_level(LogLevel::kWarn);
    logger.info("c", "dropped");
    logger.warn("c", "kept");
    ASSERT_EQ(sink->records().size(), 1u);
    EXPECT_EQ(sink->records()[0].message, "kept");
}

TEST(Log, FormatRecord) {
    LogRecord r{LogLevel::kError, 5, "pbs", "bad"};
    EXPECT_EQ(format_log_record(r), "[      5s] ERROR pbs: bad");
}

// ---------- table ----------

TEST(Table, RendersHeadersAndRows) {
    Table t({"a", "bb"});
    t.add_row({"1", "2"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| a | bb |"), std::string::npos);
    EXPECT_NE(out.find("| 1 | 2  |"), std::string::npos);
}

TEST(Table, RightAlignment) {
    Table t({"n"});
    t.set_alignment({Align::kRight});
    t.add_row({"7"});
    t.add_row({"100"});
    const std::string out = t.render();
    EXPECT_NE(out.find("|   7 |"), std::string::npos);
}

TEST(Table, MismatchedRowThrows) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(Table, MarkdownRendering) {
    Table t({"x", "y"});
    t.add_row({"1", "2"});
    const std::string md = t.render_markdown();
    EXPECT_NE(md.find("| x | y |"), std::string::npos);
    EXPECT_NE(md.find("|---|---|"), std::string::npos);
}

// ---------- histogram edge cases ----------

TEST(Histogram, EmptyHistogramReportsZeros) {
    Histogram h(0, 100, 10);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(Histogram, PercentileClampsOutOfRangeP) {
    Histogram h(0, 100, 10);
    h.add(10);
    h.add(20);
    h.add(30);
    EXPECT_EQ(h.percentile(-0.5), 10.0);  // below 0 -> min
    EXPECT_EQ(h.percentile(2.0), 30.0);   // above 1 -> max
    EXPECT_EQ(h.percentile(std::nan("")), 10.0);
    EXPECT_EQ(h.percentile(0.5), 20.0);   // sane p still interpolates
}

TEST(Histogram, OutOfRangeSamplesClampToEdgeBuckets) {
    Histogram h(0, 10, 5);
    h.add(-1000);  // below lo
    h.add(1000);   // above hi
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.min(), -1000.0);
    EXPECT_EQ(h.max(), 1000.0);
    const std::string rendered = h.render();
    EXPECT_NE(rendered.find(" 1\n"), std::string::npos);  // one per edge bucket
}

TEST(Histogram, SingleSamplePercentiles) {
    Histogram h(0, 10, 5);
    h.add(7);
    EXPECT_EQ(h.percentile(0.0), 7.0);
    EXPECT_EQ(h.percentile(0.5), 7.0);
    EXPECT_EQ(h.percentile(1.0), 7.0);
    EXPECT_EQ(h.mean(), 7.0);
}

}  // namespace
}  // namespace hc::util
