// Unit tests for the measurement substrate (stats, time, rng, csv, json).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/latency_histogram.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace midrr {
namespace {

TEST(Time, ConversionRoundTrip) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(2 * kSecond + 500 * kMillisecond), 2.5);
}

TEST(Time, TransmissionTimeRoundsUp) {
  // 1000 bytes at 1 Mb/s = exactly 8 ms.
  EXPECT_EQ(transmission_time(1000, 1e6), 8 * kMillisecond);
  // At 3 Mb/s: 8000/3e6 s = 2666666.66..ns -> rounds up to 2666667.
  EXPECT_EQ(transmission_time(1000, 3e6), 2666667);
  EXPECT_THROW(transmission_time(1000, 0.0), PreconditionError);
}

TEST(Time, RateBps) {
  EXPECT_DOUBLE_EQ(rate_bps(1000, 8 * kMillisecond), 1e6);
  EXPECT_DOUBLE_EQ(to_mbps(mbps(3.5)), 3.5);
}

TEST(Time, ParseMsTakesWholeFiniteTokensInRange) {
  for (const char* bad : {"1e300", "inf", "nan", "-1", "5abc", "", "1e9.5",
                          "1000000000.5", " 5"}) {
    EXPECT_FALSE(parse_ms(bad).has_value()) << bad;
  }
  EXPECT_EQ(parse_ms("0"), 0);
  EXPECT_EQ(parse_ms("0.25"), 250 * kMicrosecond);
  EXPECT_EQ(parse_ms("1e9"), 1'000'000'000 * kMillisecond);
  EXPECT_FALSE(checked_ms_to_ns(std::nan("")).has_value());
  EXPECT_FALSE(checked_ms_to_ns(-0.5).has_value());
  EXPECT_EQ(checked_ms_to_ns(1.5), 1'500'000);
}

TEST(OnlineStats, Moments) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.13809, 1e-4);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-3.0);   // underflow -> first bucket
  h.add(42.0);   // overflow -> last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(9), 2u);
  EXPECT_DOUBLE_EQ(h.bucket_mid(0), 0.5);
}

TEST(EmpiricalCdf, QuantilesAndCurve) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 100.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(cdf.cdf(10.0), 0.10);
  EXPECT_DOUBLE_EQ(cdf.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.cdf(1000.0), 1.0);
  const auto curve = cdf.curve();
  EXPECT_EQ(curve.size(), 100u);
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(RateMeter, WindowedRate) {
  RateMeter meter(100 * kMillisecond, 10);  // 1 s window
  // 1000 bytes every 100 ms for 2 s -> 80 kb/s.
  for (int i = 0; i < 20; ++i) {
    meter.record(i * 100 * kMillisecond, 1000);
  }
  EXPECT_NEAR(meter.rate_bps(2 * kSecond), 80'000.0, 1.0);
  EXPECT_EQ(meter.total_bytes(), 20'000u);
}

TEST(RateMeter, RateDropsWhenIdle) {
  RateMeter meter(100 * kMillisecond, 10);
  meter.record(0, 10'000);
  EXPECT_GT(meter.rate_bps(500 * kMillisecond), 0.0);
  EXPECT_DOUBLE_EQ(meter.rate_bps(5 * kSecond), 0.0);
}

TEST(RateMeter, RejectsOutOfOrder) {
  RateMeter meter(kMillisecond);
  meter.record(10 * kMillisecond, 1);
  EXPECT_THROW(meter.record(5 * kMillisecond, 1), PreconditionError);
}

TEST(RateMeter, AnswersFromExactlyTheRetainedBins) {
  // Reference: every record summed into its bin; a query counts the bins
  // of its window that the meter still retains, [newest - 2W, newest].
  // The first record is before time 0.  Records then step forward (mostly
  // within the newest bin, the meter's one-add path), land on bin edges
  // (k*bin and k*bin - 1 around the newest bin), jump idle gaps longer
  // than the retention, and lag the newest time by up to the whole
  // retention window.
  constexpr SimDuration kBin = 10 * kMillisecond;
  constexpr std::int64_t kWindow = 3;
  RateMeter meter(kBin, kWindow);
  std::map<std::int64_t, std::uint64_t> bins;
  std::uint64_t total = 0;
  SimTime newest = 0;
  const auto reference_bps = [&](SimTime at) {
    const std::int64_t end = at / kBin;
    const std::int64_t from =
        std::max(end - kWindow, newest / kBin - 2 * kWindow);
    std::uint64_t bytes = 0;
    for (const auto& [bin, b] : bins) {
      if (bin >= from && bin < end) bytes += b;
    }
    return static_cast<double>(bytes) * 8.0 / to_seconds(kWindow * kBin);
  };
  constexpr SimTime kFirst = -2 * kBin - 3;  // bin -2 (division truncates)
  meter.record(kFirst, 700);
  bins[kFirst / kBin] += 700;
  total += 700;
  Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    const double u = rng.uniform(0.0, 1.0);
    SimTime at = newest;
    if (u < 0.05) {
      at = newest + rng.uniform_int(1, 12) * kBin;
    } else if (u < 0.2) {
      // First or last nanosecond of the newest bin or its neighbours.
      const std::int64_t edge = newest / kBin + rng.uniform_int(0, 1);
      at = edge * kBin - rng.uniform_int(0, 1);
    } else if (u < 0.6) {
      at = newest + rng.uniform_int(0, kBin / 2);
    } else {
      const std::int64_t floor_bin =
          std::max<std::int64_t>(0, newest / kBin - 2 * kWindow);
      at = rng.uniform_int(floor_bin * kBin, newest);
    }
    const auto bytes = static_cast<std::uint64_t>(rng.uniform_int(1, 1500));
    meter.record(at, bytes);
    bins[at / kBin] += bytes;
    total += bytes;
    newest = std::max(newest, at);
    for (std::int64_t k = -2 * kWindow - 2; k <= kWindow + 2; ++k) {
      const SimTime query = newest + k * kBin / 2;
      if (query < 0) continue;
      ASSERT_EQ(meter.rate_bps(query), reference_bps(query)) << "record " << i;
    }
  }
  EXPECT_EQ(meter.total_bytes(), total);
}

TEST(TimeSeries, MeanOverWindow) {
  TimeSeries ts("x");
  ts.add(0, 1.0);
  ts.add(kSecond, 2.0);
  ts.add(2 * kSecond, 3.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(0, 3 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(kSecond, 2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(5 * kSecond, 6 * kSecond), 0.0);
}

TEST(JainIndex, PerfectAndSkewed) {
  EXPECT_DOUBLE_EQ(jain_index({1.0, 1.0, 1.0}), 1.0);
  // One flow hogging: J = n^2 / (n * n) ... for {1,0,0}: 1/3.
  EXPECT_NEAR(jain_index({1.0, 0.0, 0.0}), 1.0 / 3.0, 1e-12);
  // Weighted: rates proportional to weights are perfectly fair.
  EXPECT_DOUBLE_EQ(jain_index({2.0, 1.0}, {2.0, 1.0}), 1.0);
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
    const double u = rng.uniform(0.25, 0.75);
    EXPECT_GE(u, 0.25);
    EXPECT_LT(u, 0.75);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(3);
  OnlineStats s;
  for (int i = 0; i < 20'000; ++i) s.add(rng.exponential(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);
}

TEST(Rng, WeightedIndexDistribution) {
  Rng rng(11);
  std::vector<double> w{1.0, 3.0};
  int count1 = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (rng.weighted_index(w) == 1) ++count1;
  }
  EXPECT_NEAR(static_cast<double>(count1) / 10'000.0, 0.75, 0.02);
}

TEST(Csv, EscapingAndRows) {
  std::ostringstream out;
  CsvWriter csv(out, {"name", "value"});
  csv.row({"plain", "1"});
  csv.row({"with,comma", "quote\"inside"});
  EXPECT_EQ(out.str(),
            "name,value\nplain,1\n\"with,comma\",\"quote\"\"inside\"\n");
  EXPECT_THROW(csv.row({"only-one"}), PreconditionError);
}

TEST(Csv, TimeSeriesLongFormat) {
  TimeSeries ts("rate");
  ts.add(kSecond, 2.5);
  std::ostringstream out;
  write_time_series_csv(out, {&ts});
  EXPECT_EQ(out.str(), "series,t_seconds,value\nrate,1,2.5\n");
}

// --- LatencyHistogram -------------------------------------------------------

TEST(LatencyHistogram, ExactRegionAndCountsAndMean) {
  LatencyHistogram h;
  for (std::uint64_t v : {0u, 1u, 5u, 15u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum_raw(), 21u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 21.0 / 4.0);
  // Values below 2^(kSubBits+1) land in exact buckets: quantiles are exact.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 15.0);
  EXPECT_EQ(h.quantile(0.5), 1.0);
}

TEST(LatencyHistogram, QuantileErrorBoundedByOneSubBucket) {
  // The documented contract: log-bucketing bounds the quantile error to
  // one sub-bucket, i.e. <= 12.5% of the value with 8 sub-buckets per
  // octave.  Check across several magnitudes with a deterministic sweep.
  LatencyHistogram h;
  std::vector<std::uint64_t> values;
  Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    // Log-uniform-ish spread over [1us, ~1s).
    const double mag = rng.uniform(3.0, 9.0);
    values.push_back(static_cast<std::uint64_t>(std::pow(10.0, mag)));
  }
  for (const std::uint64_t v : values) h.record(v);
  std::sort(values.begin(), values.end());
  for (const double q : {0.25, 0.5, 0.9, 0.99}) {
    const double estimated = h.quantile(q);
    const double exact = static_cast<double>(values[static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1))]);
    EXPECT_NEAR(estimated, exact, exact * 0.125)
        << "q=" << q << " exact=" << exact;
  }
}

TEST(LatencyHistogram, SnapshotAddsCountersAndSums) {
  LatencyHistogram a, b;
  a.record(100);
  a.record(1000);
  b.record(100);
  b.record(1'000'000);
  LatencySnapshot merged;
  merged.add(a);
  merged.add(b);
  EXPECT_EQ(merged.count(), 4u);
  EXPECT_EQ(merged.sum_ns, 100u + 1000u + 100u + 1'000'000u);
  EXPECT_EQ(merged.counts[LatencyHistogram::index_of(100)], 2u);
}

TEST(LatencyHistogram, SnapshotMinusIsTheWindowBetweenTwoReads) {
  LatencyHistogram h;
  h.record(100);
  LatencySnapshot earlier;
  earlier.add(h);
  h.record(100);
  h.record(5000);
  LatencySnapshot later;
  later.add(h);
  const LatencySnapshot window = later.minus(earlier);
  EXPECT_EQ(window.count(), 2u);
  EXPECT_EQ(window.sum_ns, 5100u);
  EXPECT_EQ(window.counts[LatencyHistogram::index_of(100)], 1u);
  // Racy reads can run a later snapshot behind an earlier one; the
  // difference clamps at zero instead of wrapping.
  EXPECT_EQ(earlier.minus(later).count(), 0u);
  EXPECT_EQ(earlier.minus(later).sum_ns, 0u);
  // The snapshot's estimator is the grid's.
  EXPECT_DOUBLE_EQ(later.quantile(0.5), h.quantile(0.5));
  EXPECT_DOUBLE_EQ(LatencySnapshot{}.quantile(0.99), 0.0);
}

TEST(LatencyHistogram, BucketBoundsBracketEveryValue) {
  for (std::uint64_t v :
       {0ull, 1ull, 16ull, 17ull, 1023ull, 1024ull, 123'456'789ull}) {
    const std::size_t i = LatencyHistogram::index_of(v);
    EXPECT_LE(LatencyHistogram::lower_bound(i), static_cast<double>(v));
    EXPECT_GE(LatencyHistogram::upper_bound(i), static_cast<double>(v));
  }
}

// --- JSON -------------------------------------------------------------------

TEST(JsonWriter, EscapesQuoteBackslashAndControlBytes) {
  JsonWriter w;
  const std::string text = "q\"b\\n\nt\tr\rc\x01\x1f\x7f\xc3\xa9";
  w.value(text);
  EXPECT_EQ(w.str(), "\"q\\\"b\\\\n\\nt\\tr\\rc\\u0001\\u001f\x7f\xc3\xa9\"");
  EXPECT_EQ(JsonValue::parse(w.str()).as_string(), text);
}

TEST(JsonWriter, PlacesCommasAndPutsArrayObjectsOnTheirOwnLines) {
  JsonWriter w;
  w.begin_object()
      .field("a", 1)
      .key("list")
      .begin_array()
      .value("x")
      .begin_object()
      .field("b", true)
      .key("inner")
      .begin_array()
      .value(2)
      .value(3)
      .end_array()
      .end_object()
      .begin_object()
      .end_object()
      .end_array()
      .key("empty")
      .begin_array()
      .end_array()
      .key("o")
      .begin_object()
      .field("n", false)
      .key("z")
      .null()
      .end_object()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\"a\":1,\"list\":[\"x\",\n{\"b\":true,\"inner\":[2,3]},\n{}\n],"
            "\"empty\":[],\"o\":{\"n\":false,\"z\":null}}");
  EXPECT_NO_THROW(JsonValue::parse(w.str()));
  // Misuse is a bug in the caller, caught rather than rendered.
  JsonWriter bad;
  bad.begin_object();
  EXPECT_THROW(bad.value(1), InvariantError);
  EXPECT_THROW(JsonWriter().end_array(), InvariantError);
}

TEST(JsonWriter, PrintsIntegersExactly) {
  JsonWriter w;
  w.begin_array()
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::numeric_limits<std::int64_t>::min())
      .value(0u)
      .value(-7)
      .end_array();
  EXPECT_EQ(w.str(), "[18446744073709551615,-9223372036854775808,0,-7]");
}

TEST(JsonWriter, PrintsDoublesInShortestRoundTripForm) {
  const auto render = [](double v) {
    JsonWriter w;
    w.value(v);
    return w.str();
  };
  EXPECT_EQ(render(2500000.123), "2500000.123");
  EXPECT_EQ(render(1e-7), "1e-07");
  EXPECT_EQ(render(0.1), "0.1");
  EXPECT_EQ(render(-2.5), "-2.5");
  EXPECT_EQ(render(100000.0), "100000");  // integral: no exponent
  EXPECT_EQ(render(1e300), "1e+300");
  EXPECT_EQ(render(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(render(std::nan("")), "null");
  for (const double v : {2500000.123, 1e-7, 0.1, 1.0 / 3.0, 6.02214076e23,
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::max()}) {
    EXPECT_EQ(JsonValue::parse(render(v)).as_number(), v) << render(v);
  }
}

TEST(FaultJson, ParsesNestedDocument) {
  const JsonValue doc = JsonValue::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"s": "hi\n\"x\""}, "t": true, "n": null})");
  ASSERT_TRUE(doc.is_object());
  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(a->as_array()[1].as_number(), 2.5);
  EXPECT_DOUBLE_EQ(a->as_array()[2].as_number(), -300.0);
  const JsonValue* s = doc.find("b")->find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->as_string(), "hi\n\"x\"");
  EXPECT_TRUE(doc.find("t")->as_bool());
  EXPECT_TRUE(doc.find("n")->is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(FaultJson, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{\"a\": }"), JsonError);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1} trailing"), JsonError);
  EXPECT_THROW(JsonValue::parse("[1, 2,"), JsonError);
  EXPECT_THROW(JsonValue::parse(""), JsonError);
  // Kind mismatches surface as runtime_error for schema-level reporting.
  const JsonValue doc = JsonValue::parse(R"({"a": 1})");
  EXPECT_THROW(doc.find("a")->as_string(), std::runtime_error);
  EXPECT_THROW((void)doc.as_array(), std::runtime_error);
}

// --- LogRateLimiter ---------------------------------------------------------

TEST(LogRateLimiter, SuppressesWithinIntervalAndCounts) {
  LogRateLimiter limiter(std::chrono::hours(1));
  EXPECT_TRUE(limiter.allow()) << "first message always passes";
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(limiter.allow()) << "within the interval";
  }
  EXPECT_EQ(limiter.suppressed(), 5u);
  // take_suppressed drains the count exactly once.
  EXPECT_EQ(limiter.take_suppressed(), 5u);
  EXPECT_EQ(limiter.suppressed(), 0u);
  EXPECT_EQ(limiter.take_suppressed(), 0u);
}

TEST(LogRateLimiter, ZeroIntervalNeverSuppresses) {
  LogRateLimiter limiter(std::chrono::nanoseconds(0));
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(limiter.allow());
  EXPECT_EQ(limiter.suppressed(), 0u);
}

}  // namespace
}  // namespace midrr
