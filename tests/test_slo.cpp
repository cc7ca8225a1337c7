// SloEngine: spec parsing, class binding, and multi-window burn rates.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/slo.hpp"
namespace {

constexpr std::uint64_t kMs = 1'000'000;
constexpr std::uint64_t kSec = 1'000'000'000;

using midrr::telemetry::MetricsRegistry;
using midrr::telemetry::SloEngine;
using midrr::telemetry::SloSpec;

TEST(SloSpec, ParsesWellFormedSpecs) {
  SloSpec spec;
  ASSERT_TRUE(midrr::telemetry::parse_slo_spec("class=video:p99_ms=5", &spec));
  EXPECT_EQ(spec.class_name, "video");
  EXPECT_EQ(spec.p99_target_ns, 5u * kMs);
  ASSERT_TRUE(
      midrr::telemetry::parse_slo_spec("class=bulk:p99_ms=0.5", &spec));
  EXPECT_EQ(spec.class_name, "bulk");
  EXPECT_EQ(spec.p99_target_ns, 500'000u);
}

TEST(SloSpec, RejectsMalformedSpecs) {
  SloSpec spec;
  const char* bad[] = {
      "",
      "video:p99_ms=5",          // missing class=
      "class=:p99_ms=5",         // empty name
      "class=video",             // no target
      "class=video:p99_ms=",     // empty target
      "class=video:p99_ms=abc",  // non-numeric
      "class=video:p99_ms=0",    // must be positive
      "class=video:p99_ms=-2",
      "class=video:p99_ms=5ms",  // trailing junk
      "class=video:p99_ms=1e300",  // beyond the 1e9 ms input bound
      "class=video:p99_ms=inf",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(midrr::telemetry::parse_slo_spec(text, &spec)) << text;
  }
}

SloEngine::Options tight_windows() {
  SloEngine::Options o;
  o.bucket_ns = kSec;
  o.short_window_buckets = 5;
  o.long_window_buckets = 60;
  o.error_budget = 0.01;
  return o;
}

TEST(SloEngine, UnboundClassesRecordNothing) {
  SloEngine engine({{"video", 5 * kMs}}, /*max_classes=*/4,
                   tight_windows());
  engine.record(/*cls=*/0, /*latency_ns=*/1, /*now_ns=*/0);
  engine.record(/*cls=*/9, 1, 0);  // out of table: ignored, not UB
  EXPECT_EQ(engine.samples(0), 0u);
  EXPECT_FALSE(engine.bind_class(1, "nonexistent"));
  ASSERT_TRUE(engine.bind_class(1, "video"));
  engine.record(1, 1, 0);
  EXPECT_EQ(engine.samples(0), 1u);
}

TEST(SloEngine, BurnRateIsViolatingFractionOverBudget) {
  SloEngine engine({{"video", 1 * kMs}}, 4, tight_windows());
  ASSERT_TRUE(engine.bind_class(0, "video"));
  const std::uint64_t now = 100 * kSec;
  // 100 samples in the current bucket, 2 violating: fraction 0.02 against
  // a 0.01 budget = burn 2.
  for (int i = 0; i < 98; ++i) engine.record(0, 500'000, now);
  for (int i = 0; i < 2; ++i) engine.record(0, 2 * kMs, now);
  EXPECT_EQ(engine.samples(0), 100u);
  EXPECT_EQ(engine.violations(0), 2u);
  EXPECT_NEAR(engine.short_burn(0, now), 2.0, 1e-9);
  EXPECT_NEAR(engine.long_burn(0, now), 2.0, 1e-9);
  // Idle: windows that slid past the traffic read ~0, and the short window
  // forgets before the long one does.
  const std::uint64_t later =
      now + 10 * kSec;
  EXPECT_EQ(engine.short_burn(0, later), 0.0);
  EXPECT_NEAR(engine.long_burn(0, later), 2.0, 1e-9);
  const std::uint64_t much_later =
      now + 120 * kSec;
  EXPECT_EQ(engine.long_burn(0, much_later), 0.0);
}

TEST(SloEngine, SustainedOverloadBurnsAboveOne) {
  SloEngine engine({{"bulk", 1 * kMs}}, 4, tight_windows());
  ASSERT_TRUE(engine.bind_class(0, "bulk"));
  // Every sample violates for 5 consecutive seconds: burn = 1/0.01 = 100.
  std::uint64_t now = 0;
  for (int s = 0; s < 5; ++s) {
    now = static_cast<std::uint64_t>(s) * kSec;
    for (int i = 0; i < 20; ++i) engine.record(0, 3 * kMs, now);
  }
  EXPECT_NEAR(engine.short_burn(0, now), 100.0, 1e-9);
  EXPECT_GT(engine.short_burn(0, now), 1.0) << "overload must page";
}

TEST(SloEngine, RecyclesEpochBucketsInsteadOfGrowing) {
  SloEngine::Options o = tight_windows();
  o.long_window_buckets = 4;  // tiny ring to force recycling fast
  o.short_window_buckets = 2;
  SloEngine engine({{"video", 1 * kMs}}, 2, o);
  ASSERT_TRUE(engine.bind_class(0, "video"));
  for (int s = 0; s < 50; ++s) {
    engine.record(0, 2 * kMs, static_cast<std::uint64_t>(s) * kSec);
  }
  // Lifetime counters saw everything; the window only its last buckets.
  EXPECT_EQ(engine.samples(0), 50u);
  const std::uint64_t now = 49 * kSec;
  EXPECT_NEAR(engine.short_burn(0, now), 100.0, 1e-9);
}

TEST(SloEngine, ExposesMetricsAndJson) {
  SloEngine engine({{"video", 5 * kMs}}, 4, tight_windows());
  ASSERT_TRUE(engine.bind_class(0, "video"));
  engine.record(0, 1 * kMs, 0);
  MetricsRegistry registry;
  engine.register_metrics(registry, [] { return std::uint64_t{0}; });
  const std::string page = midrr::telemetry::render_prometheus(registry);
  EXPECT_NE(page.find("midrr_slo_target_ns{class=\"video\"} 5000000"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("midrr_slo_samples_total{class=\"video\"} 1"),
            std::string::npos)
      << page;
  EXPECT_NE(page.find("midrr_slo_burn_rate{class=\"video\",window=\"short\"}"),
            std::string::npos)
      << page;
  const std::string json = engine.json(0);
  EXPECT_NE(json.find("\"class\":\"video\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_target_ns\":5000000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"burn_short\":"), std::string::npos) << json;
}

}  // namespace
