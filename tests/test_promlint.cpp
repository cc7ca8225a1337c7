// lint_prometheus: the renderer's own output must pass, and each class of
// corruption the linter exists to catch must fail.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/promlint.hpp"
#include "telemetry/prometheus.hpp"

namespace {

using midrr::telemetry::lint_prometheus;
using midrr::telemetry::LintIssue;
using midrr::telemetry::MetricsRegistry;

std::string issues_text(const std::vector<LintIssue>& issues) {
  std::string out;
  for (const auto& issue : issues) {
    out += std::to_string(issue.line) + ": " + issue.message + "\n";
  }
  return out;
}

TEST(PromLint, RendererOutputIsClean) {
  MetricsRegistry registry;
  registry.counter("midrr_lint_events_total", "events",
                   {{"kind", "a\"b\\c\nd"}})
      .inc(3);
  registry.gauge("midrr_lint_depth", "depth").set(-1.5);
  auto& hist = registry.histogram("midrr_lint_wait_ns", "wait");
  hist.record(1);
  hist.record(100);
  hist.record(1'000'000);
  const std::string page = midrr::telemetry::render_prometheus(registry);
  const auto issues = lint_prometheus(page);
  EXPECT_TRUE(issues.empty()) << issues_text(issues) << page;
}

TEST(PromLint, EmptyPageIsClean) {
  EXPECT_TRUE(lint_prometheus("").empty());
}

TEST(PromLint, FlagsSampleWithoutType) {
  EXPECT_FALSE(lint_prometheus("midrr_x_total 1\n").empty());
}

TEST(PromLint, FlagsBadMetricAndLabelNames) {
  EXPECT_FALSE(lint_prometheus("# TYPE 9bad counter\n9bad 1\n").empty());
  EXPECT_FALSE(
      lint_prometheus("# TYPE midrr_x counter\nmidrr_x{9lbl=\"v\"} 1\n")
          .empty());
  EXPECT_FALSE(
      lint_prometheus("# TYPE midrr_x counter\nmidrr_x{__res=\"v\"} 1\n")
          .empty());
}

TEST(PromLint, FlagsUnknownTypeAndDuplicateType) {
  EXPECT_FALSE(lint_prometheus("# TYPE midrr_x enum\nmidrr_x 1\n").empty());
  EXPECT_FALSE(lint_prometheus("# TYPE midrr_x counter\n"
                               "# TYPE midrr_x counter\n"
                               "midrr_x 1\n")
                   .empty());
}

TEST(PromLint, FlagsInterleavedFamilies) {
  const std::string page =
      "# TYPE midrr_a counter\n"
      "midrr_a 1\n"
      "# TYPE midrr_b counter\n"
      "midrr_b 1\n"
      "# TYPE midrr_a counter\n"
      "midrr_a{k=\"v\"} 1\n";
  EXPECT_FALSE(lint_prometheus(page).empty());
}

TEST(PromLint, FlagsDuplicateSeries) {
  const std::string page =
      "# TYPE midrr_a counter\n"
      "midrr_a{k=\"v\"} 1\n"
      "midrr_a{k=\"v\"} 2\n";
  EXPECT_FALSE(lint_prometheus(page).empty());
}

TEST(PromLint, FlagsBadEscapesAndValues) {
  EXPECT_FALSE(
      lint_prometheus("# TYPE midrr_x counter\nmidrr_x{k=\"a\\qb\"} 1\n")
          .empty());
  EXPECT_FALSE(
      lint_prometheus("# TYPE midrr_x counter\nmidrr_x notanumber\n")
          .empty());
  // Inf/NaN are legal exposition values.
  EXPECT_TRUE(
      lint_prometheus("# TYPE midrr_x gauge\nmidrr_x +Inf\n").empty());
}

TEST(PromLint, FlagsHistogramBucketRegressions) {
  // Well-formed histogram passes.
  const std::string good =
      "# TYPE midrr_h histogram\n"
      "midrr_h_bucket{le=\"10\"} 1\n"
      "midrr_h_bucket{le=\"100\"} 3\n"
      "midrr_h_bucket{le=\"+Inf\"} 4\n"
      "midrr_h_sum 42\n"
      "midrr_h_count 4\n";
  EXPECT_TRUE(lint_prometheus(good).empty())
      << issues_text(lint_prometheus(good));
  // Cumulative counts must not regress.
  const std::string regressing =
      "# TYPE midrr_h histogram\n"
      "midrr_h_bucket{le=\"10\"} 5\n"
      "midrr_h_bucket{le=\"100\"} 3\n"
      "midrr_h_bucket{le=\"+Inf\"} 5\n"
      "midrr_h_sum 42\n"
      "midrr_h_count 5\n";
  EXPECT_FALSE(lint_prometheus(regressing).empty());
  // +Inf bucket must exist and equal _count.
  const std::string no_inf =
      "# TYPE midrr_h histogram\n"
      "midrr_h_bucket{le=\"10\"} 1\n"
      "midrr_h_sum 42\n"
      "midrr_h_count 1\n";
  EXPECT_FALSE(lint_prometheus(no_inf).empty());
  const std::string inf_mismatch =
      "# TYPE midrr_h histogram\n"
      "midrr_h_bucket{le=\"+Inf\"} 3\n"
      "midrr_h_sum 42\n"
      "midrr_h_count 4\n";
  EXPECT_FALSE(lint_prometheus(inf_mismatch).empty());
  // le must ascend.
  const std::string le_disorder =
      "# TYPE midrr_h histogram\n"
      "midrr_h_bucket{le=\"100\"} 1\n"
      "midrr_h_bucket{le=\"10\"} 1\n"
      "midrr_h_bucket{le=\"+Inf\"} 1\n"
      "midrr_h_sum 1\n"
      "midrr_h_count 1\n";
  EXPECT_FALSE(lint_prometheus(le_disorder).empty());
}

}  // namespace
