#include "telemetry/metrics.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace midrr::telemetry {

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return head(c) || (c >= '0' && c <= '9');
  });
}

bool valid_label_name(const std::string& name) {
  return valid_metric_name(name) && name.find(':') == std::string::npos &&
         name.rfind("__", 0) != 0;
}

LabelSet sorted(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

struct MetricsRegistry::Child {
  LabelSet labels;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<LatencyHistogram> owned_grid;  // histogram() handles
  const LatencyHistogram* grid = nullptr;  // owned_grid or an exported grid
  std::function<double()> callback;  // callback series have no storage
};

struct MetricsRegistry::Family {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<std::unique_ptr<Child>> children;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Family& MetricsRegistry::family_locked(const std::string& name,
                                                        const std::string& help,
                                                        MetricKind kind) {
  MIDRR_REQUIRE(valid_metric_name(name), "invalid metric name");
  for (auto& family : families_) {
    if (family->name == name) {
      MIDRR_REQUIRE(family->kind == kind,
                    "metric re-registered with a different kind");
      return *family;
    }
  }
  auto family = std::make_unique<Family>();
  family->name = name;
  family->help = help;
  family->kind = kind;
  families_.push_back(std::move(family));
  return *families_.back();
}

MetricsRegistry::Child& MetricsRegistry::child_locked(const std::string& name,
                                                      const std::string& help,
                                                      MetricKind kind,
                                                      LabelSet labels) {
  Family& family = family_locked(name, help, kind);
  labels = sorted(std::move(labels));
  for (auto& child : family.children) {
    if (child->labels == labels) return *child;
  }
  for (const auto& [k, v] : labels) {
    (void)v;
    MIDRR_REQUIRE(valid_label_name(k), "invalid label name");
  }
  auto child = std::make_unique<Child>();
  child->labels = std::move(labels);
  family.children.push_back(std::move(child));
  return *family.children.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help, LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Child& child =
      child_locked(name, help, MetricKind::kCounter, std::move(labels));
  MIDRR_REQUIRE(!child.callback,
                "series registered as a callback, not a handle");
  if (child.counter == nullptr) child.counter = std::make_unique<Counter>();
  return *child.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Child& child =
      child_locked(name, help, MetricKind::kGauge, std::move(labels));
  MIDRR_REQUIRE(!child.callback,
                "series registered as a callback, not a handle");
  if (child.gauge == nullptr) child.gauge = std::make_unique<Gauge>();
  return *child.gauge;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name,
                                             const std::string& help,
                                             LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Child& child =
      child_locked(name, help, MetricKind::kHistogram, std::move(labels));
  MIDRR_REQUIRE(child.grid == child.owned_grid.get(),
                "series registered as an exported grid, not a handle");
  if (child.owned_grid == nullptr) {
    child.owned_grid = std::make_unique<LatencyHistogram>();
    child.grid = child.owned_grid.get();
  }
  return *child.owned_grid;
}

// Callback and grid re-registration replaces the previous source.

void MetricsRegistry::counter_fn(const std::string& name,
                                 const std::string& help, LabelSet labels,
                                 std::function<double()> fn) {
  MIDRR_REQUIRE(fn != nullptr, "callback series needs a callable");
  std::lock_guard<std::mutex> lock(mu_);
  child_locked(name, help, MetricKind::kCounter, std::move(labels)).callback =
      std::move(fn);
}

void MetricsRegistry::gauge_fn(const std::string& name, const std::string& help,
                               LabelSet labels, std::function<double()> fn) {
  MIDRR_REQUIRE(fn != nullptr, "callback series needs a callable");
  std::lock_guard<std::mutex> lock(mu_);
  child_locked(name, help, MetricKind::kGauge, std::move(labels)).callback =
      std::move(fn);
}

void MetricsRegistry::histogram_grid(const std::string& name,
                                     const std::string& help, LabelSet labels,
                                     const LatencyHistogram& grid) {
  std::lock_guard<std::mutex> lock(mu_);
  child_locked(name, help, MetricKind::kHistogram, std::move(labels)).grid =
      &grid;
}

std::vector<double> histogram_ladder() {
  // Powers of 4 from 256 (2^8) through 4^16 = 2^32 (~4.3e9): 13 boundaries
  // spanning sub-microsecond to multi-second nanosecond values, aligned to
  // the grid's power-of-two octaves so no fine bucket straddles a boundary.
  std::vector<double> ladder;
  for (double b = 256.0; b <= 4294967296.0; b *= 4.0) ladder.push_back(b);
  return ladder;
}

std::vector<std::pair<double, std::uint64_t>> cumulative_buckets(
    const LatencyHistogram& grid) {
  const std::vector<double> ladder = histogram_ladder();
  std::vector<std::pair<double, std::uint64_t>> out;
  out.reserve(ladder.size());
  // One racy-but-single pass over the fine grid, accumulated per boundary.
  std::vector<std::uint64_t> per_boundary(ladder.size() + 1, 0);
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const std::uint64_t c = grid.bucket_count(i);
    if (c == 0) continue;
    const double upper = LatencyHistogram::upper_bound(i);
    std::size_t slot = ladder.size();  // overflow -> +Inf only
    for (std::size_t b = 0; b < ladder.size(); ++b) {
      if (upper <= ladder[b]) {
        slot = b;
        break;
      }
    }
    per_boundary[slot] += c;
  }
  std::uint64_t running = 0;
  for (std::size_t b = 0; b < ladder.size(); ++b) {
    running += per_boundary[b];
    out.emplace_back(ladder[b], running);
  }
  return out;
}

std::vector<FamilySnapshot> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FamilySnapshot> out;
  out.reserve(families_.size());
  for (const auto& family : families_) {
    FamilySnapshot fs;
    fs.name = family->name;
    fs.help = family->help;
    fs.kind = family->kind;
    fs.samples.reserve(family->children.size());
    for (const auto& child : family->children) {
      SampleSnapshot s;
      s.labels = child->labels;
      if (child->callback) {
        s.value = child->callback();
      } else if (child->counter != nullptr) {
        s.value = static_cast<double>(child->counter->value());
      } else if (child->gauge != nullptr) {
        s.value = child->gauge->value();
      } else if (child->grid != nullptr) {
        s.buckets = cumulative_buckets(*child->grid);
        // Totals re-read the grid; racing writers can make count exceed
        // the last cumulative bucket, which exposition handles (the +Inf
        // bucket is rendered from `count`, so cumulativity holds).
        s.count = child->grid->count();
        s.sum = static_cast<double>(child->grid->sum_raw());
      }
      fs.samples.push_back(std::move(s));
    }
    out.push_back(std::move(fs));
  }
  return out;
}

std::size_t MetricsRegistry::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& family : families_) n += family->children.size();
  return n;
}

}  // namespace midrr::telemetry
