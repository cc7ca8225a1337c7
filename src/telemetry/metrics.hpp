// Lock-free metrics registry: the write side of the telemetry layer.
//
// Writers (runtime workers, shard schedulers via MetricsObserver, the
// bridge, the proxy) hold stable handles -- Counter, Gauge, and
// LatencyHistogram for distributions -- and bump them wait-free with
// relaxed atomics; nothing on the hot path ever takes a lock or
// allocates.  A reader (the /metrics scrape, the fairness sampler)
// aggregates whatever the handles hold "around now": every counter is
// monotone, so deltas between two scrapes are meaningful even though
// individual loads race with writers (the same contract as
// util/latency_histogram.hpp).
//
// Registration (counter()/gauge()/histogram()/counter_fn()/gauge_fn()/
// histogram_grid()) is the slow path: it takes the registry mutex,
// deduplicates by (name, labels), and returns a reference that stays
// valid for the registry's lifetime.  Callback series (counter_fn/
// gauge_fn) and grid exports (histogram_grid) are for state that already
// lives elsewhere -- the collector reads it at scrape time instead of
// double-counting into a second cell; callbacks must therefore be
// thread-safe and non-blocking.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/latency_histogram.hpp"

namespace midrr::telemetry {

/// Label key/value pairs attached to one series ("{shard="0",iface="if1"}").
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotone event count.  Wait-free writers, racy-but-monotone readers.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-writer-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    // C++20 atomic<double>::fetch_add; contention here is rare (gauges are
    // mostly set(), add() exists for occupancy-style up/down tracking).
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One rendered series: labels plus either a scalar or histogram state.
struct SampleSnapshot {
  LabelSet labels;
  double value = 0.0;  ///< counter/gauge value
  /// Histogram only: cumulative (upper_bound, count) pairs, le-sorted,
  /// WITHOUT the +Inf bucket (count covers it), plus the running sum.
  std::vector<std::pair<double, std::uint64_t>> buckets;
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// One metric family: every series sharing a name/kind/help.
struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<SampleSnapshot> samples;
};

class MetricsRegistry {
 public:
  // Out-of-line: Family is incomplete here, and the vector<unique_ptr>
  // member drags its deleter into any inline special member.
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Registration (slow path; takes the registry mutex) ----------------
  // Re-registering the same (name, labels) returns the existing handle, so
  // components can register idempotently.  A name must keep one kind.

  Counter& counter(const std::string& name, const std::string& help,
                   LabelSet labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               LabelSet labels = {});
  /// A registry-owned grid (<= 12.5% relative error); record() is one
  /// relaxed fetch_add per sample, from any thread.
  LatencyHistogram& histogram(const std::string& name, const std::string& help,
                              LabelSet labels = {});

  /// Callback-backed series, collected at scrape time.  The callback must
  /// be thread-safe, non-blocking, and outlive the registry (or be
  /// deregistered by destroying the registry first).
  void counter_fn(const std::string& name, const std::string& help,
                  LabelSet labels, std::function<double()> fn);
  void gauge_fn(const std::string& name, const std::string& help,
                LabelSet labels, std::function<double()> fn);
  /// The histogram counterpart: exports a grid the caller already records
  /// into, scraped in place.  Same lifetime rule as the callbacks.
  void histogram_grid(const std::string& name, const std::string& help,
                      LabelSet labels, const LatencyHistogram& grid);

  // --- Collection ---------------------------------------------------------

  /// Materializes every family, invoking callback series.  Families are
  /// ordered by registration, samples by child registration (stable across
  /// scrapes).  Histogram buckets use the fixed power-of-4 ladder in
  /// prometheus.cpp's exposition, computed from the fine-grained grid.
  std::vector<FamilySnapshot> snapshot() const;

  /// Number of registered series across all families (tests, /metrics meta).
  std::size_t series_count() const;

 private:
  struct Child;
  struct Family;

  Family& family_locked(const std::string& name, const std::string& help,
                        MetricKind kind);
  /// The (name, labels) series, created empty on first registration.
  Child& child_locked(const std::string& name, const std::string& help,
                      MetricKind kind, LabelSet labels);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Family>> families_;
};

/// The fixed histogram bucket ladder used for exposition: powers of 4 from
/// 256 to 4^16 (~4.3e9), which spans ns-scale latencies up to seconds.
std::vector<double> histogram_ladder();

/// Cumulative bucket counts of `grid` at the ladder's boundaries.
std::vector<std::pair<double, std::uint64_t>> cumulative_buckets(
    const LatencyHistogram& grid);

}  // namespace midrr::telemetry
