// Lock-free log-bucketed latency histogram (HDR-histogram-lite).
//
// The real-time runtime records one enqueue->dequeue latency sample per
// packet from several worker threads; exact-sample containers (EmpiricalCdf)
// would allocate on the hot path and need locking.  This histogram instead
// keeps a fixed 64 x 8 grid of relaxed atomic counters: bucket = (bit width
// of the nanosecond value, next 3 bits below the leading one).  That bounds
// the quantile error to one sub-bucket (<= 12.5% of the value), which is
// plenty for p50/p99 reporting, at a cost of one relaxed fetch_add per
// sample and zero allocation.
//
// record() is safe from any number of threads.  Readers copy the grid into
// a LatencySnapshot (plain counts) and query that: the copy is racy but
// internally consistent enough -- totals are monotone, so quantiles
// computed while writers run are a snapshot "around now", exactly what a
// live stats line wants.  Snapshots of several grids add up (per-worker ->
// global) and two snapshots of one grid subtract into a window.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

namespace midrr {

class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 3;  // 8 sub-buckets per octave
  static constexpr std::size_t kBuckets = 64u << kSubBits;

  LatencyHistogram() = default;

  // Atomics are neither copyable nor movable; the histogram lives in place.
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one sample of `ns` nanoseconds.  Thread-safe, wait-free.
  void record(std::uint64_t ns) {
    counts_[index_of(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
    return total;
  }

  double mean_ns() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(
                        sum_ns_.load(std::memory_order_relaxed)) /
                        static_cast<double>(n);
  }

  /// Value v with cdf(v) ~= q over everything recorded so far; see
  /// LatencySnapshot::quantile.
  double quantile(double q) const;

  /// Raw count of bucket `index` (telemetry exposition reads the grid
  /// directly to build cumulative Prometheus buckets).
  std::uint64_t bucket_count(std::size_t index) const {
    return counts_[index].load(std::memory_order_relaxed);
  }

  /// Sum of all recorded values (racy companion to count()).
  std::uint64_t sum_raw() const {
    return sum_ns_.load(std::memory_order_relaxed);
  }

  /// Smallest value bucket i can hold.
  static double lower_bound(std::size_t index) {
    if (index < (std::size_t{1} << (kSubBits + 1))) {
      return static_cast<double>(index);
    }
    const unsigned octave = static_cast<unsigned>(index >> kSubBits);
    const std::uint64_t sub = index & ((1u << kSubBits) - 1);
    return static_cast<double>((std::uint64_t{1} << octave) |
                               (sub << (octave - kSubBits)));
  }

  /// Largest value bucket i can hold (inclusive).
  static double upper_bound(std::size_t index) {
    if (index < (std::size_t{1} << (kSubBits + 1))) {
      return static_cast<double>(index);
    }
    const unsigned octave = static_cast<unsigned>(index >> kSubBits);
    const std::uint64_t sub = index & ((1u << kSubBits) - 1);
    const std::uint64_t lo =
        (std::uint64_t{1} << octave) | (sub << (octave - kSubBits));
    const std::uint64_t width = std::uint64_t{1} << (octave - kSubBits);
    return static_cast<double>(lo + width - 1);
  }

  static std::size_t index_of(std::uint64_t ns) {
    if (ns < (std::uint64_t{1} << (kSubBits + 1))) {
      // Values below 2^(kSubBits+1) get exact buckets.
      return static_cast<std::size_t>(ns);
    }
    const unsigned octave = static_cast<unsigned>(std::bit_width(ns)) - 1;
    const std::uint64_t sub =
        (ns >> (octave - kSubBits)) & ((1u << kSubBits) - 1);
    return (static_cast<std::size_t>(octave) << kSubBits) |
           static_cast<std::size_t>(sub);
  }

 private:
  std::atomic<std::uint64_t> counts_[kBuckets] = {};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Plain bucket counts on LatencyHistogram's grid: the one read-side view
/// of it.  add() folds in a live grid, minus() turns two snapshots of the
/// same monotone grid into a window, quantile() is the shared estimator.
struct LatencySnapshot {
  std::vector<std::uint64_t> counts =
      std::vector<std::uint64_t>(LatencyHistogram::kBuckets, 0);
  std::uint64_t sum_ns = 0;

  /// Adds `grid`'s current counters and sum.
  void add(const LatencyHistogram& grid) {
    for (std::size_t i = 0; i < counts.size(); ++i) {
      counts[i] += grid.bucket_count(i);
    }
    sum_ns += grid.sum_raw();
  }

  /// This minus an earlier snapshot of the same grids.  Racy reads of
  /// relaxed counters can momentarily disagree; a bucket never shrinks, so
  /// the difference clamps at zero instead of wrapping.
  LatencySnapshot minus(const LatencySnapshot& earlier) const {
    LatencySnapshot out;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      out.counts[i] =
          counts[i] >= earlier.counts[i] ? counts[i] - earlier.counts[i] : 0;
    }
    out.sum_ns = sum_ns >= earlier.sum_ns ? sum_ns - earlier.sum_ns : 0;
    return out;
  }

  std::uint64_t count() const {
    return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  }

  double mean_ns() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum_ns) / static_cast<double>(n);
  }

  /// Value v with cdf(v) ~= q (q in [0, 1]); 0 for an empty snapshot.
  ///
  /// The quantile's bucket is found by rank, then the value is linearly
  /// interpolated *within* the bucket by the rank's position among the
  /// bucket's samples (assuming a uniform spread inside the bucket, the
  /// standard HDR/Prometheus estimator).  Without interpolation every
  /// quantile snapped to a bucket midpoint, so unrelated runs reported
  /// bit-identical p99s (e.g. 2.75251e6 ns); with it the error is still
  /// bounded by one sub-bucket width but no longer quantized to it.
  /// Values in the exact region (below 2^(kSubBits+1)) are returned
  /// exactly.
  double quantile(double q) const {
    const std::uint64_t total = count();
    if (total == 0) return 0.0;
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      if (static_cast<double>(seen + counts[i]) >= rank) {
        const double lo = LatencyHistogram::lower_bound(i);
        if (i < (std::size_t{1} << (LatencyHistogram::kSubBits + 1))) {
          return lo;  // exact region: the bucket holds one value
        }
        const double width = LatencyHistogram::upper_bound(i) - lo + 1.0;
        const double into = std::clamp(
            (rank - static_cast<double>(seen)) / static_cast<double>(counts[i]),
            0.0, 1.0);
        return lo + width * into;
      }
      seen += counts[i];
    }
    return LatencyHistogram::upper_bound(counts.size() - 1);
  }
};

inline double LatencyHistogram::quantile(double q) const {
  LatencySnapshot snapshot;
  snapshot.add(*this);
  return snapshot.quantile(q);
}

}  // namespace midrr
