// Measurement substrate: online summary statistics, histograms, empirical
// CDFs, windowed rate meters and time series.
//
// These are the instruments behind every figure the benchmark harness
// regenerates: Fig 6/10 use TimeSeries + RateMeter, Fig 7/9 use
// EmpiricalCdf, Fig 8/11 sample rates through RateMeter.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace midrr {

/// Online mean/variance/min/max accumulator (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-width linear histogram over [lo, hi); values outside the range are
/// clamped into the first/last bucket and counted as such.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);

  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  /// Midpoint value of bucket i.
  double bucket_mid(std::size_t i) const;
  std::uint64_t total() const { return total_; }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

/// Stores samples and answers quantile/CDF queries exactly, at 8 bytes per
/// sample.  Used for the scheduling-latency CDF (Fig 9), the concurrent-flow
/// CDF (Fig 7) and ScenarioRunner's per-packet queueing delays, where it
/// holds one sample per departure.
class EmpiricalCdf {
 public:
  void add(double x);

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// P(X <= x) over the recorded samples.
  double cdf(double x) const;
  /// Smallest recorded value v with cdf(v) >= q, q in [0, 1].
  double quantile(double q) const;
  double min() const;
  double max() const;
  double mean() const;

  /// The distinct sample points in increasing order with cumulative
  /// probability -- the series a CDF plot draws.
  std::vector<std::pair<double, double>> curve() const;

 private:
  void sort_if_needed() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Measures the rate of a byte stream over a sliding window of fixed-size
/// time bins; rate(t) is computed over the most recent `window_bins` bins.
/// This mirrors how the paper plots per-flow rate over time (Fig 6/10).
/// The retained bins live in a ring of 2 * window_bins + 1 counters,
/// allocated by the first record, so recording never allocates after that.
class RateMeter {
 public:
  /// `bin` is the sampling granularity, `window_bins` the smoothing window.
  explicit RateMeter(SimDuration bin, std::size_t window_bins = 1);

  /// Records `bytes` transferred at simulated time `t`.  Bounded reordering
  /// is accepted: `t` may lag the newest record by up to the retention
  /// window (2x the smoothing window).  A record in the newest bin is one
  /// add to that bin's cached slot.
  void record(SimTime t, std::uint64_t bytes);

  /// Average rate in bits per second over the window ending at time `t`.
  double rate_bps(SimTime t) const;

  /// Total bytes recorded so far.
  std::uint64_t total_bytes() const { return total_bytes_; }

  SimDuration bin() const { return bin_; }

 private:
  std::int64_t bin_index(SimTime t) const;
  std::size_t slot_of(std::int64_t bin) const;

  SimDuration bin_;
  std::size_t window_bins_;
  // Bytes of bin b at ring_[b mod ring_.size()], for b in [gc_floor_,
  // bin_index(last_time_)]; older bins are dropped as the newest advances.
  std::vector<std::uint64_t> ring_;
  std::uint64_t total_bytes_ = 0;
  SimTime last_time_ = 0;
  std::int64_t gc_floor_ = std::numeric_limits<std::int64_t>::min();
  // The newest bin's times [newest_from_, newest_to_) and its ring slot;
  // empty until the first record.
  SimTime newest_from_ = 0;
  SimTime newest_to_ = 0;
  std::size_t newest_slot_ = 0;
};

/// An append-only (time, value) series with named identity; the CSV/plot
/// output unit of the benchmark harness.
class TimeSeries {
 public:
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  void add(SimTime t, double value) { points_.emplace_back(t, value); }

  const std::string& name() const { return name_; }
  const std::vector<std::pair<SimTime, double>>& points() const {
    return points_;
  }
  bool empty() const { return points_.empty(); }

  /// Mean of values with t in [from, to).
  double mean_over(SimTime from, SimTime to) const;

 private:
  std::string name_;
  std::vector<std::pair<SimTime, double>> points_;
};

/// Jain's fairness index over a set of (possibly weighted) rates:
/// J = (sum x_i)^2 / (n * sum x_i^2), with x_i = r_i / w_i.
/// J = 1 iff all normalized rates are equal.
double jain_index(const std::vector<double>& rates,
                  const std::vector<double>& weights = {});

}  // namespace midrr
