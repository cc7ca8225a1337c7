#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace midrr {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  MIDRR_REQUIRE(hi > lo, "histogram range must be non-empty");
  MIDRR_REQUIRE(buckets > 0, "histogram needs at least one bucket");
}

void Histogram::add(double x) {
  ++total_;
  std::size_t idx;
  if (x < lo_) {
    ++underflow_;
    idx = 0;
  } else if (x >= hi_) {
    ++overflow_;
    idx = counts_.size() - 1;
  } else {
    idx = static_cast<std::size_t>((x - lo_) / width_);
    idx = std::min(idx, counts_.size() - 1);
  }
  ++counts_[idx];
}

double Histogram::bucket_mid(std::size_t i) const {
  MIDRR_REQUIRE(i < counts_.size(), "bucket index out of range");
  return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

void EmpiricalCdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void EmpiricalCdf::sort_if_needed() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::cdf(double x) const {
  if (samples_.empty()) return 0.0;
  sort_if_needed();
  const auto at_or_below =
      std::upper_bound(samples_.begin(), samples_.end(), x) - samples_.begin();
  return static_cast<double>(at_or_below) /
         static_cast<double>(samples_.size());
}

double EmpiricalCdf::quantile(double q) const {
  MIDRR_REQUIRE(q >= 0.0 && q <= 1.0, "quantile argument outside [0,1]");
  MIDRR_REQUIRE(!samples_.empty(), "quantile of an empty CDF");
  sort_if_needed();
  // The k-th smallest sample for the least k >= 1 with k >= q * n.
  const double rank = std::ceil(q * static_cast<double>(samples_.size()));
  const std::size_t k =
      rank <= 1.0 ? 1
                  : std::min(samples_.size(), static_cast<std::size_t>(rank));
  return samples_[k - 1];
}

double EmpiricalCdf::min() const {
  MIDRR_REQUIRE(!samples_.empty(), "min of an empty CDF");
  sort_if_needed();
  return samples_.front();
}

double EmpiricalCdf::max() const {
  MIDRR_REQUIRE(!samples_.empty(), "max of an empty CDF");
  sort_if_needed();
  return samples_.back();
}

double EmpiricalCdf::mean() const {
  if (samples_.empty()) return 0.0;
  double acc = 0.0;
  for (const double v : samples_) acc += v;
  return acc / static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve() const {
  sort_if_needed();
  std::vector<std::pair<double, double>> out;
  const auto n = static_cast<double>(samples_.size());
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const bool last_of_value =
        (i + 1 == samples_.size()) || (samples_[i + 1] != samples_[i]);
    if (last_of_value) {
      out.emplace_back(samples_[i], static_cast<double>(i + 1) / n);
    }
  }
  return out;
}

RateMeter::RateMeter(SimDuration bin, std::size_t window_bins)
    : bin_(bin), window_bins_(window_bins) {
  MIDRR_REQUIRE(bin > 0, "rate meter bin must be positive");
  MIDRR_REQUIRE(window_bins > 0, "rate meter window must be positive");
}

std::int64_t RateMeter::bin_index(SimTime t) const { return t / bin_; }

std::size_t RateMeter::slot_of(std::int64_t bin) const {
  const auto size = static_cast<std::int64_t>(ring_.size());
  return static_cast<std::size_t>((bin % size + size) % size);
}

void RateMeter::record(SimTime t, std::uint64_t bytes) {
  if (t >= newest_from_ && t < newest_to_) {  // the newest bin: one add
    ring_[newest_slot_] += bytes;
    last_time_ = std::max(last_time_, t);
    total_bytes_ += bytes;
    return;
  }
  const std::int64_t bin = bin_index(t);
  MIDRR_REQUIRE(bin >= gc_floor_,
                "rate meter fed a timestamp older than its retention window");
  if (ring_.empty()) ring_.assign(2 * window_bins_ + 1, 0);
  // Retain the bins [newest - 2 * window, newest]: that covers any window
  // query at or after the newest time seen, with slack for queries and
  // records slightly in the past.  Each bin the newest advances over takes
  // the slot of a bin that just fell out, so clear those slots first.
  const std::int64_t previous = bin_index(last_time_);
  last_time_ = std::max(last_time_, t);
  const std::int64_t newest = bin_index(last_time_);
  const auto ring = static_cast<std::int64_t>(ring_.size());
  for (std::int64_t b = previous + 1; b <= std::min(newest, previous + ring);
       ++b) {
    ring_[slot_of(b)] = 0;
  }
  gc_floor_ = newest - 2 * static_cast<std::int64_t>(window_bins_);
  // Only a first record before time 0 can land below the floor.
  if (bin >= gc_floor_) ring_[slot_of(bin)] += bytes;
  total_bytes_ += bytes;
  // last_time_ >= 0, so the newest bin holds exactly the times
  // [newest * bin_, (newest + 1) * bin_).
  newest_from_ = newest * bin_;
  newest_to_ = newest_from_ > std::numeric_limits<SimTime>::max() - bin_
                   ? std::numeric_limits<SimTime>::max()
                   : newest_from_ + bin_;
  newest_slot_ = slot_of(newest);
}

double RateMeter::rate_bps(SimTime t) const {
  const std::int64_t end = bin_index(t);            // current (partial) bin
  const std::int64_t start = end - static_cast<std::int64_t>(window_bins_);
  // Window covers the `window_bins_` full bins before the current one, of
  // which only the retained ones hold bytes.
  std::uint64_t bytes = 0;
  if (!ring_.empty()) {
    const std::int64_t from = std::max(start, gc_floor_);
    const std::int64_t to = std::min(end, bin_index(last_time_) + 1);
    for (std::int64_t b = from; b < to; ++b) bytes += ring_[slot_of(b)];
  }
  const SimDuration span = static_cast<SimDuration>(window_bins_) * bin_;
  return static_cast<double>(bytes) * 8.0 / to_seconds(span);
}

double TimeSeries::mean_over(SimTime from, SimTime to) const {
  double acc = 0.0;
  std::uint64_t n = 0;
  for (const auto& [t, v] : points_) {
    if (t >= from && t < to) {
      acc += v;
      ++n;
    }
  }
  return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

double jain_index(const std::vector<double>& rates,
                  const std::vector<double>& weights) {
  MIDRR_REQUIRE(weights.empty() || weights.size() == rates.size(),
                "weights must be empty or match rates");
  if (rates.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double w = weights.empty() ? 1.0 : weights[i];
    MIDRR_REQUIRE(w > 0.0, "jain_index weight must be positive");
    const double x = rates[i] / w;
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(rates.size()) * sum_sq);
}

}  // namespace midrr
