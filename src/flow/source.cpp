#include "flow/source.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace midrr {

SizeDistribution SizeDistribution::fixed(std::uint32_t size) {
  MIDRR_REQUIRE(size > 0, "packet size must be positive");
  SizeDistribution d;
  d.kind_ = Kind::kFixed;
  d.a_ = size;
  d.max_ = size;
  return d;
}

SizeDistribution SizeDistribution::uniform(std::uint32_t lo, std::uint32_t hi) {
  MIDRR_REQUIRE(lo > 0 && lo <= hi, "invalid uniform size range");
  SizeDistribution d;
  d.kind_ = Kind::kUniform;
  d.a_ = lo;
  d.b_ = hi;
  d.max_ = hi;
  return d;
}

SizeDistribution SizeDistribution::bimodal(std::uint32_t small,
                                           std::uint32_t large,
                                           double p_small) {
  MIDRR_REQUIRE(small > 0 && large >= small, "invalid bimodal sizes");
  MIDRR_REQUIRE(p_small >= 0.0 && p_small <= 1.0, "invalid probability");
  SizeDistribution d;
  d.kind_ = Kind::kBimodal;
  d.a_ = small;
  d.b_ = large;
  d.p_ = p_small;
  d.max_ = large;
  return d;
}

std::uint32_t SizeDistribution::sample(Rng& rng) const {
  switch (kind_) {
    case Kind::kFixed:
      return a_;
    case Kind::kUniform:
      return static_cast<std::uint32_t>(rng.uniform_int(a_, b_));
    case Kind::kBimodal:
      return rng.coin(p_) ? a_ : b_;
  }
  return a_;
}

std::vector<std::uint32_t> TrafficSource::on_start(Rng&) { return {}; }

std::optional<std::uint32_t> TrafficSource::on_dequeue(std::uint32_t, Rng&) {
  return std::nullopt;
}

std::optional<SourceEmission> TrafficSource::next_arrival(Rng&) {
  return std::nullopt;
}

bool TrafficSource::exhausted() const { return false; }

BackloggedSource::BackloggedSource(SizeDistribution sizes,
                                   std::uint64_t total_bytes,
                                   std::size_t depth)
    : sizes_(sizes), total_bytes_(total_bytes), depth_(depth) {
  MIDRR_REQUIRE(depth > 0, "backlogged source needs positive queue depth");
}

std::optional<std::uint32_t> BackloggedSource::draw(Rng& rng) {
  if (total_bytes_ != 0 && emitted_bytes_ >= total_bytes_) return std::nullopt;
  std::uint32_t size = sizes_.sample(rng);
  if (total_bytes_ != 0) {
    const std::uint64_t remaining = total_bytes_ - emitted_bytes_;
    // Clip the final packet so the flow transfers exactly total_bytes_.
    size = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(size, remaining));
  }
  emitted_bytes_ += size;
  return size;
}

std::vector<std::uint32_t> BackloggedSource::on_start(Rng& rng) {
  std::vector<std::uint32_t> out;
  for (std::size_t k = 0; k < depth_; ++k) {
    const auto s = draw(rng);
    if (!s) break;
    out.push_back(*s);
  }
  return out;
}

std::optional<std::uint32_t> BackloggedSource::on_dequeue(std::uint32_t,
                                                          Rng& rng) {
  return draw(rng);
}

bool BackloggedSource::exhausted() const {
  return total_bytes_ != 0 && emitted_bytes_ >= total_bytes_;
}

CbrSource::CbrSource(double rate_bps, std::uint32_t packet_size,
                     std::uint64_t total_bytes)
    : gap_(transmission_time(packet_size, rate_bps)),
      packet_size_(packet_size),
      total_bytes_(total_bytes) {
  MIDRR_REQUIRE(packet_size > 0, "packet size must be positive");
}

std::optional<SourceEmission> CbrSource::next_arrival(Rng&) {
  if (exhausted()) return std::nullopt;
  emitted_bytes_ += packet_size_;
  SourceEmission e;
  e.gap = first_ ? 0 : gap_;
  e.size_bytes = packet_size_;
  first_ = false;
  return e;
}

bool CbrSource::exhausted() const {
  return total_bytes_ != 0 && emitted_bytes_ >= total_bytes_;
}

PoissonSource::PoissonSource(double mean_rate_bps, SizeDistribution sizes,
                             std::uint64_t total_bytes)
    : rate_bps_hint_(mean_rate_bps), sizes_(sizes), total_bytes_(total_bytes) {
  MIDRR_REQUIRE(mean_rate_bps > 0.0, "mean rate must be positive");
}

std::optional<SourceEmission> PoissonSource::next_arrival(Rng& rng) {
  if (exhausted()) return std::nullopt;
  SourceEmission e;
  e.size_bytes = sizes_.sample(rng);
  const double mean_gap =
      static_cast<double>(e.size_bytes) * 8.0 / rate_bps_hint_;
  e.gap = from_seconds(rng.exponential(mean_gap));
  emitted_bytes_ += e.size_bytes;
  return e;
}

bool PoissonSource::exhausted() const {
  return total_bytes_ != 0 && emitted_bytes_ >= total_bytes_;
}

OnOffSource::OnOffSource(double burst_rate_bps, std::uint32_t packet_size,
                         double mean_on_seconds, double mean_off_seconds)
    : gap_(transmission_time(packet_size, burst_rate_bps)),
      packet_size_(packet_size),
      mean_on_(mean_on_seconds),
      mean_off_(mean_off_seconds) {
  MIDRR_REQUIRE(mean_on_seconds > 0.0 && mean_off_seconds >= 0.0,
                "invalid on/off durations");
}

std::optional<SourceEmission> OnOffSource::next_arrival(Rng& rng) {
  SourceEmission e;
  e.size_bytes = packet_size_;
  if (burst_left_ <= 0) {
    // Start a new burst after an off period.
    const double off = mean_off_ > 0.0 ? rng.exponential(mean_off_) : 0.0;
    burst_left_ = from_seconds(rng.exponential(mean_on_));
    e.gap = from_seconds(off) + gap_;
  } else {
    e.gap = gap_;
  }
  burst_left_ -= e.gap;
  return e;
}

}  // namespace midrr
