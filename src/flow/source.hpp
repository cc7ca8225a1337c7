// Traffic sources: how a flow's packets come into being.
//
// Sources are pure generators -- they hold no reference to the simulator.
// The simulator harness (core/harness.hpp), under ScenarioRunner and the
// inbound proxy, drives them through three hooks:
//   * on_start()        -> packets to enqueue when the flow begins,
//   * on_dequeue()      -> the packet, if any, to enqueue right after one is
//                          sent (this is how "continuously backlogged" flows
//                          are modeled without unbounded queues),
//   * next_arrival()    -> timer-driven arrivals (CBR / Poisson / on-off).
//
// The paper's experiments use backlogged flows with finite volumes (Fig 6:
// flow a completes at 66 s, flow b at 85 s) and rate-limited HTTP-like
// flows (Fig 10); both are expressible here.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace midrr {

/// Distribution of packet sizes in bytes.
class SizeDistribution {
 public:
  /// Every packet is `size` bytes.
  static SizeDistribution fixed(std::uint32_t size);
  /// Uniform over [lo, hi].
  static SizeDistribution uniform(std::uint32_t lo, std::uint32_t hi);
  /// Internet-like mix: `small` bytes with probability p_small, else `large`.
  static SizeDistribution bimodal(std::uint32_t small, std::uint32_t large,
                                  double p_small);

  std::uint32_t sample(Rng& rng) const;
  std::uint32_t max_size() const { return max_; }

 private:
  enum class Kind { kFixed, kUniform, kBimodal };
  Kind kind_ = Kind::kFixed;
  std::uint32_t a_ = 1500;
  std::uint32_t b_ = 1500;
  double p_ = 0.0;
  std::uint32_t max_ = 1500;
};

/// A timer-driven packet arrival: wait `gap`, then a packet of `size_bytes`.
struct SourceEmission {
  SimDuration gap = 0;
  std::uint32_t size_bytes = 0;
};

/// Base interface for packet generation policies.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  /// Packet sizes to enqueue immediately when the flow starts.
  virtual std::vector<std::uint32_t> on_start(Rng& rng);

  /// Size of the packet to enqueue right after a packet of this flow was
  /// sent; nullopt for none.
  virtual std::optional<std::uint32_t> on_dequeue(std::uint32_t dequeued_bytes,
                                                  Rng& rng);

  /// Next timer-driven arrival; nullopt if this source has none (left).
  virtual std::optional<SourceEmission> next_arrival(Rng& rng);

  /// True once the source will never emit again (lets the workload driver
  /// retire the flow when its queue also drains).
  virtual bool exhausted() const;
};

/// Continuously backlogged source, optionally bounded by a total volume.
/// Keeps `depth` packets in the queue; refills one per dequeue.
class BackloggedSource final : public TrafficSource {
 public:
  /// `total_bytes` of 0 means unbounded (backlogged forever).
  BackloggedSource(SizeDistribution sizes, std::uint64_t total_bytes = 0,
                   std::size_t depth = 8);

  std::vector<std::uint32_t> on_start(Rng& rng) override;
  std::optional<std::uint32_t> on_dequeue(std::uint32_t dequeued_bytes,
                                          Rng& rng) override;
  bool exhausted() const override;

  std::uint64_t emitted_bytes() const { return emitted_bytes_; }

 private:
  std::optional<std::uint32_t> draw(Rng& rng);

  SizeDistribution sizes_;
  std::uint64_t total_bytes_;
  std::size_t depth_;
  std::uint64_t emitted_bytes_ = 0;
};

/// Constant-bit-rate source: fixed-size packets at a fixed rate.
class CbrSource final : public TrafficSource {
 public:
  CbrSource(double rate_bps, std::uint32_t packet_size,
            std::uint64_t total_bytes = 0);

  std::optional<SourceEmission> next_arrival(Rng& rng) override;
  bool exhausted() const override;

 private:
  SimDuration gap_;
  std::uint32_t packet_size_;
  std::uint64_t total_bytes_;
  std::uint64_t emitted_bytes_ = 0;
  bool first_ = true;
};

/// Poisson arrivals with i.i.d. sizes.
class PoissonSource final : public TrafficSource {
 public:
  /// `mean_rate_bps` is the long-run average bit rate.
  PoissonSource(double mean_rate_bps, SizeDistribution sizes,
                std::uint64_t total_bytes = 0);

  std::optional<SourceEmission> next_arrival(Rng& rng) override;
  bool exhausted() const override;

 private:
  double rate_bps_hint_;
  SizeDistribution sizes_;
  std::uint64_t total_bytes_;
  std::uint64_t emitted_bytes_ = 0;
};

/// Factory for sources: each run of a scenario needs fresh source state.
using SourceFactory = std::function<std::unique_ptr<TrafficSource>()>;

/// Exponential on/off source: CBR bursts separated by silences.
class OnOffSource final : public TrafficSource {
 public:
  OnOffSource(double burst_rate_bps, std::uint32_t packet_size,
              double mean_on_seconds, double mean_off_seconds);

  std::optional<SourceEmission> next_arrival(Rng& rng) override;

 private:
  SimDuration gap_;
  std::uint32_t packet_size_;
  double mean_on_;
  double mean_off_;
  SimDuration burst_left_ = 0;
};

}  // namespace midrr
