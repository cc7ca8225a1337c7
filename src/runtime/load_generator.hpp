// LoadGenerator: multi-threaded traffic source for the real-time runtime.
//
// Spawns one producer thread per runtime producer slot; each thread offers
// fixed-size packets round-robin across the live flows of the current
// configuration snapshot, either flat out (rate_pps = 0, for throughput
// benchmarks) or paced to an aggregate packet rate.  The live-flow list is
// re-read from the RCU snapshot whenever the control plane publishes a new
// version, so flows added or removed mid-run are picked up without any
// coordination with the generator.
//
// Payloads: by default packets are pure (flow, size) records -- the
// scheduler never looks at bytes, so the throughput bench defaults to the
// cheapest representation.  `payload` switches on real wire-frame
// attachments drawn from a per-producer net::FramePool (kPooled: zero
// allocations on the data path; frames released by worker threads recycle
// through the pool's cross-thread return ring back to the owning
// producer).
//
// Backpressure: a full ingress ring makes offer() return false; the
// generator counts the reject and yields, so a saturating generator on a
// small machine cannot starve the worker threads of CPU.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/frame_pool.hpp"
#include "runtime/runtime.hpp"

namespace midrr::rt {

struct LoadGeneratorOptions {
  /// What each offered packet carries besides (flow, size).
  enum class PayloadMode {
    kNone,    ///< no frame (default; pure scheduling records)
    kPooled,  ///< frame from a per-producer FramePool (zero-alloc path)
  };

  std::size_t producers = 1;        ///< threads; must be <= runtime producers
  std::uint32_t packet_bytes = 1000;
  double rate_pps = 0.0;            ///< aggregate offered rate; 0 = saturate
  PayloadMode payload = PayloadMode::kNone;
  /// Pool geometry for kPooled (one pool per producer thread).
  PacketPoolOptions pool{};
  /// Scratch bytes reserved in front of every pooled payload (see
  /// net::FramePool).  The io_uring egress path asks for
  /// io::kWireScratchBytes so it can prepend the wire header in place and
  /// send [header|payload] as one registered-buffer range.
  std::size_t frame_headroom = 0;
};

class LoadGenerator {
 public:
  LoadGenerator(Runtime& rt, LoadGeneratorOptions options);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  void start();
  void stop();  ///< idempotent; joins all producer threads

  std::uint64_t offered() const { return offered_.load(std::memory_order_relaxed); }
  std::uint64_t rejected() const { return rejected_.load(std::memory_order_relaxed); }

  /// Per-producer frame pool (nullptr unless payload == kPooled).  Stats
  /// are readable at any time; exact (for leak accounting) once the
  /// generator is stopped AND the runtime has drained every in-flight
  /// frame reference.
  const net::FramePool* frame_pool(std::size_t producer) const;

  /// Sum of every producer pool's counters (zeros when not pooled).
  PacketPoolStats pool_stats() const;

  /// Registers pool-health series (slabs, free-list occupancy, cross-thread
  /// returns, misses, ...) with `registry`, one label set per producer.
  /// No-op unless payload == kPooled; see docs/TELEMETRY.md for the
  /// catalog.  `registry` must outlive the generator's pools.
  void register_pool_metrics(telemetry::MetricsRegistry& registry);

 private:
  void producer_main(std::size_t index);

  Runtime& rt_;
  LoadGeneratorOptions options_;
  std::vector<std::unique_ptr<net::FramePool>> pools_;  // [producer] or empty
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace midrr::rt
