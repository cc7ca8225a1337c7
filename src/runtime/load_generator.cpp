#include "runtime/load_generator.hpp"

#include <algorithm>
#include <string>

#include "util/assert.hpp"

namespace midrr::rt {

LoadGenerator::LoadGenerator(Runtime& rt, LoadGeneratorOptions options)
    : rt_(rt), options_(options) {
  MIDRR_REQUIRE(options_.producers >= 1, "load generator needs a producer");
  MIDRR_REQUIRE(options_.packet_bytes > 0, "packets must carry bytes");
  MIDRR_REQUIRE(options_.rate_pps >= 0.0, "negative packet rate");
  if (options_.payload == LoadGeneratorOptions::PayloadMode::kPooled) {
    MIDRR_REQUIRE(options_.pool.buffer_bytes >= options_.packet_bytes,
                  "pool buffers smaller than the packet size would make "
                  "every frame a heap-fallback miss");
    // Every payload this generator makes is exactly packet_bytes, so
    // larger buffers are pure slot-stride waste -- and stride is cache
    // working set: thousands of slots cycle through the backlog, so a
    // 2048-byte default buffer for 1000-byte packets nearly doubles the
    // bytes the memset path drags through the cache.
    options_.pool.buffer_bytes = options_.packet_bytes + options_.frame_headroom;
    for (std::size_t p = 0; p < options_.producers; ++p) {
      pools_.push_back(std::make_unique<net::FramePool>(
          options_.pool, options_.frame_headroom));
      // The producer thread rebinds itself as owner at start(); until then
      // (and after stop()) the pool is detached so stray releases from
      // worker threads take the cross-thread path.
      pools_.back()->pool().detach_owner();
    }
  }
}

LoadGenerator::~LoadGenerator() { stop(); }

void LoadGenerator::start() {
  MIDRR_REQUIRE(!running_.load(), "load generator already running");
  MIDRR_REQUIRE(rt_.running(), "start the runtime before the generator");
  running_.store(true, std::memory_order_release);
  for (std::size_t p = 0; p < options_.producers; ++p) {
    threads_.emplace_back([this, p] { producer_main(p); });
  }
}

void LoadGenerator::stop() {
  running_.store(false, std::memory_order_release);
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  // Producer threads are gone; late frame releases (packets still draining
  // inside the runtime) must take the cross-thread return path rather than
  // touch a dead owner's freelist.
  for (auto& pool : pools_) pool->pool().detach_owner();
}

const net::FramePool* LoadGenerator::frame_pool(std::size_t producer) const {
  if (producer >= pools_.size()) return nullptr;
  return pools_[producer].get();
}

PacketPoolStats LoadGenerator::pool_stats() const {
  PacketPoolStats total;
  for (const auto& pool : pools_) {
    const PacketPoolStats s = pool->pool().stats();
    total.slabs += s.slabs;
    total.capacity_slots += s.capacity_slots;
    total.acquired += s.acquired;
    total.released += s.released;
    total.outstanding += s.outstanding;
    total.misses += s.misses;
    total.cross_thread_returns += s.cross_thread_returns;
    total.overflow_returns += s.overflow_returns;
    total.free_local += s.free_local;
    total.in_return_ring += s.in_return_ring;
  }
  return total;
}

void LoadGenerator::register_pool_metrics(
    telemetry::MetricsRegistry& registry) {
  for (std::size_t p = 0; p < pools_.size(); ++p) {
    const PacketPool* pool = &pools_[p]->pool();
    const telemetry::LabelSet labels{{"producer", std::to_string(p)}};
    registry.gauge_fn("midrr_pool_slabs",
                      "Slabs carved by this producer's frame pool.", labels,
                      [pool] { return static_cast<double>(pool->stats().slabs); });
    registry.counter_fn(
        "midrr_pool_acquired_total",
        "Pool slots handed out (one per pooled frame created).", labels,
        [pool] { return static_cast<double>(pool->stats().acquired); });
    registry.counter_fn(
        "midrr_pool_released_total",
        "Pool slots returned (any thread); equals acquired at quiescence "
        "iff no frame leaked.",
        labels,
        [pool] { return static_cast<double>(pool->stats().released); });
    registry.counter_fn(
        "midrr_pool_misses_total",
        "Heap fallbacks: pool exhausted or payload oversized.", labels,
        [pool] { return static_cast<double>(pool->stats().misses); });
    registry.counter_fn(
        "midrr_pool_cross_thread_returns_total",
        "Releases from non-owner threads (recycled via the MPSC return "
        "ring).",
        labels, [pool] {
          return static_cast<double>(pool->stats().cross_thread_returns);
        });
    registry.counter_fn(
        "midrr_pool_overflow_returns_total",
        "Cross-thread returns that found the return ring full and took the "
        "mutex-guarded overflow list.",
        labels, [pool] {
          return static_cast<double>(pool->stats().overflow_returns);
        });
    registry.gauge_fn(
        "midrr_pool_free_slots",
        "Owner freelist occupancy (approximate while threads run).", labels,
        [pool] { return static_cast<double>(pool->stats().free_local); });
    registry.gauge_fn(
        "midrr_pool_return_ring_occupancy",
        "Slots parked in the cross-thread return ring awaiting the owner "
        "(approximate).",
        labels, [pool] {
          return static_cast<double>(pool->stats().in_return_ring);
        });
  }
}

void LoadGenerator::producer_main(std::size_t index) {
  IngressPort port = rt_.port(index);
  net::FramePool* pool = nullptr;
  if (options_.payload == LoadGeneratorOptions::PayloadMode::kPooled) {
    pool = pools_[index].get();
    pool->pool().bind_owner();  // this thread acquires; workers release
  }

  // Inter-send gap for THIS producer (the aggregate rate splits evenly).
  const SimTime gap_ns =
      options_.rate_pps > 0.0
          ? from_seconds(static_cast<double>(options_.producers) /
                         options_.rate_pps)
          : 0;
  SimTime next_send = rt_.now_ns();

  // Local copy of the live-flow list, refreshed when the control plane
  // publishes.  The steady-state check is one epoch load; only an actual
  // publish pays for the O(max_flows) directory scan behind live_flows()
  // (snapshots describe classes, not members, so the member list comes
  // from the directory, not from an RCU guard).
  ControlPlane& control = rt_.control();
  std::vector<FlowId> live;
  std::uint64_t seen_epoch = 0;
  std::size_t cursor = index;  // stagger producers across flows

  std::uint64_t offered = 0;
  std::uint64_t rejected = 0;
  const auto flush = [&] {
    offered_.fetch_add(offered, std::memory_order_relaxed);
    rejected_.fetch_add(rejected, std::memory_order_relaxed);
    offered = 0;
    rejected = 0;
  };

  while (running_.load(std::memory_order_acquire)) {
    const std::uint64_t epoch = control.epoch();
    if (epoch != seen_epoch) {
      seen_epoch = epoch;  // read BEFORE the scan: worst case, one
                           // redundant refresh on the next iteration
      live = control.live_flows();
      if (cursor >= live.size()) cursor = index;
    }
    if (live.empty()) {
      flush();
      std::this_thread::yield();
      continue;
    }
    if (gap_ns > 0) {
      const SimTime now = rt_.now_ns();
      if (now < next_send) {
        flush();
        std::this_thread::yield();
        continue;
      }
      next_send = std::max(next_send + gap_ns, now - 64 * gap_ns);
    }
    if (cursor >= live.size()) cursor = 0;
    const FlowId flow = live[cursor];
    ++cursor;
    // Injected pool exhaustion: the acquire fails as if every slab were
    // pinned downstream; the packet is never built (counted by the
    // injector AND as a producer-side reject).
    if (fault::FaultInjector* const injector = rt_.fault();
        injector != nullptr && injector->has_pool_faults() &&
        injector->pool_exhausted(rt_.now_ns())) {
      injector->note_pool_reject();
      ++rejected;
      std::this_thread::yield();
      continue;
    }
    std::shared_ptr<const net::Frame> frame;
    if (pool != nullptr) {
      frame = pool->make_filled(options_.packet_bytes,
                                static_cast<net::Byte>(flow));
    }
    if (port.offer(flow, options_.packet_bytes, std::move(frame))) {
      ++offered;
    } else {
      ++rejected;
      // Ring full (or flow went away): give consumers the CPU.
      std::this_thread::yield();
    }
    if (((offered + rejected) & 0x3ff) == 0) flush();
  }
  flush();
}

}  // namespace midrr::rt
