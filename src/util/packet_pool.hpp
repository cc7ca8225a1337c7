// Slab-based buffer pool with cross-thread recycling.
//
// A PacketPool carves large slabs into fixed-size slots.  Each slot is a
// [header | buffer] pair: the buffer region holds packet payload bytes and
// the header region is reserved for the small control structures that give
// the buffer shared ownership (net::FramePool places a shared_ptr control
// block plus the Frame object there via std::allocate_shared, so a pooled
// frame performs *zero* heap allocations end to end).
//
// Ownership protocol (documented in docs/RUNTIME.md "Memory ownership &
// pooling"):
//   * one *owner* thread acquires slots (per-thread freelist, no locks,
//     no atomics on the hot path beyond stats counters);
//   * *any* thread releases a slot: the owner thread pushes straight back
//     onto the freelist, every other thread pushes the slot index onto a
//     lock-free MPSC return ring;
//   * the owner drains the return ring into its freelist when the
//     freelist runs dry; a full return ring falls back to a mutex-guarded
//     overflow list (counted, never lost, never blocking the fast path).
//
// Exhaustion (all slabs in flight) and oversized requests are *misses*:
// callers fall back to plain heap allocation and the miss counter records
// it, so a pool that is sized too small degrades to today's behavior
// instead of failing.  Leak accounting is built in: at quiescence
// `stats().outstanding == 0` iff every acquired slot was released exactly
// once, and a double release trips MIDRR_ASSERT immediately.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/mpsc_ring.hpp"

namespace midrr {

struct PacketPoolOptions {
  /// Payload capacity of one pooled buffer.  Requests larger than this
  /// miss the pool and fall back to the heap.
  std::size_t buffer_bytes = 2048;
  /// Reserved header region per slot (shared_ptr control block + frame
  /// object; 192 bytes is several times what either mainstream standard
  /// library needs, validated at FramePool construction).
  std::size_t header_bytes = 192;
  /// Slots carved per slab allocation (rounded up to a power of two so
  /// slot -> slab addressing is shift/mask, not division -- the hot path
  /// resolves a slot's slab ~5 times per frame lifecycle).
  std::size_t slab_slots = 512;
  /// Hard cap on slabs; once reached, acquisition misses to the heap.
  std::size_t max_slabs = 64;
  /// Capacity of the lock-free cross-thread return ring.
  std::size_t return_ring_capacity = 8192;
  /// Carve every slab up front (construction time) instead of lazily on
  /// exhaustion.  Costs max_slabs * slab_slots * stride bytes immediately,
  /// but freezes the slab directory: slab_regions() is then complete and
  /// stable for the pool's lifetime, which is what lets an io_uring egress
  /// backend register the slabs as fixed buffers exactly once.
  bool precarve = false;
};

/// One slab's memory range (base is kUtilCacheLine-aligned).
struct SlabRegion {
  std::uint8_t* base = nullptr;
  std::size_t bytes = 0;
};

/// Monotonic counters + occupancy snapshot (approximate while threads run,
/// exact at quiescence).
struct PacketPoolStats {
  std::uint64_t slabs = 0;            ///< slabs allocated so far
  std::uint64_t capacity_slots = 0;   ///< slabs * slab_slots
  std::uint64_t acquired = 0;         ///< successful slot acquisitions
  std::uint64_t released = 0;         ///< slot releases (any thread)
  std::uint64_t outstanding = 0;      ///< acquired - released
  std::uint64_t misses = 0;           ///< heap fallbacks (exhausted/oversize)
  std::uint64_t cross_thread_returns = 0;  ///< releases from non-owner threads
  std::uint64_t overflow_returns = 0;      ///< returns that found the ring full
  std::uint64_t free_local = 0;       ///< owner freelist occupancy (approx)
  std::uint64_t in_return_ring = 0;   ///< return ring occupancy (approx)
};

/// The "pool" report block (midrr_rt --json, BENCH_rt.json): the
/// monotonic counters and capacity; the approximate occupancy stays out.
void write_json(JsonWriter& out, const PacketPoolStats& stats);

class PacketPool {
 public:
  explicit PacketPool(PacketPoolOptions options = {});
  ~PacketPool();

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Rebinds the owner (freelist) thread to the calling thread.  Call once
  /// from the thread that will acquire, before the first acquisition; the
  /// constructor binds the constructing thread by default.
  void bind_owner();

  /// Detaches the owner thread: every release takes the cross-thread path
  /// and callers of acquire_slot must be externally serialized (used by
  /// the bridge, whose entry points are already behind a mutex, and by
  /// shutdown paths after the owner thread has exited).
  void detach_owner();

  /// Invalid slot index (returned on miss).
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// Owner-thread-only (or externally serialized after detach_owner):
  /// pops a slot from the freelist, draining the return ring / overflow
  /// list / carving a new slab as needed.  Returns kNoSlot on exhaustion
  /// (counted as a miss).
  std::uint32_t acquire_slot();

  /// Any thread: returns a slot acquired earlier.  Exactly once per
  /// acquisition; a double release trips MIDRR_ASSERT.
  void release_slot(std::uint32_t slot);

  /// Counts a heap fallback that bypassed acquire_slot (e.g. an oversized
  /// request rejected before touching the freelist).
  void count_miss() { misses_.fetch_add(1, std::memory_order_relaxed); }

  std::uint8_t* header_of(std::uint32_t slot);
  std::uint8_t* buffer_of(std::uint32_t slot);
  std::size_t buffer_bytes() const { return options_.buffer_bytes; }
  std::size_t header_bytes() const { return options_.header_bytes; }

  PacketPoolStats stats() const;

  /// The memory ranges of every slab carved so far.  With precarve this is
  /// the pool's complete, immutable slab directory, callable from any
  /// thread; without it the directory may still grow, so only the owner
  /// thread may call this (same contract as acquire_slot).
  std::vector<SlabRegion> slab_regions() const;

 private:
  static constexpr std::uint8_t kFree = 0;
  static constexpr std::uint8_t kLive = 1;

  struct Slab {
    std::uint8_t* base = nullptr;  // 64-byte aligned, slab_slots * stride_
    std::unique_ptr<std::atomic<std::uint8_t>[]> state;  // kFree / kLive
  };

  void carve_slab();
  std::atomic<std::uint8_t>& state_of(std::uint32_t slot);

  PacketPoolOptions options_;
  std::size_t stride_ = 0;      // header + buffer, rounded up to 64
  std::uint32_t slab_shift_ = 0;  // log2(slab_slots): slot >> shift = slab
  std::uint32_t slab_mask_ = 0;   // slab_slots - 1: slot & mask = index

  // Owner-thread state: freelist plus the slab directory.  The directory
  // vector is preallocated to max_slabs so release_slot on other threads
  // can index it without racing vector growth (entries are written once by
  // the owner and published to other threads through the same channel that
  // carries the slot index itself).
  std::vector<Slab> slabs_;
  std::vector<std::uint32_t> free_;
  std::atomic<std::thread::id> owner_;

  // Cross-thread return path.
  MpscRing<std::uint32_t> returns_;
  std::mutex overflow_mu_;
  std::vector<std::uint32_t> overflow_;

  // Stats.  Writers: owner (acquired_, slab_count_), any thread (the
  // rest); all relaxed -- they are monotonic counters read by gauges.
  std::atomic<std::uint64_t> slab_count_{0};
  std::atomic<std::uint64_t> acquired_{0};
  std::atomic<std::uint64_t> released_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> cross_returns_{0};
  std::atomic<std::uint64_t> overflow_returns_{0};
};

}  // namespace midrr
