#include "util/packet_pool.hpp"

#include <cstdlib>
#include <new>

#include "util/assert.hpp"

namespace midrr {

namespace {

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

}  // namespace

PacketPool::PacketPool(PacketPoolOptions options)
    : options_(options),
      returns_(options.return_ring_capacity) {
  MIDRR_REQUIRE(options_.buffer_bytes > 0, "pool buffer_bytes must be > 0");
  MIDRR_REQUIRE(options_.slab_slots > 0, "pool slab_slots must be > 0");
  MIDRR_REQUIRE(options_.max_slabs > 0, "pool max_slabs must be > 0");
  options_.header_bytes = round_up(options_.header_bytes, kUtilCacheLine);
  stride_ = round_up(options_.header_bytes + options_.buffer_bytes,
                     kUtilCacheLine);
  // Power-of-two slots per slab: slot -> (slab, index) becomes shift/mask.
  std::size_t slots = 1;
  while (slots < options_.slab_slots) {
    slots <<= 1;
    ++slab_shift_;
  }
  options_.slab_slots = slots;
  slab_mask_ = static_cast<std::uint32_t>(slots - 1);
  slabs_.reserve(options_.max_slabs);
  free_.reserve(options_.slab_slots);
  owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  if (options_.precarve) {
    free_.reserve(options_.max_slabs * options_.slab_slots);
    while (slabs_.size() < options_.max_slabs) carve_slab();
  }
}

PacketPool::~PacketPool() {
  for (Slab& slab : slabs_) {
    ::operator delete[](slab.base, std::align_val_t{kUtilCacheLine});
  }
}

void PacketPool::bind_owner() {
  owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
}

void PacketPool::detach_owner() {
  // A default-constructed id matches no running thread, so every release
  // takes the cross-thread path from here on.
  owner_.store(std::thread::id{}, std::memory_order_relaxed);
}

void PacketPool::carve_slab() {
  const std::size_t bytes = stride_ * options_.slab_slots;
  Slab slab;
  slab.base = static_cast<std::uint8_t*>(
      ::operator new[](bytes, std::align_val_t{kUtilCacheLine}));
  slab.state =
      std::make_unique<std::atomic<std::uint8_t>[]>(options_.slab_slots);
  for (std::size_t i = 0; i < options_.slab_slots; ++i) {
    slab.state[i].store(kFree, std::memory_order_relaxed);
  }
  const std::uint32_t base_index =
      static_cast<std::uint32_t>(slabs_.size() * options_.slab_slots);
  slabs_.push_back(std::move(slab));
  slab_count_.store(slabs_.size(), std::memory_order_relaxed);
  // Newest slots go to the freelist back so the pool reuses hot slots
  // (LIFO) before touching cold, freshly carved memory.
  for (std::size_t i = options_.slab_slots; i > 0; --i) {
    free_.push_back(base_index + static_cast<std::uint32_t>(i - 1));
  }
}

std::atomic<std::uint8_t>& PacketPool::state_of(std::uint32_t slot) {
  return slabs_[slot >> slab_shift_].state[slot & slab_mask_];
}

std::uint8_t* PacketPool::header_of(std::uint32_t slot) {
  return slabs_[slot >> slab_shift_].base + (slot & slab_mask_) * stride_;
}

std::uint8_t* PacketPool::buffer_of(std::uint32_t slot) {
  return header_of(slot) + options_.header_bytes;
}

std::uint32_t PacketPool::acquire_slot() {
  if (free_.empty()) {
    // Refill from the cross-thread return ring (lock-free), then the
    // overflow list (rare; only populated when the ring filled up), then
    // a fresh slab.
    returns_.pop_batch(free_, options_.slab_slots);
    if (free_.empty()) {
      std::lock_guard<std::mutex> lock(overflow_mu_);
      free_.swap(overflow_);
    }
    if (free_.empty() && slabs_.size() < options_.max_slabs) {
      carve_slab();
    }
    if (free_.empty()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return kNoSlot;
    }
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  const std::uint8_t prev =
      state_of(slot).exchange(kLive, std::memory_order_acquire);
  MIDRR_ASSERT(prev == kFree, "packet pool handed out a live slot");
  acquired_.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

void PacketPool::release_slot(std::uint32_t slot) {
  const std::uint8_t prev =
      state_of(slot).exchange(kFree, std::memory_order_release);
  MIDRR_ASSERT(prev == kLive, "packet pool slot released twice");
  released_.fetch_add(1, std::memory_order_relaxed);
  if (owner_.load(std::memory_order_relaxed) == std::this_thread::get_id()) {
    free_.push_back(slot);
    return;
  }
  cross_returns_.fetch_add(1, std::memory_order_relaxed);
  if (!returns_.push(slot)) {
    std::lock_guard<std::mutex> lock(overflow_mu_);
    overflow_.push_back(slot);
    overflow_returns_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<SlabRegion> PacketPool::slab_regions() const {
  std::vector<SlabRegion> regions;
  regions.reserve(slabs_.size());
  const std::size_t bytes = stride_ * options_.slab_slots;
  for (const Slab& slab : slabs_) regions.push_back({slab.base, bytes});
  return regions;
}

PacketPoolStats PacketPool::stats() const {
  PacketPoolStats s;
  s.slabs = slab_count_.load(std::memory_order_relaxed);
  s.capacity_slots = s.slabs * options_.slab_slots;
  s.acquired = acquired_.load(std::memory_order_relaxed);
  s.released = released_.load(std::memory_order_relaxed);
  s.outstanding = s.acquired >= s.released ? s.acquired - s.released : 0;
  s.misses = misses_.load(std::memory_order_relaxed);
  s.cross_thread_returns = cross_returns_.load(std::memory_order_relaxed);
  s.overflow_returns = overflow_returns_.load(std::memory_order_relaxed);
  s.in_return_ring = returns_.size_approx();
  // Freelist occupancy inferred from the counters rather than free_.size()
  // (free_ belongs to the owner thread; gauges may run anywhere).
  const std::uint64_t accounted = s.outstanding + s.in_return_ring;
  s.free_local = s.capacity_slots > accounted ? s.capacity_slots - accounted
                                              : 0;
  return s;
}

void write_json(JsonWriter& out, const PacketPoolStats& stats) {
  out.begin_object().field("slabs", stats.slabs)
      .field("capacity_slots", stats.capacity_slots)
      .field("acquired", stats.acquired).field("released", stats.released)
      .field("outstanding", stats.outstanding).field("misses", stats.misses)
      .field("cross_thread_returns", stats.cross_thread_returns)
      .field("overflow_returns", stats.overflow_returns).end_object();
}

}  // namespace midrr
