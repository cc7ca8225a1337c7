// Per-flow FIFO packet queue with byte accounting and an optional capacity
// bound (tail drop), plus the service counters S_i(t1, t2] that the paper's
// fairness metric (Definition 3) is computed from.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "flow/packet.hpp"
#include "util/time.hpp"

namespace midrr {

/// Counters of everything a flow queue has seen; the raw material for the
/// directional fairness metric and for goodput reporting.
struct FlowQueueStats {
  std::uint64_t enqueued_packets = 0;
  std::uint64_t enqueued_bytes = 0;
  std::uint64_t dequeued_packets = 0;
  std::uint64_t dequeued_bytes = 0;  ///< S_i(0, now] in bytes
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;
};

/// FIFO queue for one flow.
class FlowQueue {
 public:
  /// `capacity_bytes` of 0 means unbounded.
  explicit FlowQueue(std::uint64_t capacity_bytes = 0)
      : capacity_bytes_(capacity_bytes) {}

  /// Appends a packet; returns false (and drops it) if the byte bound would
  /// be exceeded.
  bool enqueue(Packet p);

  /// Removes and returns the head packet; nullopt when empty.
  std::optional<Packet> dequeue();

  /// Size in bytes of the head-of-line packet (the paper's Size_i);
  /// nullopt when empty.
  std::optional<std::uint32_t> head_size() const;

  bool empty() const { return count_ == 0; }
  std::uint64_t backlog_bytes() const { return backlog_bytes_; }  ///< BL_i
  std::size_t backlog_packets() const { return count_; }
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }  ///< 0 = unbounded

  const FlowQueueStats& stats() const { return stats_; }

  /// Discards all queued packets (flow removal).
  void clear();

 private:
  void grow();

  // Power-of-two circular buffer instead of std::deque: a deque allocates
  // and frees a block every ~dozen packets, which on the runtime's data
  // path happens under the shard mutex.  The ring starts at 2 packets --
  // most flows of a large population hold one or two at a time, and a
  // queue is kept per (flow, shard) -- then doubles and never shrinks, so
  // a queue at steady state enqueues and dequeues with zero allocator
  // traffic and its ring is sized to the deepest backlog it has held.
  std::uint64_t capacity_bytes_;
  std::uint64_t backlog_bytes_ = 0;
  std::vector<Packet> ring_;  // size is a power of two (or 0 before first use)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  FlowQueueStats stats_;
};

}  // namespace midrr
