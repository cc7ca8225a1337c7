#include "flow/queue.hpp"

#include "util/assert.hpp"

namespace midrr {

void FlowQueue::grow() {
  const std::size_t new_cap = ring_.empty() ? 2 : ring_.size() * 2;
  std::vector<Packet> next(new_cap);
  for (std::size_t i = 0; i < count_; ++i) {
    next[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
  }
  ring_.swap(next);
  head_ = 0;
}

bool FlowQueue::enqueue(Packet p) {
  MIDRR_REQUIRE(p.size_bytes > 0, "zero-size packet");
  if (capacity_bytes_ != 0 &&
      backlog_bytes_ + p.size_bytes > capacity_bytes_) {
    ++stats_.dropped_packets;
    stats_.dropped_bytes += p.size_bytes;
    return false;
  }
  backlog_bytes_ += p.size_bytes;
  ++stats_.enqueued_packets;
  stats_.enqueued_bytes += p.size_bytes;
  if (count_ == ring_.size()) grow();
  ring_[(head_ + count_) & (ring_.size() - 1)] = std::move(p);
  ++count_;
  return true;
}

std::optional<Packet> FlowQueue::dequeue() {
  if (count_ == 0) return std::nullopt;
  Packet p = std::move(ring_[head_]);
  head_ = (head_ + 1) & (ring_.size() - 1);
  --count_;
  MIDRR_ASSERT(backlog_bytes_ >= p.size_bytes, "backlog accounting underflow");
  backlog_bytes_ -= p.size_bytes;
  ++stats_.dequeued_packets;
  stats_.dequeued_bytes += p.size_bytes;
  return p;
}

std::optional<std::uint32_t> FlowQueue::head_size() const {
  if (count_ == 0) return std::nullopt;
  return ring_[head_].size_bytes;
}

void FlowQueue::clear() {
  // Release queued packets' frame references but keep the ring capacity.
  for (std::size_t i = 0; i < count_; ++i) {
    ring_[(head_ + i) & (ring_.size() - 1)] = Packet{};
  }
  backlog_bytes_ = 0;
  head_ = 0;
  count_ = 0;
}

}  // namespace midrr
