#include "sched/drr.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace midrr {

DrrFamilyScheduler::DrrFamilyScheduler(std::uint32_t quantum_base)
    : quantum_base_(quantum_base) {
  MIDRR_REQUIRE(quantum_base > 0, "quantum base must be positive");
}

EnqueueBatchResult DrrFamilyScheduler::enqueue_batch(
    std::span<Packet> packets, SimTime /*now*/) {
  EnqueueBatchResult totals;
  for (Packet& packet : packets) {
    const FlowId flow = packet.flow;
    const std::uint32_t size = packet.size_bytes;
    FlowQueue& q = queue(flow);  // REQUIREs the flow exists
    const bool was_empty = q.empty();
    if (q.enqueue(std::move(packet))) {
      ++totals.accepted;
      totals.accepted_bytes += size;
      if (was_empty) on_backlogged(flow);
    } else {
      ++totals.dropped;
    }
  }
  return totals;
}

std::int64_t DrrFamilyScheduler::quantum_of(FlowId flow) const {
  // Quanta are normalized by the smallest live weight so that EVERY flow's
  // quantum is >= quantum_base (callers keep quantum_base >= MTU).  A
  // quantum below the packet size would make the scheduler rotate through
  // the ring several times at the same instant; for miDRR those extra
  // same-instant passes clear a competitor's service flag and then serve it
  // before any other interface has had time to re-set the flag, which
  // destroys the flag's "served recently elsewhere" meaning.  (Classical
  // DRR recommends quantum >= MTU for the same O(1) reason.)
  const auto q = static_cast<std::int64_t>(
      std::llround(preferences().weight(flow) / preferences().min_weight() *
                   static_cast<double>(quantum_base_)));
  return q > 0 ? q : 1;
}

std::uint64_t DrrFamilyScheduler::turns(FlowId flow, IfaceId iface) const {
  return turn_count_.get(flow, iface);
}

FlowRing& DrrFamilyScheduler::ring(IfaceId iface) {
  MIDRR_ASSERT(iface < rings_.size(), "ring for unknown interface");
  return rings_[iface];
}

const FlowRing* DrrFamilyScheduler::ring_if_present(IfaceId iface) const {
  return iface < rings_.size() ? &rings_[iface] : nullptr;
}

void DrrFamilyScheduler::remove_from_all_rings(FlowId flow) {
  // Ring j only ever holds flows willing on j: on_willing_changed removes a
  // flow that turns unwilling, remove_interface resets the ring before the
  // column is zeroed, and remove_flow runs its hook before the row is
  // cleared.  So only the flow's willing rings need a look.
  const std::span<const std::uint8_t> row = preferences().willing_row(flow);
  for (IfaceId j = 0; j < row.size() && j < rings_.size(); ++j) {
    if (row[j] != 0 && rings_[j].contains(flow)) rings_[j].remove(flow);
  }
}

void DrrFamilyScheduler::on_interface_added(IfaceId iface) {
  if (rings_.size() <= iface) rings_.resize(static_cast<std::size_t>(iface) + 1);
  turn_count_.ensure(preferences().flow_slots(), preferences().iface_slots());
}

void DrrFamilyScheduler::on_interface_removed(IfaceId iface) {
  // Flows stay queued; they simply lose this ring.  Their deficit state is
  // untouched (they keep whatever turns they had earned elsewhere).
  if (iface < rings_.size()) rings_[iface] = FlowRing{};
}

void DrrFamilyScheduler::on_flow_added(FlowId flow) {
  turn_count_.ensure(static_cast<std::size_t>(flow) + 1,
                     preferences().iface_slots());
  turn_count_.fill_row(flow, 0);
}

void DrrFamilyScheduler::on_flow_removed(FlowId flow) {
  remove_from_all_rings(flow);
  reset_deficit(flow);
}

void DrrFamilyScheduler::on_willing_changed(FlowId flow, IfaceId iface,
                                            bool value) {
  if (iface >= rings_.size()) return;
  FlowRing& r = rings_[iface];
  if (value) {
    if (!r.contains(flow) && !queue(flow).empty()) r.insert(flow);
  } else {
    if (r.contains(flow)) r.remove(flow);
  }
}

void DrrFamilyScheduler::on_backlogged(FlowId flow) {
  const std::span<const std::uint8_t> row = preferences().willing_row(flow);
  for (IfaceId j = 0; j < row.size() && j < rings_.size(); ++j) {
    if (row[j] != 0 && !rings_[j].contains(flow)) rings_[j].insert(flow);
  }
}

bool DrrFamilyScheduler::has_eligible(IfaceId iface) const {
  // A flow sits in ring j exactly when it is backlogged and willing on j.
  return iface < rings_.size() && !rings_[iface].empty();
}

void DrrFamilyScheduler::enter_turn(IfaceId iface, FlowRing& r,
                                    bool advance_first, SimTime now) {
  if (advance_first) r.advance();
  walk(iface, r, now);
  const FlowId flow = r.current();
  std::int64_t& dc = deficit(flow, iface);
  dc += quantum_of(flow);
  turn_count_.ensure(static_cast<std::size_t>(flow) + 1,
                     static_cast<std::size_t>(iface) + 1);
  ++turn_count_.at(flow, iface);
  turn_granted(flow, iface);
  if (observer() != nullptr) {
    observer()->on_turn_granted(now, flow, iface, dc);
  }
  r.open_turn();
}

std::optional<Packet> DrrFamilyScheduler::select(IfaceId iface, SimTime now) {
  FlowRing& r = ring(iface);
  // Iteration guard: every pass through the loop grants one quantum, so
  // the number of passes before some head-of-line packet fits is bounded
  // by ring_size * ceil(max_packet / min_quantum).  The guard only trips
  // on a library bug (e.g. an empty flow left in a ring).
  std::uint64_t guard = 0;
  // Worst case: a quantum of 1 byte needs max-IPv4-packet grants per flow
  // before the head packet fits.
  const std::uint64_t guard_limit = (r.size() + 2) * 70000;
  while (!r.empty()) {
    if (!r.turn_open()) {
      enter_turn(iface, r, /*advance_first=*/false, now);
    }
    const FlowId flow = r.current();
    const auto head = queue(flow).head_size();
    MIDRR_ASSERT(head.has_value(), "empty flow found in an active ring");
    std::int64_t& dc = deficit(flow, iface);
    if (static_cast<std::int64_t>(*head) <= dc) {
      auto packet = queue(flow).dequeue();
      dc -= static_cast<std::int64_t>(*head);
      packet_served(flow, iface);
      // The send/drain observer events are emitted by the Scheduler base
      // (note_dequeued), common to every policy.
      if (queue(flow).empty()) {
        // BL_i = 0: reset the deficit and leave the backlogged set.
        reset_deficit(flow);
        remove_from_all_rings(flow);
      }
      return packet;
    }
    enter_turn(iface, r, /*advance_first=*/true, now);
    MIDRR_ASSERT(++guard < guard_limit,
                 "DRR turn loop failed to make progress");
  }
  return std::nullopt;
}

NaiveDrrScheduler::NaiveDrrScheduler(std::uint32_t quantum_base)
    : DrrFamilyScheduler(quantum_base) {}

std::int64_t& NaiveDrrScheduler::deficit(FlowId flow, IfaceId iface) {
  dc_.ensure(static_cast<std::size_t>(flow) + 1,
             static_cast<std::size_t>(iface) + 1);
  return dc_.at(flow, iface);
}

void NaiveDrrScheduler::reset_deficit(FlowId flow) {
  if (flow < dc_.rows()) dc_.fill_row(flow, 0);
}

void NaiveDrrScheduler::on_flow_added(FlowId flow) {
  DrrFamilyScheduler::on_flow_added(flow);
  dc_.ensure(static_cast<std::size_t>(flow) + 1, preferences().iface_slots());
  dc_.fill_row(flow, 0);
}

void NaiveDrrScheduler::on_interface_added(IfaceId iface) {
  DrrFamilyScheduler::on_interface_added(iface);
  dc_.ensure(preferences().flow_slots(), preferences().iface_slots());
}

std::int64_t NaiveDrrScheduler::deficit_of(FlowId flow, IfaceId iface) const {
  return dc_.get(flow, iface);
}

}  // namespace midrr
