#include "sched/round_robin.hpp"

#include "util/assert.hpp"

namespace midrr {

void RoundRobinScheduler::on_interface_added(IfaceId iface) {
  if (rings_.size() <= iface) {
    rings_.resize(static_cast<std::size_t>(iface) + 1);
  }
}

void RoundRobinScheduler::on_interface_removed(IfaceId iface) {
  if (iface < rings_.size()) rings_[iface] = FlowRing{};
}

void RoundRobinScheduler::on_flow_removed(FlowId flow) {
  for (auto& r : rings_) {
    if (r.contains(flow)) r.remove(flow);
  }
}

void RoundRobinScheduler::on_willing_changed(FlowId flow, IfaceId iface,
                                             bool value) {
  if (iface >= rings_.size()) return;
  if (value) {
    if (!rings_[iface].contains(flow) && !queue(flow).empty()) {
      rings_[iface].insert(flow);
    }
  } else if (rings_[iface].contains(flow)) {
    rings_[iface].remove(flow);
  }
}

void RoundRobinScheduler::on_backlogged(FlowId flow) {
  const std::span<const std::uint8_t> row = preferences().willing_row(flow);
  for (IfaceId j = 0; j < row.size() && j < rings_.size(); ++j) {
    if (row[j] != 0 && !rings_[j].contains(flow)) rings_[j].insert(flow);
  }
}

std::optional<Packet> RoundRobinScheduler::select(IfaceId iface, SimTime) {
  MIDRR_ASSERT(iface < rings_.size(), "select on unknown interface");
  FlowRing& r = rings_[iface];
  if (r.empty()) return std::nullopt;
  // Serve the current flow one packet, then move on.
  const FlowId flow = r.turn_open() ? r.advance() : r.current();
  r.open_turn();
  auto packet = queue(flow).dequeue();
  MIDRR_ASSERT(packet.has_value(), "empty flow in RR ring");
  if (queue(flow).empty()) {
    for (auto& ring : rings_) {
      if (ring.contains(flow)) ring.remove(flow);
    }
  }
  return packet;
}

}  // namespace midrr
