#include "sched/wfq.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace midrr {

double PerIfaceWfqScheduler::virtual_time(IfaceId iface) const {
  return iface < vtime_.size() ? vtime_[iface] : 0.0;
}

void PerIfaceWfqScheduler::on_interface_added(IfaceId iface) {
  if (active_.size() <= iface) {
    active_.resize(static_cast<std::size_t>(iface) + 1);
    vtime_.resize(static_cast<std::size_t>(iface) + 1, 0.0);
  }
  finish_.ensure(preferences().flow_slots(), preferences().iface_slots());
}

void PerIfaceWfqScheduler::on_interface_removed(IfaceId iface) {
  if (iface < active_.size()) active_[iface].clear();
}

void PerIfaceWfqScheduler::on_flow_added(FlowId flow) {
  finish_.ensure(static_cast<std::size_t>(flow) + 1,
                 preferences().iface_slots());
  finish_.fill_row(flow, 0.0);
}

void PerIfaceWfqScheduler::deactivate_everywhere(FlowId flow) {
  for (auto& s : active_) s.erase(flow);
}

void PerIfaceWfqScheduler::on_flow_removed(FlowId flow) {
  deactivate_everywhere(flow);
}

void PerIfaceWfqScheduler::on_willing_changed(FlowId flow, IfaceId iface,
                                              bool value) {
  if (iface >= active_.size()) return;
  if (value && !queue(flow).empty()) {
    active_[iface].insert(flow);
    finish_.at(flow, iface) = std::max(finish_.at(flow, iface), vtime_[iface]);
  } else if (!value) {
    active_[iface].erase(flow);
  }
}

void PerIfaceWfqScheduler::on_backlogged(FlowId flow) {
  const std::span<const std::uint8_t> row = preferences().willing_row(flow);
  for (IfaceId j = 0; j < row.size() && j < active_.size(); ++j) {
    if (row[j] == 0) continue;
    active_[j].insert(flow);
    // A (re-)entering flow starts no earlier than the tag currently in
    // service; while continuously backlogged its finish tag accumulates
    // on its own (clamping to V at every pick would starve low-weight
    // flows, whose candidate tag would be recomputed forward each time).
    finish_.at(flow, j) = std::max(finish_.at(flow, j), vtime_[j]);
  }
}

std::optional<Packet> PerIfaceWfqScheduler::select(IfaceId iface, SimTime) {
  MIDRR_ASSERT(iface < active_.size(), "select on unknown interface");
  auto& act = active_[iface];
  if (act.empty()) return std::nullopt;

  // Pick the flow whose head packet has the smallest candidate finish tag.
  FlowId best = kInvalidFlow;
  double best_finish = std::numeric_limits<double>::infinity();
  for (FlowId flow : act) {
    const auto head = queue(flow).head_size();
    MIDRR_ASSERT(head.has_value(), "empty flow in WFQ active set");
    const double fin = finish_.at(flow, iface) +
                       static_cast<double>(*head) / preferences().weight(flow);
    if (fin < best_finish) {
      best_finish = fin;
      best = flow;
    }
  }
  MIDRR_ASSERT(best != kInvalidFlow, "WFQ found no candidate");

  auto packet = queue(best).dequeue();
  finish_.at(best, iface) = best_finish;
  vtime_[iface] = best_finish;  // SCFQ: V_j tracks the tag in service
  if (queue(best).empty()) {
    deactivate_everywhere(best);
  }
  return packet;
}

}  // namespace midrr
