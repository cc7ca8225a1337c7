#include "flow/preferences.hpp"

#include "util/assert.hpp"

namespace midrr {

IfaceId Preferences::add_interface(std::string name) {
  IfaceEntry e;
  e.live = true;
  e.name = name.empty() ? ("iface" + std::to_string(ifaces_.size())) : std::move(name);
  ifaces_.push_back(std::move(e));
  pi_.ensure(flow_slots(), iface_slots());
  return static_cast<IfaceId>(ifaces_.size() - 1);
}

FlowId Preferences::add_flow(double weight, const std::vector<IfaceId>& willing,
                             std::string name) {
  MIDRR_REQUIRE(weight > 0.0, "flow weight must be positive");
  for (IfaceId j : willing) {
    MIDRR_REQUIRE(iface_exists(j), "willing list references unknown interface");
  }
  const auto flow = static_cast<FlowId>(live_.size());
  live_.push_back(1);
  weight_.push_back(weight);
  name_.push_back(std::move(name));
  pi_.ensure(flow_slots(), iface_slots());
  for (IfaceId j : willing) pi_.at(flow, j) = 1;
  ++live_weights_[weight];
  return flow;
}

void Preferences::remove_flow(FlowId flow) {
  require_flow(flow);
  live_[flow] = 0;
  uncount_weight(weight_[flow]);
}

void Preferences::remove_interface(IfaceId iface) {
  MIDRR_REQUIRE(iface_exists(iface), "removing unknown interface");
  ifaces_[iface].live = false;
  for (std::size_t f = 0; f < pi_.rows(); ++f) pi_.at(f, iface) = 0;
}

bool Preferences::flow_exists(FlowId flow) const {
  return flow < live_.size() && live_[flow] != 0;
}

bool Preferences::iface_exists(IfaceId iface) const {
  return iface < ifaces_.size() && ifaces_[iface].live;
}

void Preferences::require_flow(FlowId flow) const {
  MIDRR_REQUIRE(flow_exists(flow), "unknown flow id");
}

void Preferences::uncount_weight(double weight) {
  const auto it = live_weights_.find(weight);
  MIDRR_ASSERT(it != live_weights_.end(), "live weight count missing");
  if (--it->second == 0) live_weights_.erase(it);
}

bool Preferences::willing(FlowId flow, IfaceId iface) const {
  require_flow(flow);
  return iface < pi_.cols() && pi_.at(flow, iface) != 0;
}

void Preferences::set_willing(FlowId flow, IfaceId iface, bool value) {
  MIDRR_REQUIRE(iface_exists(iface), "unknown interface id");
  require_flow(flow);
  pi_.at(flow, iface) = value ? 1 : 0;
}

std::span<const std::uint8_t> Preferences::willing_row(FlowId flow) const {
  require_flow(flow);
  return {pi_.row(flow), pi_.cols()};
}

double Preferences::weight(FlowId flow) const {
  require_flow(flow);
  return weight_[flow];
}

void Preferences::set_weight(FlowId flow, double weight) {
  MIDRR_REQUIRE(weight > 0.0, "flow weight must be positive");
  require_flow(flow);
  uncount_weight(weight_[flow]);
  weight_[flow] = weight;
  ++live_weights_[weight];
}

double Preferences::min_weight() const {
  return live_weights_.empty() ? 1.0 : live_weights_.begin()->first;
}

std::string Preferences::flow_name(FlowId flow) const {
  require_flow(flow);
  return name_[flow].empty() ? "flow" + std::to_string(flow) : name_[flow];
}

const std::string& Preferences::iface_name(IfaceId iface) const {
  MIDRR_REQUIRE(iface_exists(iface), "unknown interface id");
  return ifaces_[iface].name;
}

std::vector<FlowId> Preferences::flows_willing(IfaceId iface) const {
  MIDRR_REQUIRE(iface_exists(iface), "unknown interface id");
  std::vector<FlowId> out;
  for (FlowId i = 0; i < live_.size(); ++i) {
    if (live_[i] != 0 && pi_.at(i, iface) != 0) out.push_back(i);
  }
  return out;
}

std::vector<IfaceId> Preferences::ifaces_of(FlowId flow) const {
  const std::span<const std::uint8_t> row = willing_row(flow);
  std::vector<IfaceId> out;
  for (IfaceId j = 0; j < row.size(); ++j) {
    if (row[j] != 0) out.push_back(j);
  }
  return out;
}

std::vector<FlowId> Preferences::flows() const {
  std::vector<FlowId> out;
  for (FlowId i = 0; i < live_.size(); ++i) {
    if (live_[i] != 0) out.push_back(i);
  }
  return out;
}

std::vector<IfaceId> Preferences::ifaces() const {
  std::vector<IfaceId> out;
  for (IfaceId j = 0; j < ifaces_.size(); ++j) {
    if (ifaces_[j].live) out.push_back(j);
  }
  return out;
}

std::size_t Preferences::flow_count() const { return flows().size(); }
std::size_t Preferences::iface_count() const { return ifaces().size(); }

}  // namespace midrr
