#include "inbound/remote_proxy.hpp"

#include "util/assert.hpp"

namespace midrr::inbound {

// One MTU-sized packet per DRR turn.
constexpr std::uint32_t kQuantumBytes = 1500;

RemoteProxy::RemoteProxy(std::vector<PathSpec> paths,
                         std::vector<InboundFlowSpec> flows, Policy policy)
    : harness_(*this, policy, kQuantumBytes, SamplingOptions{}) {
  MIDRR_REQUIRE(!paths.empty(), "remote proxy needs paths");

  for (PathSpec& spec : paths) {
    MIDRR_REQUIRE(spec.latency >= 0, "negative path latency");
    const IfaceId id =
        harness_.add_link(spec.name, std::move(spec.profile)).iface();
    paths_.push_back(Path{.latency = spec.latency,
                          .deliver = harness_.simulator().make_event(
                              [this, id] { deliver(id); })});
  }

  for (const InboundFlowSpec& spec : flows) {
    MIDRR_REQUIRE(spec.make_source != nullptr, "inbound flow needs a source");
    const std::size_t index = harness_.add_flow(spec.name);
    harness_.register_flow(index, spec.weight, spec.paths, 0,
                           spec.make_source());
    receivers_.push_back(
        Receiver{.bytes_per_path = std::vector<std::uint64_t>(paths_.size())});
  }
}

RemoteProxy::~RemoteProxy() = default;

void RemoteProxy::on_departure(std::size_t index, IfaceId path,
                               const Packet& packet, SimTime) {
  // The packet left the proxy's bottleneck; it reaches the device after
  // the path's one-way latency.  A path has one latency, so its packets
  // arrive in the order they left.
  Path& p = paths_[path];
  p.in_flight.push_back(InFlight{index, packet.seq, packet.size_bytes});
  harness_.simulator().schedule_in(p.latency, p.deliver);
}

void RemoteProxy::deliver(IfaceId path) {
  std::deque<InFlight>& in_flight = paths_[path].in_flight;
  const InFlight packet = in_flight.front();
  in_flight.pop_front();
  Receiver& receiver = receivers_[packet.index];
  receiver.bytes_per_path[path] += packet.bytes;
  const auto delivery = receiver.reorder.offer(packet.seq, packet.bytes);
  if (delivery.delivered_bytes > 0) {
    harness_.record(packet.index, harness_.simulator().now(),
                    delivery.delivered_bytes);
  }
}

void RemoteProxy::on_start() {
  for (std::size_t idx = 0; idx < harness_.flow_count(); ++idx) {
    harness_.start_source(idx);
  }
  for (const auto& path : harness_.links()) path->notify_backlog();
}

InboundResult RemoteProxy::run(SimTime duration) {
  harness_.run_until(duration);

  InboundResult result;
  for (std::size_t idx = 0; idx < harness_.flow_count(); ++idx) {
    const SimHarness::Flow& flow = harness_.flow(idx);
    const Receiver& receiver = receivers_[idx];
    InboundFlowResult fr;
    fr.name = flow.name();
    fr.goodput_mbps = flow.series;
    fr.delivered_bytes = receiver.reorder.delivered_bytes();
    fr.max_reorder_buffer_bytes = receiver.reorder.max_buffered_bytes();
    fr.out_of_order_arrivals = receiver.reorder.out_of_order_arrivals();
    fr.bytes_per_path = receiver.bytes_per_path;
    result.flows.push_back(std::move(fr));
  }
  return result;
}

}  // namespace midrr::inbound
