#include "telemetry/metrics_observer.hpp"

namespace midrr::telemetry {

MetricsObserver::MetricsObserver(MetricsRegistry& registry, LabelSet labels,
                                 SchedulerLane lane)
    : grants_(registry.counter(
          "midrr_sched_turns_total",
          "Service turns granted (each grant refreshes the flow's quantum)",
          labels)),
      skips_(registry.counter(
          "midrr_sched_flag_skips_total",
          "Algorithm 3.2 service-flag skips (flow served elsewhere)", labels)),
      sends_(registry.counter("midrr_sched_packets_sent_total",
                              "Packets handed to interfaces", labels)),
      sent_bytes_(registry.counter("midrr_sched_sent_bytes_total",
                                   "Bytes handed to interfaces", labels)),
      drains_(registry.counter(
          "midrr_sched_flow_drains_total",
          "Flow queue drains (flow left the backlogged set)", labels)),
      lane_(lane) {}

void MetricsObserver::on_turn_granted(SimTime now, FlowId flow, IfaceId iface,
                                      std::int64_t deficit_after) {
  grants_.inc();
  if (lane_.log != nullptr) {
    trace(now, FlightCode::kGrant, flow, iface,
          static_cast<std::uint64_t>(deficit_after));
  }
}

void MetricsObserver::on_flag_skip(SimTime now, FlowId flow, IfaceId iface) {
  skips_.inc();
  if (lane_.log != nullptr) trace(now, FlightCode::kSkip, flow, iface);
}

void MetricsObserver::on_packet_sent(SimTime now, FlowId flow, IfaceId iface,
                                     std::uint32_t bytes) {
  // Counting happens in on_packets_sent (one bump per burst); this hook
  // only feeds the trace lane, which wants per-packet events.
  if (lane_.log != nullptr) trace(now, FlightCode::kSend, flow, iface, bytes);
}

void MetricsObserver::on_packets_sent(SimTime /*now*/, IfaceId /*iface*/,
                                      std::uint64_t packets,
                                      std::uint64_t bytes) {
  sends_.inc(packets);
  sent_bytes_.inc(bytes);
}

void MetricsObserver::on_flow_drained(SimTime now, FlowId flow) {
  drains_.inc();
  if (lane_.log != nullptr) {
    lane_.log->log(static_cast<std::uint64_t>(now), FlightCategory::kSched,
                   FlightCode::kFlowDrained, (*lane_.global_of_flow)[flow]);
  }
}

}  // namespace midrr::telemetry
