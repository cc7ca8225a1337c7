// MetricsObserver: a SchedulerObserver whose callbacks are single relaxed
// atomic increments, cheap enough to run inside the runtime's shard locks
// (the reason plain observers are rejected there).  It turns the DRR
// family's micro-events into counters: turn grants (each grant IS a
// quantum refresh -- Algorithm 3.1 adds Q_i exactly when a turn is
// granted), Algorithm 3.2 flag skips, packet hand-offs, and queue drains.
// Packet/byte counting rides the batched on_packets_sent summary (two
// bumps per dequeue burst instead of two per packet); the per-packet
// on_packet_sent hook only feeds the trace lane.
//
// With a trace lane, every micro-event is also logged into the shard's
// flight lane under global flow and interface ids: a wait-free ring write,
// no allocation, no lock beyond the shard mutex the callbacks run under.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/observer.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace midrr::telemetry {

/// A shard's flight lane and the maps from its scheduler's local ids to
/// global ones.  The callbacks read the maps under the shard mutex that
/// guards them.
struct SchedulerLane {
  FlightLog* log = nullptr;                               ///< null: no trace
  const std::vector<FlowId>* global_of_flow = nullptr;    ///< by local id
  const std::vector<IfaceId>* global_of_iface = nullptr;  ///< by local id
};

class MetricsObserver final : public SchedulerObserver {
 public:
  /// Registers this observer's series in `registry` under `labels`
  /// (typically {{"shard", "<n>"}}).  `lane.log`, if non-null, receives
  /// every event after the counters are bumped; it and both maps must
  /// outlive this observer.
  MetricsObserver(MetricsRegistry& registry, LabelSet labels,
                  SchedulerLane lane = {});

  void on_turn_granted(SimTime now, FlowId flow, IfaceId iface,
                       std::int64_t deficit_after) override;
  void on_flag_skip(SimTime now, FlowId flow, IfaceId iface) override;
  void on_packet_sent(SimTime now, FlowId flow, IfaceId iface,
                      std::uint32_t bytes) override;
  void on_packets_sent(SimTime now, IfaceId iface, std::uint64_t packets,
                       std::uint64_t bytes) override;
  void on_flow_drained(SimTime now, FlowId flow) override;

  std::uint64_t grants() const { return grants_.value(); }
  std::uint64_t skips() const { return skips_.value(); }
  std::uint64_t sends() const { return sends_.value(); }

 private:
  /// Logs one micro-event with `flow` and `iface` translated to global ids.
  void trace(SimTime now, FlightCode code, FlowId flow, IfaceId iface,
             std::uint64_t c = 0) {
    lane_.log->log(static_cast<std::uint64_t>(now), FlightCategory::kSched,
                   code, (*lane_.global_of_flow)[flow],
                   (*lane_.global_of_iface)[iface], c);
  }

  Counter& grants_;  ///< quantum refreshes
  Counter& skips_;
  Counter& sends_;
  Counter& sent_bytes_;
  Counter& drains_;
  SchedulerLane lane_;
};

}  // namespace midrr::telemetry
