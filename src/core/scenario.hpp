// Scenario: declarative description of a multi-interface scheduling
// experiment, and ScenarioRunner: the device's run of it on the simulator
// harness (core/harness.hpp) under any scheduling policy.  The runner
// adds its departure bookkeeping (delay samples, completion) and the
// ScenarioResult.
//
// This is the top of the library for simulation studies: every evaluation
// figure (Fig 1, 6, 8, 10-ish) is "build a Scenario, run it under a Policy,
// read the per-flow rate time series / cluster snapshots".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "flow/source.hpp"
#include "sched/scheduler.hpp"
#include "sim/rate_profile.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace midrr {

// SourceFactory (flow/source.hpp): each run needs fresh source state.

struct InterfaceSpec {
  std::string name;
  RateProfile profile;
  /// Optional failure injection: the interface is administratively down
  /// during [down_from, down_until).
  std::optional<SimTime> down_from;
  std::optional<SimTime> down_until;
};

/// Declarative description of one flow in a scenario.  (Distinct from
/// midrr::FlowSpec, the scheduler-level registration record: this one names
/// interfaces by string, carries a start time and a traffic source.)
struct ScenarioFlowSpec {
  std::string name;
  double weight = 1.0;
  std::vector<std::string> ifaces;  ///< names of willing interfaces
  SimTime start = 0;                ///< when the flow appears
  SourceFactory make_source;
};

class Scenario {
 public:
  /// Adds an interface with a (possibly time-varying) capacity profile.
  Scenario& interface(std::string name, RateProfile profile);

  /// Adds an interface that goes down during [from, until).
  Scenario& interface_with_outage(std::string name, RateProfile profile,
                                  SimTime down_from, SimTime down_until);

  /// Adds a flow.
  Scenario& flow(ScenarioFlowSpec spec);

  /// Convenience: a backlogged flow (optionally volume-bounded) with fixed
  /// `packet_size`-byte packets.
  Scenario& backlogged_flow(std::string name, double weight,
                            std::vector<std::string> ifaces,
                            std::uint64_t total_bytes = 0,
                            std::uint32_t packet_size = 1500,
                            SimTime start = 0);

  const std::vector<InterfaceSpec>& interfaces() const { return ifaces_; }
  const std::vector<ScenarioFlowSpec>& flows() const { return flows_; }

 private:
  std::vector<InterfaceSpec> ifaces_;
  std::vector<ScenarioFlowSpec> flows_;
};

struct FlowResult {
  std::string name;
  FlowId id = kInvalidFlow;
  double weight = 1.0;
  TimeSeries rate_mbps{""};            ///< sampled smoothed rate over time
  std::uint64_t bytes_sent = 0;        ///< across all interfaces
  std::vector<std::uint64_t> bytes_per_iface;
  std::optional<SimTime> completed_at;  ///< last byte departed & source done
  /// Queueing delay (enqueue -> transmission complete) of every packet, in
  /// nanoseconds; feeds the latency side of the quantum trade-off.
  EmpiricalCdf delay_ns;
  /// Tail drops (only non-zero with RunnerOptions::queue_capacity_bytes).
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_bytes = 0;

  /// Mean of the sampled rate over [from, to), in Mb/s.
  double mean_rate_mbps(SimTime from, SimTime to) const {
    return rate_mbps.mean_over(from, to);
  }
};

struct InterfaceResult {
  std::string name;
  IfaceId id = kInvalidIface;
  std::uint64_t bytes_sent = 0;
  SimDuration busy_time = 0;
};

struct ScenarioResult {
  std::string policy;
  SimTime duration = 0;
  std::vector<FlowResult> flows;
  std::vector<InterfaceResult> ifaces;
  std::vector<ClusterSnapshot> clusters;

  const FlowResult& flow_named(const std::string& name) const {
    return find_named(flows, name);
  }
};

struct RunnerOptions : SamplingOptions {
  std::uint32_t quantum_base = 1500;   ///< DRR-family quantum scale (bytes)
  std::uint64_t seed = 1;
  std::uint64_t queue_capacity_bytes = 0;  ///< per-flow cap; 0 = unbounded
  /// Per-transmission service-time jitter fraction (see
  /// LinkTransmitter::set_jitter); 0 = fully deterministic links.
  double link_jitter = 0.0;
};

class ScenarioRunner final : private SimHarness::Hooks {
 public:
  ScenarioRunner(const Scenario& scenario, Policy policy,
                 RunnerOptions options = {});
  ~ScenarioRunner();

  /// Runs the scenario for `duration` of simulated time.
  ScenarioResult run(SimTime duration);

  /// The scheduler driving the run (white-box inspection in tests).
  Scheduler& scheduler() { return harness_.scheduler(); }
  Simulator& simulator() { return harness_.simulator(); }

 private:
  /// What the runner keeps of a flow's departures.
  struct Departures {
    EmpiricalCdf delay_ns;
    std::optional<SimTime> completed_at;
  };

  void start_flow(std::size_t index);
  void on_start() override;
  void on_departure(std::size_t index, IfaceId iface, const Packet& packet,
                    SimTime at) override;

  const Scenario& scenario_;
  RunnerOptions options_;
  SimHarness harness_;
  std::vector<Departures> departures_;  // by flow index
};

}  // namespace midrr
