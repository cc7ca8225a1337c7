// SimHarness: the simulator scaffolding shared by the three settings that
// run the paper's one scheduling contract -- "interface j is free: which
// packet should it send?" -- on the discrete-event simulator: the device
// itself (core/scenario.hpp's ScenarioRunner), the in-network aggregation
// proxy of Fig. 4 (inbound::RemoteProxy) and the in-device HTTP byte-range
// proxy of Section 5 (http::HttpRangeProxy).
//
// The harness owns the simulator, the scheduler and
//   * one LinkTransmitter per interface, pulling from the scheduler;
//   * the flow table: a setting's flow index per scheduler FlowId, with
//     willing interface names resolved to IfaceIds at registration;
//   * the source pump: a flow's on_start packets, one refill per dequeue
//     and its timer-driven arrivals on one simulator handle;
//   * a RateMeter per flow, sampled into its TimeSeries on one handle;
//   * cluster snapshots: each window's bytes per (flow, interface) set
//     against the max-min clusters of that moment.
// What is the setting's own reaches the harness through its Hooks: its
// start work, the bookkeeping of every departure (the setting decides what
// its meter records, and when), and the refill after a dequeue for a flow
// without a traffic source.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fairness/clusters.hpp"
#include "flow/source.hpp"
#include "sched/scheduler.hpp"
#include "sim/link.hpp"
#include "sim/rate_profile.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace midrr {

struct ClusterSnapshot {
  SimTime at = 0;
  fair::ClusterAnalysis analysis;
  std::string rendering;  ///< human-readable "{a | if1} @3Mb/s ..." line
};

/// What the harness samples, and how often.
struct SamplingOptions {
  SimDuration sample_interval = 100 * kMillisecond;
  std::size_t rate_window_bins = 10;  ///< smoothing: window = bins * interval
  SimDuration cluster_interval = 0;   ///< 0 = no cluster snapshots
};

/// The entry of `flows` (a result's per-flow list) named `name`.
template <typename FlowResults>
const auto& find_named(const FlowResults& flows, const std::string& name) {
  for (const auto& f : flows) {
    if (f.name == name) return f;
  }
  MIDRR_REQUIRE(false, "no flow named " + name);
  return flows.front();  // unreachable
}

class SimHarness {
 public:
  /// The part of a run that is the setting's own.
  class Hooks {
   public:
    /// The setting's start work (first packets, flow start events); runs
    /// once, at the first run_until.
    virtual void on_start() = 0;
    /// A link finished sending `packet` of flow `index` at `at` (now).
    virtual void on_departure(std::size_t index, IfaceId iface,
                              const Packet& packet, SimTime at) = 0;
    /// A link took `packet` of flow `index`, which has no traffic source,
    /// from the scheduler.
    virtual void on_dequeue(std::size_t /*index*/, const Packet& /*packet*/) {}

   protected:
    ~Hooks() = default;
  };

  struct Flow {
    Flow(std::string name, SimDuration bin, std::size_t window_bins)
        : meter(bin, window_bins), series(std::move(name)) {}
    const std::string& name() const { return series.name(); }

    FlowId id = kInvalidFlow;  ///< until registered with the scheduler
    std::unique_ptr<TrafficSource> source;  ///< null: the hooks refill
    RateMeter meter;    ///< what the hooks record, in bytes
    TimeSeries series;  ///< the meter's rate in Mb/s at every sample tick
    std::uint64_t next_seq = 0;      ///< Packet::seq of its next packet
    Simulator::EventHandle arrival;  ///< fires the flow's one pending arrival
    std::uint32_t arrival_size = 0;  ///< size of that pending arrival
  };

  /// Builds the `policy` scheduler with `quantum_base`; the oracle reads
  /// the live capacity of every link (zero while administratively down).
  /// `seed` seeds the one Rng every traffic source draws from.
  SimHarness(Hooks& hooks, Policy policy, std::uint32_t quantum_base,
             const SamplingOptions& sampling, std::uint64_t seed = 1);
  SimHarness(const SimHarness&) = delete;
  SimHarness& operator=(const SimHarness&) = delete;
  ~SimHarness();

  Simulator& simulator() { return sim_; }
  Scheduler& scheduler() { return *scheduler_; }

  /// Adds interface `name` (its IfaceId is its position) and its link.
  LinkTransmitter& add_link(const std::string& name, RateProfile profile);
  const std::vector<std::unique_ptr<LinkTransmitter>>& links() const {
    return links_;
  }

  /// Adds flow `name` to the table, not yet known to the scheduler, and
  /// returns its index.
  std::size_t add_flow(std::string name);

  /// Registers flow `index` with the scheduler, willing on the interfaces
  /// named in `ifaces`; `source` (may be null) refills it.
  void register_flow(std::size_t index, double weight,
                     const std::vector<std::string>& ifaces,
                     std::uint64_t queue_capacity_bytes,
                     std::unique_ptr<TrafficSource> source);

  /// Enqueues the source's on_start packets and arms its first arrival.
  void start_source(std::size_t index);

  /// Enqueues a `size`-byte packet of flow `index`, stamped with the flow's
  /// next sequence number; when the flow becomes backlogged its willing
  /// links are told.
  EnqueueResult enqueue(std::size_t index, std::uint32_t size);

  std::size_t flow_count() const { return flows_.size(); }
  const Flow& flow(std::size_t index) const { return flows_[index]; }
  /// Adds `bytes` at `at` to flow `index`'s meter.
  void record(std::size_t index, SimTime at, std::uint64_t bytes) {
    flows_[index].meter.record(at, bytes);
  }

  /// Runs the simulation to `until`.  The first call first runs the hooks'
  /// on_start, then arms the rate sampler and, with a cluster interval, the
  /// cluster snapshots, in that order; later calls only extend the horizon,
  /// so a run in steps equals one run to the last step.  Call once every
  /// flow is added.
  void run_until(SimTime until);
  const std::vector<ClusterSnapshot>& clusters() const { return clusters_; }

 private:
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  std::size_t index_of(FlowId flow) const {
    return flow < index_by_flow_id_.size() ? index_by_flow_id_[flow]
                                           : kNoIndex;
  }
  std::optional<Packet> dequeue(IfaceId iface, SimTime now);
  void depart(IfaceId iface, const Packet& packet, SimTime at);
  void pump_arrivals(std::size_t index);
  void sample_rates();
  void snapshot_clusters();

  Hooks& hooks_;
  SamplingOptions sampling_;
  Simulator sim_;
  std::unique_ptr<Scheduler> scheduler_;
  Rng rng_;
  std::vector<std::unique_ptr<LinkTransmitter>> links_;
  std::vector<Flow> flows_;
  std::vector<std::size_t> index_by_flow_id_;  // FlowId -> flows_ index
  // Bytes per (flow, link) since the last snapshot, at flow * links + link;
  // empty without cluster snapshots.
  std::vector<std::uint64_t> window_bytes_;
  std::vector<ClusterSnapshot> clusters_;
  Simulator::EventHandle sample_event_;
  Simulator::EventHandle cluster_event_;
  bool started_ = false;  ///< on_start ran and the samplers are armed
};

}  // namespace midrr
