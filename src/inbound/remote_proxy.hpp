// The paper's Figure 4 "ideal implementation": an aggregation proxy in the
// network, close to the last mile, that collects every flow headed for the
// device and schedules *inbound* packets with miDRR across the paths that
// end at the device's interfaces.
//
// Model: servers feed per-flow queues at the proxy; each path (one per
// device interface) has its own capacity profile and one-way latency; the
// device reassembles per-flow packet sequences in a ReorderBuffer and the
// in-order release rate is the goodput.  Latency skew across paths is what
// makes this interesting: aggregation buys bandwidth at the cost of
// reorder-buffer memory, which the result reports.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "flow/source.hpp"
#include "inbound/reorder.hpp"
#include "sched/scheduler.hpp"
#include "sim/link.hpp"
#include "sim/rate_profile.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace midrr::inbound {

struct PathSpec {
  std::string name;          ///< device interface this path ends at
  RateProfile profile;       ///< bottleneck (last-mile) capacity
  SimDuration latency = 0;   ///< one-way proxy -> device delay
};

struct InboundFlowSpec {
  std::string name;
  double weight = 1.0;
  std::vector<std::string> paths;  ///< willing device interfaces
  SourceFactory make_source;       ///< server-side traffic
};

struct InboundFlowResult {
  std::string name;
  TimeSeries goodput_mbps{""};
  std::uint64_t delivered_bytes = 0;
  std::uint64_t max_reorder_buffer_bytes = 0;
  std::uint64_t out_of_order_arrivals = 0;
  std::vector<std::uint64_t> bytes_per_path;

  double mean_goodput_mbps(SimTime from, SimTime to) const {
    return goodput_mbps.mean_over(from, to);
  }
};

struct InboundResult {
  std::vector<InboundFlowResult> flows;
  const InboundFlowResult& flow_named(const std::string& name) const;
};

struct InboundOptions {
  Policy policy = Policy::kMiDrr;
  std::uint32_t quantum_base = 1500;
  SimDuration sample_interval = 100 * kMillisecond;
  std::size_t rate_window_bins = 10;
  std::uint64_t seed = 1;
};

class RemoteProxy {
 public:
  RemoteProxy(std::vector<PathSpec> paths,
              std::vector<InboundFlowSpec> flows,
              InboundOptions options = {});
  ~RemoteProxy();

  InboundResult run(SimTime duration);

  Scheduler& scheduler() { return *scheduler_; }

 private:
  struct FlowState;

  std::size_t index_of(FlowId flow) const;  // kNoIndex if unknown
  void enqueue_for(std::size_t index, std::uint32_t size);
  void pump_arrivals(std::size_t index);
  void on_path_departure(IfaceId path, const Packet& packet, SimTime at);
  void deliver(std::size_t index, IfaceId path, Packet packet, SimTime at);
  void sample();

  std::vector<PathSpec> path_specs_;
  std::vector<InboundFlowSpec> flow_specs_;
  InboundOptions options_;
  Simulator sim_;
  std::unique_ptr<Scheduler> scheduler_;
  Rng rng_;
  std::vector<std::unique_ptr<LinkTransmitter>> paths_;
  std::vector<std::unique_ptr<FlowState>> flows_;
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index_by_flow_id_;  // FlowId -> flows_ index
};

}  // namespace midrr::inbound
