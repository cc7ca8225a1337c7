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
//
// The proxy runs on the simulator harness (core/harness.hpp), which owns
// the links, the flow table, the source pump and the goodput sampler; the
// proxy adds each path's latency and the device's reorder buffers.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "flow/source.hpp"
#include "inbound/reorder.hpp"
#include "sched/scheduler.hpp"
#include "sim/rate_profile.hpp"
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
  const InboundFlowResult& flow_named(const std::string& name) const {
    return find_named(flows, name);
  }
};

class RemoteProxy final : private SimHarness::Hooks {
 public:
  RemoteProxy(std::vector<PathSpec> paths,
              std::vector<InboundFlowSpec> flows,
              Policy policy = Policy::kMiDrr);
  ~RemoteProxy();

  /// Runs to `duration` of simulated time; later calls continue the run.
  InboundResult run(SimTime duration);

  Scheduler& scheduler() { return harness_.scheduler(); }

 private:
  /// A packet on its way from the proxy to the device.
  struct InFlight {
    std::size_t index;  ///< flow index
    std::uint64_t seq;
    std::uint32_t bytes;
  };
  struct Path {
    SimDuration latency = 0;
    std::deque<InFlight> in_flight{};  ///< departure (= arrival) order
    Simulator::EventHandle deliver{};  ///< delivers the oldest in flight
  };
  /// The device's side of one flow.
  struct Receiver {
    ReorderBuffer reorder{};
    std::vector<std::uint64_t> bytes_per_path{};
  };

  void on_start() override;
  void on_departure(std::size_t index, IfaceId path, const Packet& packet,
                    SimTime at) override;
  void deliver(IfaceId path);

  SimHarness harness_;
  std::vector<Path> paths_;
  std::vector<Receiver> receivers_;  // by flow index
};

}  // namespace midrr::inbound
