// The in-device HTTP byte-range proxy (Section 5, Figure 5) on the
// simulator: the C++ analog of the paper's 512-line Python proxy.
//
// Each application download is one flow.  The proxy splits the object into
// byte-range chunks; whenever an interface finishes receiving a chunk it
// asks the scheduler (miDRR by default) whose chunk to request next on that
// interface -- the chunk IS the scheduling unit, so the same DRR machinery
// that schedules packets upstream schedules range requests downstream.
// Responses arrive out of order across interfaces; the reassembler releases
// the contiguous prefix to the application, and that release rate is the
// goodput Fig 10 plots.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fairness/clusters.hpp"
#include "http/message.hpp"
#include "http/reassembler.hpp"
#include "sched/scheduler.hpp"
#include "sim/link.hpp"
#include "sim/rate_profile.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace midrr::http {

struct ProxyInterfaceSpec {
  std::string name;
  RateProfile profile;
};

struct ProxyFlowSpec {
  std::string name;
  double weight = 1.0;
  std::vector<std::string> ifaces;  ///< willing interface names
  std::uint64_t total_bytes = 0;    ///< 0 = endless download
};

struct ProxyOptions {
  Policy policy = Policy::kMiDrr;
  std::uint32_t chunk_bytes = 65536;  ///< byte-range request granularity
  /// Chunks kept outstanding per flow so pipelining keeps links busy.
  std::size_t pipeline_depth = 4;
  SimDuration sample_interval = 500 * kMillisecond;
  std::size_t rate_window_bins = 4;
  SimDuration cluster_interval = 0;  ///< 0 = no cluster snapshots
  /// Optional scheduler observer (chunk grants/skips/sends become visible;
  /// a telemetry::MetricsObserver here turns them into Prometheus
  /// counters).  Must outlive the proxy; may be null.
  SchedulerObserver* observer = nullptr;
};

struct ProxyFlowResult {
  std::string name;
  TimeSeries goodput_mbps{""};       ///< in-order delivery rate over time
  std::uint64_t delivered_bytes = 0;  ///< contiguous prefix at the end
  std::uint64_t received_bytes = 0;   ///< including buffered out-of-order
  std::vector<std::uint64_t> chunks_per_iface;
  std::optional<SimTime> completed_at;

  double mean_goodput_mbps(SimTime from, SimTime to) const {
    return goodput_mbps.mean_over(from, to);
  }
};

struct ProxyClusterSnapshot {
  SimTime at = 0;
  fair::ClusterAnalysis analysis;
  std::string rendering;
};

struct ProxyResult {
  std::vector<ProxyFlowResult> flows;
  std::vector<ProxyClusterSnapshot> clusters;
  std::uint64_t requests_sent = 0;
  std::uint64_t request_header_bytes = 0;  ///< uplink overhead of the proxy

  const ProxyFlowResult& flow_named(const std::string& name) const;
};

class HttpRangeProxy {
 public:
  HttpRangeProxy(std::vector<ProxyInterfaceSpec> ifaces,
                 std::vector<ProxyFlowSpec> flows, ProxyOptions options = {});
  ~HttpRangeProxy();

  ProxyResult run(SimTime duration);

  Scheduler& scheduler() { return *scheduler_; }

  /// Live counters (also in ProxyResult; these are readable mid-run from a
  /// telemetry gauge_fn callback).
  std::uint64_t requests_sent() const { return requests_sent_; }
  std::uint64_t request_header_bytes() const { return request_header_bytes_; }

 private:
  struct FlowState;

  std::size_t index_of(FlowId flow) const;  // kNoIndex if unknown
  void top_up(std::size_t index, SimTime now);
  void on_chunk_received(IfaceId iface, const Packet& chunk, SimTime at);
  void sample();
  void snapshot_clusters();

  std::vector<ProxyInterfaceSpec> iface_specs_;
  std::vector<ProxyFlowSpec> flow_specs_;
  ProxyOptions options_;
  Simulator sim_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<std::unique_ptr<LinkTransmitter>> links_;
  std::vector<std::unique_ptr<FlowState>> flows_;
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index_by_flow_id_;  // FlowId -> flows_ index
  std::vector<std::vector<std::uint64_t>> window_bytes_;  // [flow][iface]
  std::vector<ProxyClusterSnapshot> cluster_log_;
  std::uint64_t requests_sent_ = 0;
  std::uint64_t request_header_bytes_ = 0;
};

}  // namespace midrr::http
