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
//
// The proxy runs on the simulator harness (core/harness.hpp), which owns
// the links, the flow table, the goodput sampler and the cluster
// snapshots; the proxy adds the range-request text, the reassembler and
// the prefix goodput.  A flow's chunk k covers bytes [k, k + 1) *
// chunk_bytes (only the final chunk is short), so its offset is its
// Packet::seq times chunk_bytes.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "http/message.hpp"
#include "http/reassembler.hpp"
#include "sched/scheduler.hpp"
#include "sim/rate_profile.hpp"
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

struct ProxyOptions : SamplingOptions {
  /// Goodput is sampled every 500 ms over a 2 s window.
  ProxyOptions() : SamplingOptions{500 * kMillisecond, 4, 0} {}

  Policy policy = Policy::kMiDrr;
  std::uint32_t chunk_bytes = 65536;  ///< byte-range request granularity
  /// Chunks kept outstanding per flow so pipelining keeps links busy.
  std::size_t pipeline_depth = 4;
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

struct ProxyResult {
  std::vector<ProxyFlowResult> flows;
  std::vector<ClusterSnapshot> clusters;
  std::uint64_t requests_sent = 0;
  std::uint64_t request_header_bytes = 0;  ///< uplink overhead of the proxy

  const ProxyFlowResult& flow_named(const std::string& name) const {
    return find_named(flows, name);
  }
};

class HttpRangeProxy final : private SimHarness::Hooks {
 public:
  HttpRangeProxy(std::vector<ProxyInterfaceSpec> ifaces,
                 std::vector<ProxyFlowSpec> flows, ProxyOptions options = {});
  ~HttpRangeProxy();

  /// Runs to `duration` of simulated time; later calls continue the run.
  ProxyResult run(SimTime duration);

  /// The scheduler choosing chunks; attach a SchedulerObserver here
  /// (set_observer) to see its grants, skips and sends.
  Scheduler& scheduler() { return harness_.scheduler(); }

  /// Live counters (also in ProxyResult; these are readable mid-run from a
  /// telemetry gauge_fn callback).
  std::uint64_t requests_sent() const { return requests_sent_; }
  std::uint64_t request_header_bytes() const { return request_header_bytes_; }

 private:
  struct Download {
    std::uint64_t total_bytes = 0;  // 0 = endless
    std::uint64_t requested_bytes = 0;
    RangeReassembler reassembler{};
    std::optional<SimTime> completed_at{};
  };

  ByteRange range_of(const Packet& chunk) const;
  void top_up(std::size_t index);
  void on_start() override;
  void on_dequeue(std::size_t index, const Packet& chunk) override;
  void on_departure(std::size_t index, IfaceId iface, const Packet& chunk,
                    SimTime at) override;

  ProxyOptions options_;
  SimHarness harness_;
  std::vector<Download> downloads_;  // by flow index
  std::uint64_t requests_sent_ = 0;
  std::uint64_t request_header_bytes_ = 0;
};

}  // namespace midrr::http
