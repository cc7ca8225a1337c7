// Fairness-drift gauges: Theorem 2 as a live SLO.
//
// A background sampler periodically captures the live configuration
// (Pi, phi, C) and cumulative service counters from a FairnessSource (the
// runtime implements it from its RCU control-plane snapshot), runs the
// weighted max-min reference solver over that instant's topology, and
// compares each flow's MEASURED rate over the last window against the rate
// the convex program says it should get.  The exported series:
//
//   midrr_fairness_rate_ratio{flow=...}   actual / max-min reference
//   midrr_fairness_rate_actual_bps{flow=...}
//   midrr_fairness_rate_maxmin_bps{flow=...}
//   midrr_fairness_jain_index             Jain's index over the ratios
//   midrr_fairness_ratio_min/max/mean     drift envelope without per-flow
//                                         label cardinality
//   midrr_fairness_samples_total          solver runs
//   midrr_fairness_solver_ns              solver latency histogram
//
// A healthy miDRR deployment keeps every ratio near 1.0 (the e2e test pins
// 10%); per-interface-WFQ-style drift shows up as a persistent spread.
//
// Under the class-aggregated runtime every sample row is a FLOW CLASS, so
// the solver sees one row per class (see maxmin.hpp for its cost) no
// matter how many member flows are registered: a class enters the
// reference program at FairnessFlowSample::solver_weight (phi x members),
// its measured rate is the members' summed service, and the exported ratio
// compares aggregate to aggregate (which equals the per-member comparison,
// both sides dividing by the same member count).
// Per-member rate gauges expand lazily -- only for labeled rows that
// actually aggregate more than one flow.
// Caveats: flows must be backlogged for "actual" to be meaningful (an idle
// flow legitimately shows ratio << 1), and with shards > 1 cross-shard
// coupling is intentionally absent, so the GLOBAL max-min reference may
// legitimately diverge (see docs/RUNTIME.md on sharding semantics).
// Unpaced interfaces report no capacity; the sampler substitutes the
// interface's measured drain rate, making the reference "the fair split of
// what the hardware actually moved".
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "flow/ids.hpp"
#include "telemetry/metrics.hpp"
#include "util/time.hpp"

namespace midrr::telemetry {

/// One row of a fairness sample.  Under the class-aggregated runtime a row
/// is a FLOW CLASS: `id` is the class id, `weight` the per-member phi,
/// `members` the member count, and `sent_bytes` the class's summed
/// service.  A plain per-flow source leaves `members` at 1 and everything
/// reads as before.
struct FairnessFlowSample {
  FlowId id = kInvalidFlow;
  std::string name;
  double weight = 1.0;            ///< per member
  std::uint64_t members = 1;      ///< flows aggregated into this row
  std::vector<bool> willing;      ///< by global IfaceId
  std::uint64_t sent_bytes = 0;   ///< cumulative, summed over members

  /// The row's weight in the reference program: phi x members, so a class
  /// row receives exactly the summed rate a per-flow program would give
  /// its members.  An unset weight counts as 1, an unset count as 1.
  double solver_weight() const {
    return (weight > 0.0 ? weight : 1.0) *
           static_cast<double>(members > 0 ? members : 1);
  }
};

/// One instant's (Pi, phi, C) + service state.
struct FairnessSample {
  SimTime at_ns = 0;
  std::vector<FairnessFlowSample> flows;       ///< live flows only
  std::vector<double> capacities_bps;          ///< by iface; < 0 = unpaced
  std::vector<std::uint64_t> iface_sent_bytes; ///< cumulative, by iface
};

/// Where samples come from; implemented by rt::Runtime.  Must be callable
/// from the sampler thread concurrently with the data path.
class FairnessSource {
 public:
  virtual ~FairnessSource() = default;
  virtual FairnessSample fairness_sample() = 0;
};

struct FlowDrift {
  FlowId id = kInvalidFlow;
  std::string name;
  std::uint64_t members = 1;  ///< flows behind this row (class aggregation)
  double actual_bps = 0.0;    ///< aggregate over members
  double maxmin_bps = 0.0;    ///< aggregate reference (weight x members)
  double ratio = 0.0;  ///< actual / maxmin (0 when maxmin is 0)
};

struct DriftReport {
  bool valid = false;   ///< false until two samples bracket a window
  SimTime at_ns = 0;
  double window_s = 0.0;
  std::vector<FlowDrift> flows;
  double jain = 0.0;
  double ratio_min = 0.0;
  double ratio_max = 0.0;
  double ratio_mean = 0.0;
};

struct FairnessDriftOptions {
  SimDuration interval_ns = 500 * kMillisecond;
  /// Per-flow labeled gauges are exported for at most this many flows
  /// (lowest ids first) to bound scrape cardinality; the min/max/mean
  /// envelope always covers every flow.
  std::size_t max_labeled_flows = 64;
};

class FairnessDriftSampler {
 public:
  FairnessDriftSampler(FairnessSource& source, MetricsRegistry& registry,
                       FairnessDriftOptions options = {});
  ~FairnessDriftSampler();  ///< stops and joins

  FairnessDriftSampler(const FairnessDriftSampler&) = delete;
  FairnessDriftSampler& operator=(const FairnessDriftSampler&) = delete;

  void start();
  void stop();  ///< idempotent

  /// Takes one sample and, once a window exists, refreshes the gauges.
  /// Called by the background thread; callable directly in tests (do not
  /// mix with a running thread).
  void sample_once();

  /// The most recent report (copy; `valid` false before the first window).
  DriftReport last() const;

 private:
  void run();
  void export_report(const DriftReport& report);

  FairnessSource& source_;
  MetricsRegistry& registry_;
  FairnessDriftOptions options_;

  Counter& samples_total_;
  LatencyHistogram& solver_ns_;
  Gauge& jain_;
  Gauge& ratio_min_;
  Gauge& ratio_max_;
  Gauge& ratio_mean_;
  Gauge& compared_flows_;

  std::thread thread_;
  std::mutex run_mu_;
  std::condition_variable run_cv_;
  bool running_ = false;

  FairnessSample prev_;
  bool has_prev_ = false;

  mutable std::mutex last_mu_;
  DriftReport last_;
};

/// Per-flow JSON rate table (the /flows endpoint): cumulative service from
/// `sample` joined with the latest drift window (when valid).
std::string flows_json(const FairnessSample& sample, const DriftReport& drift);

}  // namespace midrr::telemetry
