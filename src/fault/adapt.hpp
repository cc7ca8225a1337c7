// AdaptiveController: the closed loop that turns measurement into policy.
//
// PR 5's degradation story was open-loop: shedding armed at a FIXED byte
// watermark (`--shed-bytes`), and the fairness solver believed CONFIGURED
// interface capacities no matter what the links actually moved.  This
// controller closes both loops from the supervisor's probe cadence:
//
//   * Adaptive shedding.  The operator states an objective -- "hold traced
//     p99 residence at T" (`--shed-target-p99-ms`) -- and the controller
//     derives the watermark from Little's law: a shard whose slowest drain
//     path moves R bytes/s holds residence under T only if its backlog
//     stays under R*T.  The base watermark is therefore
//     min-over-shards(drain Bps) * T, multiplied by a slow multiplicative
//     correction driven by the StageTracer's WINDOWED p99 (bucket-count
//     deltas between probes, so old samples cannot mask a fresh overload):
//     correction *= exp(gain * clamp(ln(target/p99), -1, 1)), clamped to
//     [correction_min, correction_max], watermark clamped to
//     [shed_floor_bytes, shed_ceiling_bytes].  The target is re-tunable
//     live (telemetry `/adapt?target_p99_ms=`).
//
//   * Measured-capacity re-lowering.  Per link, an EWMA of the
//     supervisor-measured drain rate (only windows with backlog count --
//     an idle link's drain rate says nothing about its capacity) yields a
//     drift ratio measured/configured.  Hysteresis (droop_enter_probes
//     consecutive windows below droop_enter_ratio to enter, droop_exit_*
//     to leave) keeps a transient stall from collapsing fairness shares;
//     while "drooped", effective_capacity_bps() substitutes
//     configured * clamp(ratio, capacity_floor_fraction, 1) and the
//     runtime's fairness_sample() feeds that to the max-min solver, the
//     drift sampler, and the supervisor's Theorem-2 replay alike.
//
// Threading: on_probe() runs on the supervisor's probe thread (or a test
// driving probes directly) and owns all mutable state; cross-thread
// readers (fairness_sample, telemetry, /healthz, /adapt) see atomic
// mirrors only.  set_target_p99_ns() is safe from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "fault/supervisor.hpp"
#include "util/json.hpp"
#include "util/latency_histogram.hpp"
#include "util/time.hpp"

namespace midrr::telemetry {
class MetricsRegistry;
}

namespace midrr::fault {

class FaultPlanRecorder;

struct AdaptOptions {
  /// Objective for adaptive shedding; 0 leaves the watermark alone (the
  /// capacity-drift half of the loop still runs).
  SimDuration target_p99_ns = 0;
  /// Watermark clamps: the floor keeps a mis-measured slow shard from
  /// shedding everything; the ceiling bounds memory under a huge target.
  std::uint64_t shed_floor_bytes = 4 * 1024;
  std::uint64_t shed_ceiling_bytes = 64ull * 1024 * 1024;
  /// Multiplicative-correction loop gain (per probe window).
  double gain = 0.25;
  double correction_min = 0.125;
  double correction_max = 4.0;
  /// Windowed-p99 updates need at least this many new samples; thinner
  /// windows keep the previous correction (no decisions on noise).
  std::uint64_t min_window_samples = 8;
  /// Drain-rate EWMA weight for the newest probe window.
  double ewma_alpha = 0.3;
  /// Capacity-droop hysteresis: enter below `droop_enter_ratio` for
  /// `droop_enter_probes` consecutive backlogged windows, leave above
  /// `droop_exit_ratio` for `droop_exit_probes`.
  double droop_enter_ratio = 0.70;
  double droop_exit_ratio = 0.90;
  std::uint32_t droop_enter_probes = 3;
  std::uint32_t droop_exit_probes = 3;
  /// Re-lowered capacity never drops below this fraction of configured
  /// (shares degrade gracefully; they do not collapse to zero).
  double capacity_floor_fraction = 0.05;
};

class AdaptiveController {
 public:
  /// `rt` must outlive the controller.  Link slots are sized once from
  /// rt.iface_count().
  AdaptiveController(SupervisedRuntime& rt, AdaptOptions options);

  AdaptiveController(const AdaptiveController&) = delete;
  AdaptiveController& operator=(const AdaptiveController&) = delete;

  /// Mirrors droop episodes and shed engage/disengage edges into a
  /// recorder.  Probe-thread use only; set before probing starts.
  void set_recorder(FaultPlanRecorder* recorder) { recorder_ = recorder; }

  /// One adaptation pass; called by the supervisor after each link probe
  /// with that window's measured per-link drain rates and link verdicts.
  /// `window_s <= 0` (first probe) only seeds baselines.
  void on_probe(SimTime now, double window_s,
                const std::vector<double>& measured_bps,
                const std::vector<LinkState>& states);

  /// Closes any open droop episodes into the recorder (call once at
  /// shutdown, after the supervisor stopped probing).
  void finalize(SimTime now);

  /// Live re-tune of the shedding objective (any thread); 0 disables.
  void set_target_p99_ns(SimDuration target);
  SimDuration target_p99_ns() const {
    return target_p99_ns_.load(std::memory_order_relaxed);
  }

  // --- Cross-thread mirrors ----------------------------------------------

  /// Capacity the fairness program should believe for `iface`:
  /// `configured_bps` while healthy, re-lowered while drooped.  Safe from
  /// any thread (fairness_sample on the control-plane path calls this).
  double effective_capacity_bps(IfaceId iface, double configured_bps) const;

  /// Latest measured/configured drain ratio EWMA (1.0 until judged).
  double drift_ratio(IfaceId iface) const;
  bool drooped(IfaceId iface) const;

  std::uint64_t current_shed_bytes() const {
    return shed_bytes_mirror_.load(std::memory_order_relaxed);
  }
  /// True while some shard's backlog sits at/above the watermark (the
  /// runtime's shedding arm condition).
  bool shed_active() const {
    return shed_active_.load(std::memory_order_relaxed) != 0;
  }
  double windowed_p99_ns() const {
    return windowed_p99_ns_.load(std::memory_order_relaxed);
  }
  double correction() const {
    return correction_mirror_.load(std::memory_order_relaxed);
  }
  std::uint64_t updates() const {
    return updates_.load(std::memory_order_relaxed);
  }
  std::uint64_t retunes() const {
    return retunes_.load(std::memory_order_relaxed);
  }
  std::uint64_t droop_enters() const {
    return droop_enters_.load(std::memory_order_relaxed);
  }
  std::uint64_t droop_exits() const {
    return droop_exits_.load(std::memory_order_relaxed);
  }
  std::uint64_t shed_engages() const {
    return shed_engages_.load(std::memory_order_relaxed);
  }

  /// The /adapt body, which the midrr_rt report embeds as its "adapt"
  /// block: loop state, the runtime's applied watermark, and per interface
  /// {name, drift_ratio, drooped}.  Safe from any thread.
  void write_json(JsonWriter& out) const;

  /// Registers midrr_adapt_* and midrr_supervisor_capacity_drift_ratio;
  /// `registry` must outlive this.
  void register_metrics(telemetry::MetricsRegistry& registry);

 private:
  struct Link {
    // Probe-thread-owned.
    double ewma_bps = -1.0;  ///< < 0 = no backlogged window judged yet
    double min_ratio = 1.0;  ///< lowest ratio seen in the open droop
    std::uint32_t low_streak = 0;
    std::uint32_t high_streak = 0;
    bool drooped = false;
    SimTime droop_since = 0;
    // Cross-thread mirrors.
    std::atomic<double> ratio{1.0};
    std::atomic<std::uint8_t> drooped_mirror{0};
  };

  void update_drift(SimTime now, const std::vector<double>& measured_bps,
                    const std::vector<LinkState>& states);
  void update_shedding(SimTime now, const std::vector<LinkState>& states);
  void close_droop(IfaceId iface, Link& link, SimTime now);
  /// Windowed traced p99 in ns from bucket-count deltas since the last
  /// probe; < 0 when the window holds too few samples to judge.
  double windowed_p99();

  SupervisedRuntime& rt_;
  AdaptOptions options_;
  FaultPlanRecorder* recorder_ = nullptr;  ///< probe-thread only

  std::vector<Link> links_;
  LatencySnapshot prev_e2e_;   ///< last cumulative e2e snapshot
  double correction_ = 1.0;    ///< probe-thread owned

  std::atomic<SimDuration> target_p99_ns_;
  std::atomic<std::uint64_t> shed_bytes_mirror_{0};
  std::atomic<std::uint8_t> shed_active_{0};
  std::atomic<double> windowed_p99_ns_{0.0};
  std::atomic<double> correction_mirror_{1.0};
  std::atomic<std::uint64_t> updates_{0};
  std::atomic<std::uint64_t> retunes_{0};
  std::atomic<std::uint64_t> droop_enters_{0};
  std::atomic<std::uint64_t> droop_exits_{0};
  std::atomic<std::uint64_t> shed_engages_{0};
};

}  // namespace midrr::fault
