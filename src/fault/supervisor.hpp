// Supervisor: graceful degradation and worker supervision as a policy
// layer over observable runtime state.
//
// The supervisor deliberately has no access to the FaultInjector's ground
// truth.  It watches the same things an operator's dashboards would --
// per-interface drained bytes, pacer token movement, shard backlog, worker
// heartbeats -- and drives the runtime through the narrow SupervisedRuntime
// interface:
//
//   * Link health: an interface whose profile says it should be moving
//     bytes, while its hosting shard holds backlog and nothing drains, is
//     suspect; `dead_after_probes` consecutive silent probes declare it
//     dead and trigger one RCU re-steer (ControlPlane::set_iface_down) that
//     moves every affected flow onto its surviving Pi-permitted
//     interfaces; flows with no surviving interface are quarantined, and
//     their offers are rejected-with-count upstream.  Recovery is the
//     mirror image with `healthy_after_probes` of hysteresis (a flapping
//     radio is ridden out at the detector, not replayed into the control
//     plane at flap frequency): a dead link whose token bucket starts
//     moving again -- death requires the bucket to have run dry against
//     backlog, so motion is a real signal -- is revived and its flows
//     re-steered back.
//   * Theorem-2 replay: after every verdict the supervisor re-solves the
//     weighted max-min program on the SURVIVING interface set and checks
//     the paper's clustering conditions on the reference allocation -- the
//     degraded system should still be a valid miDRR instance, just a
//     smaller one.  Violations are counted and kept as a verdict string.
//   * Worker supervision: a worker whose heartbeat freezes for
//     `worker_stall_probes` probes gets a restart attempt.  The restart is
//     only taken when the runtime can PROVE the thread is parked at the
//     fault injector's safe point (see FaultInjector::begin_restart); a
//     thread wedged in arbitrary code is refused and counted -- restarting
//     it blind would corrupt shard state.
//
// One background thread, probe-driven; all verdict state is plain fields
// owned by that thread, with atomics mirroring what other threads read.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "telemetry/fairness_drift.hpp"
#include "telemetry/flight_recorder.hpp"
#include "util/latency_histogram.hpp"
#include "util/time.hpp"

namespace midrr::fault {

/// What the supervisor may observe and actuate.  Implemented by
/// rt::Runtime; a mock in tests drives the state machine without threads.
/// Everything here must be callable from the supervisor thread
/// concurrently with the data path.
class SupervisedRuntime {
 public:
  virtual ~SupervisedRuntime() = default;

  virtual std::size_t iface_count() const = 0;
  virtual std::size_t worker_count() const = 0;
  virtual SimTime now_ns() const = 0;

  // --- Observables --------------------------------------------------------

  virtual std::string iface_name(IfaceId iface) const = 0;
  virtual std::uint64_t iface_sent_bytes(IfaceId iface) const = 0;
  /// Configured capacity (bits/s) of the interface's rate profile at
  /// `now`; 0 for unpaced interfaces (which are never declared dead -- an
  /// unpaced link has no "should be moving" baseline).
  virtual double iface_configured_bps(IfaceId iface, SimTime now) const = 0;
  /// Token-bucket balance mirror (may be negative: pacer debt).
  virtual double iface_tokens(IfaceId iface) const = 0;
  /// Bytes queued in the shard hosting this interface.
  virtual std::uint64_t iface_backlog_bytes(IfaceId iface) const = 0;
  /// Monotone per-loop tick of the worker's drain loop.
  virtual std::uint64_t worker_heartbeat(std::uint32_t worker) const = 0;
  /// Cumulative hard transmit errors reported by the egress backend for
  /// this interface.  Defaulted to 0 so pacer-only runtimes (and mocks)
  /// need not implement it; real I/O backends feed it, and a sustained
  /// error rate marks the link suspect (degraded) without killing it.
  virtual std::uint64_t iface_send_errors(IfaceId iface) const {
    (void)iface;
    return 0;
  }
  /// Shard topology, for per-shard drain-capacity aggregation by the
  /// adaptive controller.  Defaulted to a single shard so mocks and
  /// pacer-only runtimes need not implement it.
  virtual std::size_t shard_count() const { return 1; }
  virtual std::uint32_t iface_shard(IfaceId iface) const {
    (void)iface;
    return 0;
  }
  /// Cumulative end-to-end stage-latency bucket counts, summed over
  /// interfaces; false when no tracer is wired.  The adaptive controller
  /// diffs successive snapshots for windowed p99.
  virtual bool sample_e2e_buckets(LatencySnapshot& out) const {
    (void)out;
    return false;
  }

  // --- Actuation ----------------------------------------------------------

  virtual void set_iface_down(IfaceId iface, bool down) = 0;
  /// Attempts a safe in-process restart of worker `worker`'s drain loop;
  /// false when the thread is not provably parked at a safe point.
  virtual bool restart_worker(std::uint32_t worker) = 0;
  /// Current / new overload-shedding byte watermark (0 = shedding off).
  /// Defaulted no-ops so mocks without an overload path stay valid.
  virtual std::uint64_t shed_bytes() const { return 0; }
  virtual void set_shed_bytes(std::uint64_t bytes) { (void)bytes; }
};

struct SupervisorOptions {
  SimDuration probe_interval_ns = 5 * kMillisecond;
  /// Consecutive silent probes (backlog, no drain) before declaring dead.
  std::uint32_t dead_after_probes = 3;
  /// Consecutive alive probes before reviving a dead interface.
  std::uint32_t healthy_after_probes = 4;
  /// Token balance that counts as "the pacer is moving again" for a dead
  /// link (one MTU by default).
  double revive_tokens = 1500.0;
  /// Measured drain below this fraction of configured capacity (with
  /// backlog present) marks a link degraded (suspect) without killing it.
  double degraded_fraction = 0.10;
  /// Egress send errors accumulating in at least this many consecutive
  /// probe windows mark the link suspect (degraded) -- the socket is
  /// rejecting work even if the pacer looks normal.  Recovery is the
  /// usual hysteresis once the error counter stops moving.  0 disables.
  std::uint32_t send_error_probes = 2;
  /// Heartbeat frozen for this many probes triggers a restart attempt.
  std::uint32_t worker_stall_probes = 8;
  bool restart_stalled_workers = true;
  /// Re-run the Theorem-2 clustering check after each link verdict (needs
  /// `fairness`).
  bool replay_clustering = true;
};

enum class LinkState : std::uint8_t { kHealthy = 0, kSuspect = 1, kDead = 2 };
const char* to_string(LinkState state);

class AdaptiveController;
class FaultPlanRecorder;

class Supervisor {
 public:
  /// `fairness` may be null (disables the Theorem-2 replay); both it and
  /// `rt` must outlive the supervisor.
  Supervisor(SupervisedRuntime& rt, SupervisorOptions options,
             telemetry::FairnessSource* fairness = nullptr);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  void start();
  void stop();  ///< idempotent; joins the probe thread

  /// One probe pass over every link and worker; called by the probe thread
  /// each interval, and directly by deterministic tests (no thread).
  void probe();

  LinkState link_state(IfaceId iface) const {
    return static_cast<LinkState>(
        state_mirror_[iface].load(std::memory_order_relaxed));
  }
  bool any_degraded() const;

  std::uint64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }
  std::uint64_t restarts_attempted() const {
    return restarts_attempted_.load(std::memory_order_relaxed);
  }
  std::uint64_t restarts_succeeded() const {
    return restarts_succeeded_.load(std::memory_order_relaxed);
  }
  std::uint64_t restarts_refused() const {
    return restarts_refused_.load(std::memory_order_relaxed);
  }
  std::uint64_t clustering_checks() const {
    return clustering_checks_.load(std::memory_order_relaxed);
  }
  std::uint64_t clustering_violations() const {
    return clustering_violations_.load(std::memory_order_relaxed);
  }

  /// Last Theorem-2 verdict ("" = consistent); probe-thread written,
  /// mutex-guarded.
  std::string last_clustering_verdict() const;

  /// Registers midrr_supervisor_* series; `registry` must outlive this.
  void register_metrics(telemetry::MetricsRegistry& registry);

  /// Mirrors link verdicts into a flight-recorder lane.  The lane is
  /// written only by the probe thread (single-writer contract); set it
  /// before start() and leave it for the supervisor's lifetime.
  void set_flight_log(telemetry::FlightLog* log) { flight_ = log; }

  /// Drives an adaptive controller's on_probe() from each link probe with
  /// the window's measured drain rates and verdicts.  Set before start().
  void set_adaptive(AdaptiveController* adapt) { adapt_ = adapt; }

  /// Mirrors dead/revive edges and observed worker stalls into a FaultPlan
  /// recorder.  Set before start().
  void set_recorder(FaultPlanRecorder* recorder) { recorder_ = recorder; }

  /// Ordered terminal link verdicts ("name:dead" / "name:revived"), the
  /// record->replay determinism signature.  Suspect flicker is excluded on
  /// purpose: it is timing-sensitive, terminal verdicts are not.
  std::vector<std::string> verdict_sequence() const;

  /// Copy of the verdict/event log (probe-thread written, wall order).
  std::vector<FaultLogEntry> log() const;

  /// Renders the event log as instant events under `pid`.
  void export_trace(telemetry::ChromeTraceBuilder& builder,
                    std::uint32_t pid) const;

 private:
  struct LinkHealth {
    LinkState state = LinkState::kHealthy;
    std::uint32_t bad_probes = 0;
    std::uint32_t good_probes = 0;
    std::uint32_t error_probes = 0;  ///< consecutive windows with new
                                     ///< egress send errors
    std::uint64_t last_bytes = 0;
    std::uint64_t last_send_errors = 0;
    double last_tokens = 0.0;
  };
  struct WorkerHealth {
    std::uint64_t last_heartbeat = 0;
    std::uint32_t frozen_probes = 0;
  };

  void probe_links(SimTime now);
  void probe_workers();
  void transition(IfaceId iface, LinkHealth& health, LinkState to,
                  SimTime now);
  void replay_clustering(SimTime now);
  void append_log(SimTime at, std::string what);
  void supervise_main();

  SupervisedRuntime& rt_;
  SupervisorOptions options_;
  telemetry::FairnessSource* fairness_;
  telemetry::FlightLog* flight_ = nullptr;    ///< probe-thread only
  AdaptiveController* adapt_ = nullptr;       ///< probe-thread only
  FaultPlanRecorder* recorder_ = nullptr;     ///< probe-thread only

  // Probe-thread-owned verdict state; mirrors for cross-thread readers.
  std::vector<LinkHealth> links_;
  std::vector<WorkerHealth> workers_;
  std::vector<std::atomic<std::uint8_t>> state_mirror_;
  SimTime last_probe_ns_ = -1;

  std::atomic<std::uint64_t> transitions_{0};
  std::atomic<std::uint64_t> restarts_attempted_{0};
  std::atomic<std::uint64_t> restarts_succeeded_{0};
  std::atomic<std::uint64_t> restarts_refused_{0};
  std::atomic<std::uint64_t> clustering_checks_{0};
  std::atomic<std::uint64_t> clustering_violations_{0};

  mutable std::mutex verdict_mu_;
  std::string clustering_verdict_;
  std::vector<FaultLogEntry> log_;
  std::vector<std::string> verdicts_;  ///< guarded by verdict_mu_

  std::thread thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stopping_ = false;  ///< guarded by wake_mu_
  std::atomic<bool> running_{false};
};

}  // namespace midrr::fault
