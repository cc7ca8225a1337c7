// FaultInjector: compiles a FaultPlan into per-target timelines and serves
// them to the runtime's hot paths behind zero-cost-when-disabled seams.
//
// Determinism: everything the injector answers is a pure function of
// (plan, topology, now_ns) plus a seeded Rng owned by the CALLER for the
// probabilistic ingress faults -- each ingress port forks its own stream
// from plan.seed, so a run's fault sequence is reproducible per producer
// regardless of thread interleaving.
//
// Hot-path cost model: the runtime holds a `FaultInjector*` that is null
// in production; every seam is one pointer test.  When armed, interface
// queries are an amortized-O(1) cursor walk over a precompiled piecewise
// timeline (the worker owns the cursor), and ingress sampling is a binary
// search over a handful of windows (empty-vector early-out when the plan
// has no ingress faults).
//
// Worker stalls double as the SAFE POINT for watchdog-driven restarts: a
// stalled worker is parked inside maybe_stall() holding no locks and
// touching no runtime state, so the watchdog can -- under the injector's
// stall mutex -- bump the worker's generation and spawn a replacement
// thread, knowing the old thread will observe the new generation before it
// touches anything (see begin_restart / Runtime::restart_worker).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace midrr::telemetry {
class MetricsRegistry;
class FlightLog;
}  // namespace midrr::telemetry

namespace midrr::fault {

/// What an ingress offer should suffer right now.
enum class IngressAction : std::uint8_t { kNone, kDrop, kDup, kDelay };

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Compiles the plan against a concrete topology.  Called by
  /// Runtime::start(); events targeting out-of-range interfaces or workers
  /// throw here (a plan written for 8 interfaces run against 4 is a bug).
  void attach(std::size_t iface_count, std::size_t worker_count);
  bool attached() const { return attached_; }

  const FaultPlan& plan() const { return plan_; }

  // --- Interface capacity overlay ---------------------------------------

  /// The capacity multiplier in effect for `iface` at `now` (1.0 healthy,
  /// 0.0 dead, in between for collapses).  Amortized O(1): `cursor` is
  /// owned by the calling worker and advanced monotonically.
  double iface_scale(IfaceId iface, SimTime now, std::size_t& cursor) const;

  /// Snapshot form (no cursor); O(log points).  For tests and supervision.
  double iface_scale_at(IfaceId iface, SimTime now) const;

  /// Counts a scale transition a worker applied (the worker logs it into
  /// its own flight lane).
  void note_iface_transition() {
    iface_transitions_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Worker stalls & the restart safe point ----------------------------

  enum class StallOutcome : std::uint8_t {
    kNotStalled,  ///< no stall window covers `now`
    kResumed,     ///< parked and released; continue the drain loop
    kSuperseded,  ///< generation changed while parked; EXIT without
                  ///< touching any runtime state (a replacement runs)
  };

  /// Worker `w`'s safe point, called at the top of its loop.  If a stall
  /// window covers `now`, parks the calling thread until the window ends,
  /// a restart preempts it, or release_all() (shutdown).  `generation` is
  /// the worker's slot generation; `my_generation` the value this thread
  /// was spawned with.  A stall is logged into the worker's own flight
  /// `lane` (if any) before the thread parks.
  StallOutcome maybe_stall(std::uint32_t worker, SimTime now,
                           const std::atomic<std::uint64_t>& generation,
                           std::uint64_t my_generation,
                           telemetry::FlightLog* lane = nullptr);

  /// True while worker `w` is parked inside maybe_stall (racy peek for
  /// telemetry; the authoritative check happens inside begin_restart).
  bool worker_in_stall(std::uint32_t worker) const;

  /// Watchdog half of the restart protocol: if worker `w` is provably
  /// parked at the safe point, bumps `generation` and wakes it so it exits
  /// as kSuperseded, and returns true -- the caller may then spawn a
  /// replacement thread for the slot.  Returns false (doing nothing) when
  /// the worker is not at the safe point; a thread wedged in arbitrary
  /// code cannot be restarted safely in-process.
  bool begin_restart(std::uint32_t worker,
                     std::atomic<std::uint64_t>& generation);

  /// Wakes every parked worker (shutdown); stalls become no-ops after.
  void release_all();

  // --- Ingress faults -----------------------------------------------------

  /// True if the plan contains any ingress_drop/dup/delay events (ports
  /// skip sampling entirely otherwise).
  bool has_ingress_faults() const { return has_ingress_; }

  /// Samples the fate of one offer at `now` using the caller's stream.
  /// On kDelay, `delay_ns` receives the hold duration.  Counters for the
  /// chosen action are bumped here.
  IngressAction sample_ingress(SimTime now, Rng& rng, SimDuration& delay_ns);

  /// Derives the deterministic per-producer ingress RNG stream.
  Rng fork_ingress_rng(std::size_t producer) const {
    return Rng(plan_.seed * 0x9E3779B97F4A7C15ull + producer + 1);
  }

  // --- Pool exhaustion ----------------------------------------------------

  bool has_pool_faults() const { return !pool_windows_.empty(); }

  /// True while a pool_exhaust window covers `now`; the caller must fail
  /// the acquire and call note_pool_reject().
  bool pool_exhausted(SimTime now) const;
  void note_pool_reject() {
    pool_rejects_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Telemetry & introspection -----------------------------------------

  std::uint64_t ingress_drops() const {
    return ingress_drops_.load(std::memory_order_relaxed);
  }
  std::uint64_t ingress_dups() const {
    return ingress_dups_.load(std::memory_order_relaxed);
  }
  std::uint64_t ingress_delays() const {
    return ingress_delays_.load(std::memory_order_relaxed);
  }
  std::uint64_t pool_rejects() const {
    return pool_rejects_.load(std::memory_order_relaxed);
  }
  std::uint64_t stalls_entered() const {
    return stalls_entered_.load(std::memory_order_relaxed);
  }
  std::uint64_t iface_transitions() const {
    return iface_transitions_.load(std::memory_order_relaxed);
  }

  /// Registers midrr_fault_* series; `registry` must outlive the injector.
  void register_metrics(telemetry::MetricsRegistry& registry);

  /// The compiled (time, scale) timeline for one interface (tests).
  const std::vector<std::pair<SimTime, double>>& iface_timeline(
      IfaceId iface) const;

 private:
  struct Window {
    SimTime begin = 0;
    SimTime end = 0;
    double probability = 0.0;
    SimDuration delay_ns = 0;
  };

  struct WorkerStalls {
    std::vector<Window> windows;  ///< merged, sorted
    std::size_t cursor = 0;       ///< owned by the worker slot's thread
    bool in_stall = false;        ///< guarded by stall_mu_
    bool preempt = false;         ///< guarded by stall_mu_
  };

  static const Window* find_window(const std::vector<Window>& windows,
                                   SimTime now);

  FaultPlan plan_;
  bool attached_ = false;
  bool has_ingress_ = false;

  std::vector<std::vector<std::pair<SimTime, double>>> iface_points_;
  std::vector<WorkerStalls> worker_stalls_;
  std::vector<Window> drop_windows_;
  std::vector<Window> dup_windows_;
  std::vector<Window> delay_windows_;
  std::vector<Window> pool_windows_;

  mutable std::mutex stall_mu_;
  std::condition_variable stall_cv_;
  bool released_ = false;  ///< guarded by stall_mu_

  std::atomic<std::uint64_t> ingress_drops_{0};
  std::atomic<std::uint64_t> ingress_dups_{0};
  std::atomic<std::uint64_t> ingress_delays_{0};
  std::atomic<std::uint64_t> pool_rejects_{0};
  std::atomic<std::uint64_t> stalls_entered_{0};
  std::atomic<std::uint64_t> iface_transitions_{0};
};

}  // namespace midrr::fault
