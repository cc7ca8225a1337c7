// Runtime: the sharded real-time (wall-clock) execution engine.
//
// The discrete-event simulator answers "is the policy fair?"; the runtime
// answers "does the implementation serve packets, concurrently, at rate?".
// It runs any library Scheduler behind real threads:
//
//   producers (P threads, external or LoadGenerator)
//       |  lock-free SPSC ingress rings, one per (shard, producer)
//       v
//   fan-in stage (run by each shard's home worker): batches ring contents
//       into the shard's scheduler under the shard mutex
//       v
//   shard schedulers (S instances of any midrr::Scheduler; interfaces are
//       partitioned round-robin across shards)
//       v
//   per-interface drain loops (W worker threads; each interface belongs to
//       exactly one worker): token-bucket pacer -> dequeue_burst under the
//       shard mutex -> out-of-lock latency/throughput accounting
//
// Sharding semantics: within a shard the policy is bit-for-bit the paper's
// (miDRR service flags couple all of the shard's interfaces).  Flows whose
// preference row spans shards are registered in each hosting shard and
// their packets are spread round-robin across those shards; coupling
// ACROSS shards is deliberately absent, trading global max-min optimality
// for linear scalability.  `shards = 1` (the default) preserves the
// paper's semantics exactly while still using W workers; `shards = W` is
// the fully sharded configuration the throughput bench sweeps.
//
// Locking order (strict): shard mutex is a leaf -- nothing else is
// acquired under it.  Control-plane writers take ControlPlane::mu_, then
// shard mutexes one at a time.  RCU read guards are never held across a
// shard mutex acquisition by producers (IngressPort routes, then pushes).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/supervisor.hpp"
#include "flow/packet.hpp"
#include "io/egress.hpp"
#include "io/sim_backend.hpp"
#include "runtime/control_plane.hpp"
#include "runtime/pacer.hpp"
#include "runtime/spsc_ring.hpp"
#include "sched/scheduler.hpp"
#include "sim/rate_profile.hpp"
#include "telemetry/fairness_drift.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/metrics_observer.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/stage_latency.hpp"
#include "util/latency_histogram.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace midrr::rt {

struct RuntimeOptions {
  Policy policy = Policy::kMiDrr;     ///< kOracle is not supported here
  SchedulerOptions sched{};           ///< observer must stay null
  std::size_t workers = 1;            ///< drain threads (>= 1)
  std::size_t shards = 1;             ///< scheduler instances (>= 1)
  std::size_t producers = 1;          ///< ingress rings per shard (>= 1)
  std::size_t ring_capacity = 4096;   ///< per ingress ring (rounded to 2^k)
  /// Max packets pulled from ONE ingress ring per fan-in pass; bounds the
  /// shard-lock hold time of the fan-in stage (and sizes the batch handed
  /// to Scheduler::enqueue_batch).  Larger batches amortize the lock and
  /// the producer/worker wake handshake; the throughput bench sweeps this
  /// (1024 won on the reference host).  Must stay <= ring_capacity to be
  /// effective -- pulls are clamped by ring occupancy either way.
  std::size_t fanin_batch = 1024;
  std::uint64_t burst_bytes = 64 * 1024;   ///< max bytes per dequeue_burst
  std::uint64_t pacer_depth_bytes = 0;     ///< 0 = auto from peak rate
  std::size_t max_flows = 4096;       ///< flow-id arena bound

  // --- Telemetry (all optional; zero hot-path cost when disabled) --------
  /// When non-null, the runtime registers its counters/gauges/histograms
  /// here at start() and installs a wait-free MetricsObserver per shard
  /// scheduler.  Must outlive the Runtime.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Log micro-events into `flight`'s lanes for the Chrome trace: each
  /// shard's scheduler events (grants, flag skips, sends, drains) into a
  /// lane of its own, and each worker's fan-in and drain spans into a
  /// "workerN spans" lane beside its worker lane.  Requires `flight` and
  /// `metrics` (the shard lanes are written by the MetricsObserver).
  bool trace = false;
  /// Stage-latency attribution: trace every Nth packet of each flow (per
  /// producer) through ring/queue/egress stage histograms.  0 disables
  /// (the hot path then pays one null test per seam); 1 traces everything
  /// (tests).  See telemetry/stage_latency.hpp.
  std::uint32_t stage_sample_every = 0;
  /// Per-class SLO engine fed with every completed stage sample (class
  /// resolved through the control plane's lock-free directory).  Must
  /// outlive the Runtime; bind_class/register_metrics stay the caller's
  /// job.  Requires stage_sample_every > 0 to ever see a sample.
  telemetry::SloEngine* slo = nullptr;
  /// Flight recorder: the process's event log.  The runtime adds one lane
  /// per shard at construction when tracing and one per worker at start(),
  /// and logs lifecycle/drop/pushback events; the caller must add ITS lanes
  /// (supervisor, health) before start() and must not add any afterwards
  /// (the lane list is read lock-free by scrapes).  Must outlive the
  /// Runtime.
  telemetry::FlightRecorder* flight = nullptr;

  // --- Fault tolerance (all optional; one pointer test when disabled) ----
  /// Deterministic fault injector; attached to this runtime's topology at
  /// start().  Must outlive the Runtime.  When null (production), every
  /// fault seam compiles down to a single null test.
  fault::FaultInjector* fault = nullptr;
  /// Admission control at ingress: offers for a shard whose backlog is at
  /// or past this watermark are refused (offer() returns false, counted as
  /// backpressure_rejects).  0 disables.
  std::uint64_t backpressure_bytes = 0;
  /// Overload shedding at fan-in: while a shard's backlog is at or past
  /// this watermark, packets of flows holding at least their weighted fair
  /// share of it are dropped-with-count before enqueue.  Weight-aware by
  /// construction: light flows keep their share, heavy hoarders pay.
  /// 0 disables.  Set shed_bytes > backpressure_bytes to make shedding the
  /// second line of defense rather than the first.
  std::uint64_t shed_bytes = 0;

  // --- Egress (where a drained burst actually goes) ----------------------
  /// The I/O backend every paced dequeue_burst is handed to.  Null (the
  /// default) keeps an internal io::SimBackend -- the historical
  /// pacer-only sink, byte-for-byte identical to the pre-backend drain
  /// loop.  A real backend (io::UdpBackend) may push back: its unsent
  /// tail is parked per interface and retried before the next dequeue,
  /// so packets leave the scheduler exactly once and per-flow order
  /// survives (see io/egress.hpp for the full contract).  Must outlive
  /// the Runtime; attach() is called at start().
  io::EgressBackend* egress = nullptr;
};

/// Aggregated counters; a consistent-enough racy snapshot (every counter is
/// monotone except io_pending, so deltas between two stats() calls are
/// meaningful).
///
/// Conservation identity (asserted by the e2e tests at quiescence):
///   offered == dequeued + fanin_drops + tail_drops + shed_drops
///              + straggler_drops
/// and, now that drain is no longer terminal, the egress split
///   dequeued == sent + io_drops + io_pending + io_inflight
/// where io_pending is the parked-for-retry stash and io_inflight is the
/// completion-driven backend's accepted-but-unresolved population (both 0
/// once stop() has run its final flush; under SimBackend, sent == dequeued
/// always).
struct RuntimeStats {
  std::uint64_t offered = 0;        ///< packets accepted into ingress rings
  std::uint64_t ring_rejects = 0;   ///< offers refused (ring full / no route)
  std::uint64_t enqueued = 0;       ///< packets handed to shard schedulers
  std::uint64_t fanin_drops = 0;    ///< ingress packets for flows gone at fan-in
  std::uint64_t tail_drops = 0;     ///< scheduler queue-capacity drops
  /// Packets pulled out of shard schedulers by drain workers.  NOT
  /// terminal delivery: the burst is handed to the egress backend, which
  /// may send, park for retry, or drop each packet -- see `sent`,
  /// `io_pending`, `io_drops` and the identity above.
  std::uint64_t dequeued = 0;
  std::uint64_t dequeued_bytes = 0;
  std::uint64_t sent = 0;           ///< packets the egress backend delivered
  std::uint64_t sent_bytes = 0;     ///< scheduler bytes of sent packets
  /// Requeue events, in packets: every time the backend pushed a packet
  /// back (EAGAIN/ENOBUFS/partial sendmmsg) it counts here -- a packet
  /// parked three times counts three times (a pressure signal, not a
  /// population; the live stash is io_pending).
  std::uint64_t io_requeued = 0;
  std::uint64_t io_drops = 0;       ///< terminal backend drops (oversize,
                                    ///< hard errno, unflushable at stop)
  std::uint64_t io_pending = 0;     ///< packets parked awaiting retry (gauge)
  /// Packets inside a completion-driven backend (accepted into the kernel
  /// submission queue, completion not yet handed back); 0 for sim/udp and
  /// at quiescence (gauge).
  std::uint64_t io_inflight = 0;
  std::uint64_t io_send_errors = 0; ///< hard transmit syscall failures
  std::uint64_t io_syscalls = 0;    ///< transmit syscalls issued (0 for sim)
  std::uint64_t bursts = 0;         ///< dequeue_burst calls that moved packets
  std::uint64_t parks = 0;          ///< times a worker went to sleep
  std::uint64_t straggler_drops = 0;  ///< queued packets discarded when their
                                      ///< flow left a shard (counted loss)
  std::uint64_t shed_drops = 0;       ///< overload-shed packets (fan-in)
  std::uint64_t backpressure_rejects = 0;  ///< offers refused at watermark
  std::uint64_t quarantine_rejects = 0;    ///< offers for quarantined flows
  std::uint64_t worker_restarts = 0;       ///< watchdog-driven respawns
  std::uint64_t latency_count = 0;  ///< samples behind the quantiles below
  double latency_mean_ns = 0;
  double latency_p50_ns = 0;
  double latency_p90_ns = 0;
  double latency_p99_ns = 0;
  double latency_p999_ns = 0;
};

class Runtime;

/// A producer's handle into the runtime: routes packets to shards via the
/// current RCU snapshot and pushes them into this producer's SPSC rings.
/// One port per producer index, used by exactly one thread at a time.
///
/// Routing is cached per flow and keyed on the control plane's RCU epoch:
/// the common case (stable configuration) costs one epoch load and one
/// array index instead of a full RCU critical section per packet.  A
/// cached route can be stale for the instant between a snapshot swap and
/// its epoch bump; a packet misrouted in that window is dropped by the
/// fan-in straggler check exactly like a packet that was already sitting
/// in a ring when the flow was removed.  Flows spanning more than
/// kRouteFanout shards skip the cache and take the guard path.
class IngressPort {
 public:
  /// Offers a packet for `flow` of `size_bytes`.  Stamps the enqueue
  /// timestamp, routes to a hosting shard (round-robin for multi-shard
  /// flows), pushes, and kicks the shard's home worker if it sleeps.
  /// Returns false -- without blocking -- when the flow has no hosting
  /// shard or the target ring is full (backpressure; the caller retries or
  /// drops).
  bool offer(FlowId flow, std::uint32_t size_bytes) {
    return offer(flow, size_bytes, nullptr);
  }

  /// Same, with a wire frame attached (pooled or heap; see net::FramePool).
  /// The frame rides the Packet through the scheduler and is released --
  /// from whatever thread drains it -- when the last reference drops.
  bool offer(FlowId flow, std::uint32_t size_bytes,
             std::shared_ptr<const net::Frame> frame);

  /// Flushes this port's batched contribution to the runtime-wide
  /// offered/reject counters (RuntimeStats).  Ports batch those updates
  /// (one shared-line RMW per ~256 packets instead of per packet) and
  /// flush on destruction, so runtime-level counts are EXACT once the
  /// port is gone -- and at most one batch stale while it lives.  The
  /// port-local offered()/rejected() accessors are always exact.
  void flush_counters();

  ~IngressPort();  ///< force-flushes delayed packets, then counters
  IngressPort(IngressPort&& other) noexcept
      : rt_(other.rt_),
        producer_(other.producer_),
        reader_(std::move(other.reader_)),
        routes_(std::move(other.routes_)),
        offered_(other.offered_),
        rejected_(other.rejected_),
        pending_offered_(std::exchange(other.pending_offered_, 0)),
        pending_rejects_(std::exchange(other.pending_rejects_, 0)),
        rr_(other.rr_),
        ingress_rng_(other.ingress_rng_),
        delayed_(std::move(other.delayed_)) {
    other.delayed_.clear();  // moved-from must not re-flush them
  }
  IngressPort(const IngressPort&) = delete;
  IngressPort& operator=(const IngressPort&) = delete;
  IngressPort& operator=(IngressPort&&) = delete;

  /// Read access to the current configuration snapshot (for pick-a-flow
  /// loops); never hold the guard across blocking calls.
  Rcu<RuntimeSnapshot>::Reader::Guard snapshot();

  std::uint64_t offered() const { return offered_; }
  std::uint64_t rejected() const { return rejected_; }

 private:
  friend class Runtime;

  /// Routes cached inline per flow; beyond this fan-out the guard path runs
  /// every time (such flows are rare and already pay round-robin spreading).
  static constexpr std::size_t kRouteFanout = 4;

  struct CachedRoute {
    std::uint64_t epoch = 0;  ///< 0 = never filled (epochs start at 1)
    std::uint32_t shards[kRouteFanout] = {};
    std::uint8_t count = 0;          ///< 0 with epoch != 0 = cached no-route
    bool uncacheable = false;        ///< fan-out exceeds kRouteFanout
    bool quarantined = false;        ///< no-route because no live iface
  };

  /// A packet held back by an injected ingress delay; released (in offer
  /// order) once `release_at` passes, force-flushed at port destruction.
  struct Delayed {
    SimTime release_at = 0;
    std::uint32_t shard = 0;
    Packet packet;
  };

  IngressPort(Runtime& rt, std::size_t producer,
              Rcu<RuntimeSnapshot>::Reader reader, std::size_t max_flows);

  /// Pushes into `shard`'s ring with full offer accounting (counters,
  /// Dekker fence, wake).  The terminal step of every accepted offer.
  bool push_to_shard(std::uint32_t shard, Packet&& packet);

  /// Releases every held packet whose delay expired (all of them when
  /// `force`); ring-full releases become counted rejects.
  void flush_delayed(SimTime now, bool force);

  /// Slow path: refresh `routes_[flow]` from the snapshot under an RCU
  /// guard.  `epoch` must have been read BEFORE the guard was taken (a
  /// publish racing the refresh then tags the entry with the older epoch,
  /// which only causes one extra refresh).
  bool refresh_route(FlowId flow, std::uint64_t epoch);

  Runtime& rt_;
  std::size_t producer_;
  Rcu<RuntimeSnapshot>::Reader reader_;
  std::vector<CachedRoute> routes_;  ///< indexed by FlowId
  std::uint64_t offered_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t pending_offered_ = 0;  ///< not yet folded into rt_.offered_
  std::uint64_t pending_rejects_ = 0;
  std::uint64_t rr_ = 0;  ///< round-robin cursor for multi-shard flows
  /// Per-producer deterministic stream for injected ingress faults (forked
  /// from the plan seed at construction; unused when no injector is armed).
  Rng ingress_rng_{0};
  std::vector<Delayed> delayed_;  ///< injected-delay stash (usually empty)
};

class Runtime final : public telemetry::FairnessSource,
                      public fault::SupervisedRuntime,
                      private ShardApplier {
 public:
  explicit Runtime(const RuntimeOptions& options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- Topology (before start) ------------------------------------------

  /// Registers an interface paced by `capacity` (evaluated on the runtime
  /// clock).  Must be called before start().
  IfaceId add_interface(std::string name, RateProfile capacity);

  /// Registers an unpaced interface (drains as fast as the engine allows).
  IfaceId add_interface(std::string name);

  // --- Lifecycle ---------------------------------------------------------

  void start();
  void stop();  ///< idempotent; joins all workers
  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- Control & data plane ---------------------------------------------

  /// Flow add/remove and (Pi, phi) updates; callable before or during a
  /// run, from any thread.
  ControlPlane& control();

  /// One per producer index in [0, options.producers); each port is used
  /// by one thread at a time.
  IngressPort port(std::size_t producer);

  /// Nanoseconds since start() on the runtime's steady clock.
  SimTime now_ns() const override;

  // --- Introspection -----------------------------------------------------

  RuntimeStats stats() const;

  /// Bytes drained for `flow` across all shards and interfaces (the
  /// runtime-level S_i used by the fairness smoke test).
  std::uint64_t sent_bytes(FlowId flow) const;

  std::uint64_t iface_sent_bytes(IfaceId iface) const override;
  std::uint64_t iface_sent_packets(IfaceId iface) const;

  /// Hard transmit errors on `iface`, straight from the egress backend
  /// (0 for SimBackend, or before start()).  Feeds the Supervisor's
  /// send-error link-health verdicts.
  std::uint64_t iface_send_errors(IfaceId iface) const override;

  /// The active egress backend ("sim" unless RuntimeOptions::egress was
  /// set).  Valid after start().
  const io::EgressBackend& egress() const;

  std::size_t shard_count() const override { return shards_.size(); }
  std::size_t worker_count() const override { return workers_.size(); }
  std::size_t iface_count() const override { return ifaces_.size(); }

  /// The armed fault injector, or nullptr (production).  Producers (e.g.
  /// LoadGenerator) use it for the pool-exhaustion seam.
  fault::FaultInjector* fault() const { return options_.fault; }

  // --- SupervisedRuntime (fault::Supervisor's observe/actuate surface) ---
  // Everything here is callable from the supervisor thread concurrently
  // with the data path; construct the Supervisor AFTER start() (worker
  // slots exist only then).

  std::string iface_name(IfaceId iface) const override;
  /// Configured profile rate (bits/s) at `now`; deliberately NOT scaled by
  /// injected faults -- the supervisor must see what the link is SUPPOSED
  /// to do, and detect the rest from observables.  0 for unpaced.
  double iface_configured_bps(IfaceId iface, SimTime now) const override;
  double iface_tokens(IfaceId iface) const override;
  /// Backlog of the shard hosting `iface` (its drain feed).
  std::uint64_t iface_backlog_bytes(IfaceId iface) const override;
  std::uint64_t worker_heartbeat(std::uint32_t worker) const override;
  /// Forwards to ControlPlane::set_iface_down: one RCU re-steer of every
  /// flow willing on `iface` onto its surviving interfaces.
  void set_iface_down(IfaceId iface, bool down) override;
  /// Restarts worker `worker`'s drain loop IF its thread is provably
  /// parked at the fault injector's stall safe point (shard state is then
  /// guaranteed untouched mid-operation).  Returns false otherwise --
  /// including always when no injector is armed.  The superseded thread is
  /// joined at stop().
  bool restart_worker(std::uint32_t worker) override;
  /// Shard hosting `iface` (adaptive shedding aggregates drain capacity
  /// per shard, the unit the watermark actually guards).
  std::uint32_t iface_shard(IfaceId iface) const override;
  /// Cumulative end-to-end stage-latency bucket counts summed over
  /// interfaces; false when no tracer is armed.
  bool sample_e2e_buckets(LatencySnapshot& out) const override;
  /// Live overload-shedding watermark.  Seeded from
  /// RuntimeOptions::shed_bytes; the adaptive controller retunes it while
  /// workers run (drain loops read it per fan-in pass, relaxed).
  std::uint64_t shed_bytes() const override {
    return shed_bytes_.load(std::memory_order_relaxed);
  }
  void set_shed_bytes(std::uint64_t bytes) override {
    shed_bytes_.store(bytes, std::memory_order_relaxed);
  }
  /// Substitutes the controller's re-lowered effective capacities into
  /// fairness_sample() -- one hook that feeds the max-min solver, the
  /// fairness-drift sampler, and the supervisor's Theorem-2 replay alike.
  /// Set before probing starts; the controller must outlive the runtime's
  /// last fairness_sample() call.
  void set_capacity_overlay(const fault::AdaptiveController* overlay) {
    capacity_overlay_.store(overlay, std::memory_order_release);
  }

  // --- Telemetry ----------------------------------------------------------

  /// FairnessSource: the live (Pi, phi, C) + cumulative service state, read
  /// through an RCU guard.  One row per live flow CLASS (weight = per-member
  /// phi, `members` = member count, sent_bytes summed over members via one
  /// directory pass), so the sampler's solver stays O(classes) at a million
  /// registered flows.  Callable from any thread after start(); feeds
  /// telemetry::FairnessDriftSampler.
  telemetry::FairnessSample fairness_sample() override;

  /// The stage-latency tracer (nullptr unless options.stage_sample_every
  /// > 0).  Valid after start(); counters and grids are readable from any
  /// thread while running.
  const telemetry::StageTracer* stage_tracer() const { return tracer_.get(); }

 private:
  friend class IngressPort;

  struct Shard {
    std::mutex mu;  // guards sched + id maps; leaf in the lock order
    std::unique_ptr<Scheduler> sched;
    std::vector<IfaceId> local_of_iface;  // by global IfaceId (pre-start)
    std::vector<FlowId> local_of_flow;    // by global FlowId (guarded by mu)
    std::vector<FlowId> global_of_flow;   // by local FlowId (guarded by mu)
    std::vector<std::unique_ptr<SpscRing<Packet>>> ingress;  // [producer]
    std::vector<IfaceId> ifaces;          // global ids hosted here, by local
                                          // id (pre-start)
    std::uint32_t home_worker = 0;        // runs this shard's fan-in
    std::vector<std::uint32_t> kick_on_enqueue;  // workers owning our ifaces
    // Shed bookkeeping (guarded by mu): live weights by local flow id, and
    // their sum, so fan-in can price a flow's fair share of the backlog
    // without walking the scheduler.
    std::vector<double> weight_of_local;
    double weight_sum = 0.0;
    // Fan-in pass scratch (home worker only, under mu): bytes accepted
    // per local flow WITHIN the current pass.  The scheduler's per-flow
    // backlog only moves at enqueue_batch, after the verdict loop, so
    // without this a single pass would admit up to a whole fan-in batch
    // per flow once the backlog dipped under the watermark -- a sawtooth
    // whose amplitude (the batch, ~1 MB) swamps the watermark the
    // adaptive loop is steering.  Cleared at the end of every pass via
    // the touched list, so cost scales with flows seen, not max_flows.
    std::vector<std::uint64_t> pass_bytes_of_local;
    std::vector<FlowId> pass_touched;
    // Backlog & loss accounting (atomics: fan-in and drain run on
    // different workers, and ingress/supervision read them lock-free).
    alignas(kCacheLine) std::atomic<std::uint64_t> backlog_bytes{0};
    std::atomic<std::uint64_t> straggler_drops{0};  // removed-flow backlog
    // Telemetry (optional; installed at construction, fire under mu).  The
    // observer's callbacks are relaxed increments and, when tracing,
    // wait-free writes into the shard's flight lane -- the one observer
    // shape allowed inside the shard locks.
    std::unique_ptr<telemetry::MetricsObserver> observer;
  };

  struct IfaceRec {
    std::string name;
    IfaceId id = 0;  ///< global id (the index into ifaces_), for attribution
    std::uint32_t shard = 0;
    std::uint32_t worker = 0;
    IfaceId local_id = 0;
    TokenBucketPacer pacer;  // touched only by the owning worker thread
    // Egress retry stash: packets the backend pushed back, already
    // dequeued and pacer-charged.  Owned by the interface's worker
    // thread (single-threaded again during stop()'s final flush); while
    // non-empty, drain_iface retries it INSTEAD of dequeuing, so
    // per-flow order survives and the stash is bounded by one burst.
    std::vector<Packet> pending;
    // Separate line: scrapers read these concurrently with the owning
    // worker's per-burst updates; without the split every scrape would
    // invalidate the pacer's line in the worker's cache.
    alignas(kCacheLine) std::atomic<std::uint64_t> packets{0};
    std::atomic<std::uint64_t> bytes{0};
    // Stash occupancy mirrors for stats()/telemetry (the vector itself is
    // worker-private).
    std::atomic<std::uint64_t> pending_packets{0};
    std::atomic<std::uint64_t> pending_bytes{0};
  };

  struct Worker {
    std::uint32_t index = 0;
    std::thread thread;
    std::vector<IfaceId> ifaces;             // owned (global ids)
    std::vector<std::uint32_t> home_shards;  // shards whose fan-in we run
    // Enqueue -> drain wait per delivered packet; a registry exports this
    // grid in place as midrr_rt_packet_wait_ns.
    LatencyHistogram latency;
    // Hot counters: written per burst by the owning worker, read at scrape
    // rate elsewhere.  Their own line keeps scrapes (and neighbors in this
    // struct) from bouncing the worker's write line.
    alignas(kCacheLine) std::atomic<std::uint64_t> dequeued{0};
    std::atomic<std::uint64_t> dequeued_bytes{0};
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> sent_bytes{0};
    std::atomic<std::uint64_t> io_requeued{0};
    std::atomic<std::uint64_t> io_drops{0};
    std::atomic<std::uint64_t> bursts{0};
    std::atomic<std::uint64_t> enqueued{0};
    std::atomic<std::uint64_t> fanin_drops{0};
    std::atomic<std::uint64_t> tail_drops{0};
    std::atomic<std::uint64_t> shed_drops{0};
    std::atomic<std::uint64_t> parks{0};
    // Liveness: bumped once per loop iteration by the slot's CURRENT
    // thread (parked workers still tick every park slice); a frozen value
    // is the watchdog's stall signal.  `generation` names which spawned
    // thread owns the slot -- bumped under the injector's stall mutex by
    // begin_restart, so a superseded thread provably observes it before
    // touching any runtime state.
    std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<std::uint64_t> generation{0};
    /// Flight-recorder lane (null unless RuntimeOptions::flight): the
    /// worker's lifecycle, faults, drop runs and I/O pushback.  Written by
    /// the slot's CURRENT thread only; a superseded thread logs nothing
    /// after observing kSuperseded, so the single-writer contract holds
    /// across watchdog restarts.
    telemetry::FlightLog* flight = nullptr;
    /// The worker's fan-in and drain spans (null unless tracing), on a lane
    /// of their own so packet-rate spans never overwrite the transitions
    /// in `flight`.  Same writer contract.
    telemetry::FlightLog* spans = nullptr;
    /// Fan-in drops not yet in `flight`, one run per kind (shed, straggler,
    /// tail): the stamps of the first and latest dropping pass since the
    /// kind's last logged run, its packets and passes.  Same writer as
    /// `flight`.
    struct DropRun {
      SimTime first = 0, last = 0;
      std::uint64_t packets = 0, passes = 0;
    };
    std::array<DropRun, 3> drop_runs{};
    /// Per-packet verdict scratch for EgressBackend::send_burst (owned by
    /// the worker thread; reused across bursts, never shrunk).
    std::vector<io::SendDisposition> dispositions;
    /// Resolved-completion scratch for EgressBackend::poll_completions /
    /// reclaim_inflight (owned by the worker thread; reused, never shrunk).
    std::vector<io::EgressCompletion> completions;
    // Parking: kicked is the wakeup token, asleep gates the notify.
    // `asleep` gets its own line: every producer polls it once per offer
    // (the Dekker-style sleep check in IngressPort::offer), and sharing a
    // line with the counters above would turn each worker counter bump
    // into an invalidation of every producer's polled copy.
    std::mutex park_mu;
    std::condition_variable park_cv;
    alignas(kCacheLine) std::atomic<bool> asleep{false};
    std::atomic<bool> kicked{false};
  };

  // ShardApplier (control plane -> data plane, takes shard locks).
  void shard_add_flows(std::uint32_t shard, std::span<const FlowId> flows,
                       const RtFlowSpec& spec,
                       const std::vector<IfaceId>& willing_subset) override;
  void shard_remove_flow(std::uint32_t shard, FlowId flow) override;
  void shard_set_weight(std::uint32_t shard, FlowId flow,
                        double weight) override;
  void shard_set_willing(std::uint32_t shard, FlowId flow, IfaceId iface,
                         bool value) override;

  void worker_main(std::uint32_t w, std::uint64_t my_generation);
  bool drain_ingress(std::uint32_t shard_index, Worker& me,
                     std::vector<Packet>& scratch);
  bool drain_iface(IfaceId iface, Worker& me, std::vector<Packet>& burst);
  /// Logs each of the worker's drop runs once it has been open for
  /// kDropRunNs -- or every open run, when `all` (worker exit) -- so a
  /// lane holds at most one run per kind per kDropRunNs.
  void log_drop_runs(Worker& me, bool all);
  /// Delivery-side accounting for ONE packet the backend reported sent:
  /// latency sample, per-flow and per-interface service counters.
  void account_sent(IfaceRec& rec, Worker& me, const Packet& packet,
                    SimTime sent_at);
  /// One retry attempt for `iface`'s parked tail; returns true when any
  /// packet left the stash (sent, terminally dropped, or accepted in
  /// flight by a completion-driven backend).
  bool send_pending(IfaceId iface, Worker& me);
  /// Harvests resolved completions from a completion-driven backend and
  /// accounts each (sent / dropped / parked in the stash).  Returns true
  /// when any completion was processed.  Owning worker only.
  bool reap_egress(IfaceId iface, Worker& me);
  /// Accounting for the completions staged in `me.completions` (the tail
  /// of reap_egress, shared with flush_egress's reclaim pass).
  void absorb_completions(IfaceId iface, Worker& me);
  /// Stage-trace completion for one delivered packet: fold the stage
  /// durations into `iface`'s histograms and feed the SLO engine.  No-op
  /// for untraced packets; call only when tracer_ is non-null.
  void complete_trace(const Packet& packet, IfaceId iface, SimTime sent_at);
  /// The traced packet died before delivery (injected drop, reject, shed,
  /// straggler, io drop): pure accounting.  Safe on untraced packets.
  void drop_trace(const Packet& packet) {
    if (tracer_ != nullptr && packet.trace != 0) {
      tracer_->drop_sample(packet.trace);
    }
  }
  /// stop()-time bounded retry of every stash; the remainder becomes
  /// counted io_drops (never silent loss).  Single-threaded.
  void flush_egress();
  void register_metrics();  ///< start()-time, when options_.metrics is set
  void park(Worker& me, SimTime hint_ns);
  void kick(std::uint32_t worker);
  /// Producer-side wakeup: only touches the worker's park machinery when
  /// its `asleep` flag reads true.  Callers must issue a seq_cst fence
  /// between publishing work (the ring push) and calling this -- it pairs
  /// with the fence in park() so either the producer sees `asleep` or the
  /// parking worker sees the pushed packet (Dekker).
  void kick_if_asleep(std::uint32_t worker);
  bool ingress_pending(const Worker& me) const;

  RuntimeOptions options_;
  /// Stage-latency tracer; created at start() when stage_sample_every > 0
  /// (one claim lane per producer).  Null = tracing off, every seam is a
  /// single null test.
  std::unique_ptr<telemetry::StageTracer> tracer_;
  /// The default pacer-only sink; egress_ points here unless options_
  /// supplied a backend.  Bound at start().
  io::SimBackend sim_backend_;
  io::EgressBackend* egress_ = nullptr;
  /// Cached egress_->completion_driven() (bound at start(): the drain loop
  /// polls completions at the top of every pass only when true).
  bool egress_completion_driven_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<IfaceRec>> ifaces_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::atomic<std::uint64_t>> sent_by_flow_;  // [max_flows]
  // Each global counter on its own line: every producer hits offered_ per
  // packet, and co-locating it with ring_rejects_ / running_ (read by all
  // workers per loop) would couple unrelated threads' write sets.
  alignas(kCacheLine) std::atomic<std::uint64_t> offered_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> ring_rejects_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> backpressure_rejects_{0};
  std::atomic<std::uint64_t> quarantine_rejects_{0};
  std::atomic<std::uint64_t> worker_restarts_{0};
  // Live shedding watermark (seeded from options, retuned by the adaptive
  // controller) and the capacity overlay for fairness_sample().
  std::atomic<std::uint64_t> shed_bytes_{0};
  std::atomic<const fault::AdaptiveController*> capacity_overlay_{nullptr};
  // Restart bookkeeping: serializes restart_worker against stop(), and
  // holds superseded threads until stop() can join them.
  std::mutex restart_mu_;
  std::vector<std::thread> retired_;  ///< guarded by restart_mu_
  // Rate limiters for hot-path warnings (at most one line per second each;
  // suppressed occurrences are reported on the next emitted line).
  LogRateLimiter ring_full_warn_{std::chrono::seconds(1)};
  LogRateLimiter straggler_warn_{std::chrono::seconds(1)};
  std::unique_ptr<ControlPlane> control_;  // built lazily at start()
  std::atomic<bool> running_{false};
  bool started_ = false;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace midrr::rt
