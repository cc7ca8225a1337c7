// Scheduler: the common contract and shared machinery for every packet
// scheduling policy in this library.
//
// A Scheduler owns the preference state (Pi, phi), one FIFO queue per flow,
// and the service accounting needed to verify fairness.  The data-path
// contract is the paper's: `dequeue(j, now)` answers "interface j is free;
// which packet should it send?".  Transmitters that get a whole transmit
// opportunity at once (the runtime's workers, the kernel bridge)
// use `dequeue_burst(j, byte_budget, now)` to drain it in one call.
// Policies (DRR, miDRR, WFQ, ...) implement `select()` plus
// topology-change hooks.
//
// Thread-safety: schedulers are externally synchronized -- hold one lock
// around EVERY call, including const ones.  No const call mutates state,
// but every one reads state a writer moves (quantum_of reads the
// maintained phi_min that set_weight and remove_flow update), so racing a
// writer is still a data race.  What still allocates under that lock: the
// base has_eligible materializes flows_willing, an O(flow slots) scan, for
// WFQ, round robin, FIFO, strict priority and the oracle; the DRR family
// and hier-miDRR answer it from ring occupancy in O(1).  The in-kernel
// prototype the paper describes guards scheduling with a single mutex; the
// bridge layer (src/bridge) does the same, the simulator is
// single-threaded by construction, and the real-time runtime (src/runtime)
// wraps each shard's scheduler in that shard's mutex (see docs/RUNTIME.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "flow/ids.hpp"
#include "flow/packet.hpp"
#include "flow/preferences.hpp"
#include "flow/queue.hpp"
#include "util/flat_matrix.hpp"
#include "util/time.hpp"

namespace midrr {

class SchedulerObserver;

/// Totals of a batched enqueue (see Scheduler::enqueue_batch).
struct EnqueueBatchResult {
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;  ///< capacity tail-drops
  std::uint64_t accepted_bytes = 0;  ///< bytes behind `accepted` (backlog accounting)
};

/// Result of an enqueue: whether the packet was accepted, and whether the
/// flow transitioned from idle to backlogged (the caller should then kick
/// the transmitters of every interface the flow is willing to use).
struct EnqueueResult {
  bool accepted = false;
  bool became_backlogged = false;
};

/// Everything a flow registration needs, by name.  `willing` is the flow's
/// row of the interface-preference matrix Pi; `weight` is phi_i (> 0);
/// `queue_capacity_bytes` bounds its queue (0 = unbounded; beyond the
/// bound, enqueue tail-drops, the kernel bridge's qdisc behavior).
struct FlowSpec {
  double weight = 1.0;
  std::vector<IfaceId> willing{};
  std::string name{};
  std::uint64_t queue_capacity_bytes = 0;
};

/// Construction-time scheduler configuration.  `quantum_base` (bytes)
/// scales DRR-family quanta: Q_i = max(1, round(phi_i / phi_min *
/// quantum_base)); ignored by WFQ / round robin / FIFO.  `shared_deficit`
/// selects miDRR's ablation mode (one deficit counter per flow instead of
/// per flow-interface; see MiDrrScheduler).  A non-null `observer` is
/// attached before the scheduler is returned (it must outlive the
/// scheduler or be detached with set_observer(nullptr)).
struct SchedulerOptions {
  std::uint32_t quantum_base = 1500;
  bool shared_deficit = false;
  SchedulerObserver* observer = nullptr;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // --- Topology & preferences -------------------------------------------

  /// Registers an interface; returns its id.
  IfaceId add_interface(std::string name = {});

  /// Deregisters an interface (e.g. WiFi out of range).  Queued packets
  /// stay with their flows and drain through remaining interfaces.
  void remove_interface(IfaceId iface);

  /// Registers a flow from a named-field spec; returns its id.
  FlowId add_flow(const FlowSpec& spec);

  /// Deregisters a flow and discards its queue.
  void remove_flow(FlowId flow);

  /// Flips one entry of Pi at runtime.
  void set_willing(FlowId flow, IfaceId iface, bool value);

  /// Changes a flow's rate-preference weight phi_i.
  void set_weight(FlowId flow, double weight);

  const Preferences& preferences() const { return prefs_; }

  // --- Observability ------------------------------------------------------

  /// Attaches an observer of scheduling micro-events (nullptr detaches).
  /// Every policy emits on_packet_sent / on_flow_drained from the shared
  /// dequeue path; the DRR family additionally emits on_turn_granted /
  /// on_flag_skip.  The observer must outlive the scheduler or be detached
  /// first.
  void set_observer(SchedulerObserver* observer) { observer_ = observer; }
  SchedulerObserver* observer() const { return observer_; }

  // --- Data path ----------------------------------------------------------

  /// Adds a packet to its flow's queue.
  EnqueueResult enqueue(Packet packet, SimTime now);

  /// Batched enqueue: submits every packet in `packets` (consuming them)
  /// with the same per-packet semantics as repeated enqueue() calls,
  /// except that each packet keeps the `enqueued_at` stamp it already
  /// carries -- producers stamp at ingress, and a single shared `now`
  /// would clobber per-packet arrival times.  `now` is the batch
  /// submission time (currently unused by the shipped policies).  The
  /// base implementation loops over enqueue(); the DRR family overrides
  /// it to skip per-packet virtual hook dispatch.  The point is the
  /// caller's locking: one shard-lock acquisition and one call per
  /// ingress fan-in batch instead of one per packet.
  virtual EnqueueBatchResult enqueue_batch(std::span<Packet> packets,
                                           SimTime now);

  /// Returns the next packet interface `iface` should transmit, or nullopt
  /// if no willing flow is backlogged.  Guaranteed to return a packet of a
  /// flow with pi_{flow,iface} = 1 (interface preferences are sacrosanct).
  std::optional<Packet> dequeue(IfaceId iface, SimTime now);

  /// Batched dequeue: appends to `out` the exact packet sequence repeated
  /// dequeue(iface, now) calls would produce, stopping once the cumulative
  /// size reaches `byte_budget` (the last packet may overshoot it -- a
  /// transmit opportunity is never wasted on a partial fit) or nothing is
  /// eligible.  Returns the number of packets appended.  One call per
  /// transmit opportunity instead of one virtual dispatch per packet.
  virtual std::size_t dequeue_burst(IfaceId iface, std::uint64_t byte_budget,
                                    SimTime now, std::vector<Packet>& out);

  /// True if some willing flow has backlog on `iface`.  The base
  /// definition scans flows_willing(iface); policies that keep per-interface
  /// rings of backlogged willing flows override it with ring occupancy.
  virtual bool has_eligible(IfaceId iface) const;

  // --- Introspection (tests, fairness verification, reporting) ----------

  std::uint64_t backlog_bytes(FlowId flow) const;
  std::size_t backlog_packets(FlowId flow) const;
  const FlowQueueStats& queue_stats(FlowId flow) const;

  /// Bytes this scheduler has handed to interface `iface` from flow `flow`
  /// (the allocation matrix r_ij, in byte form).
  std::uint64_t sent_bytes(FlowId flow, IfaceId iface) const;

  /// Total bytes sent by a flow across all interfaces (S_i of Def. 3).
  std::uint64_t sent_bytes(FlowId flow) const;

  /// Human-readable policy name (reporting).
  virtual std::string policy_name() const = 0;

 protected:
  Scheduler() = default;

  /// Policy hook: choose and pop the next packet for `iface`.
  virtual std::optional<Packet> select(IfaceId iface, SimTime now) = 0;

  // Topology-change hooks; called after the registry is updated.
  virtual void on_interface_added(IfaceId iface) = 0;
  virtual void on_interface_removed(IfaceId iface) = 0;
  virtual void on_flow_added(FlowId flow) = 0;
  virtual void on_flow_removed(FlowId flow) = 0;
  virtual void on_willing_changed(FlowId flow, IfaceId iface, bool value) = 0;
  virtual void on_weight_changed(FlowId /*flow*/) {}
  /// Called when a flow transitions idle -> backlogged.
  virtual void on_backlogged(FlowId flow) = 0;

  /// Called for every accepted packet (after on_backlogged, if both fire).
  virtual void on_enqueued(FlowId /*flow*/) {}

  FlowQueue& queue(FlowId flow);
  const FlowQueue& queue(FlowId flow) const;

  /// Records a completed hand-off for the allocation matrix; select()
  /// implementations call this for every packet they return.
  void note_sent(FlowId flow, IfaceId iface, std::uint32_t bytes);

  /// Shared post-select bookkeeping of the dequeue paths: preference
  /// check, allocation accounting, observer send/drain events.
  void note_dequeued(const Packet& packet, IfaceId iface, SimTime now);

  Preferences prefs_;

 private:
  std::vector<FlowQueue> queues_;              // by FlowId
  FlowIfaceMatrix<std::uint64_t> sent_;        // [flow][iface], flat
  SchedulerObserver* observer_ = nullptr;
};

/// The scheduling policies this library ships.
enum class Policy {
  kMiDrr,           ///< the paper's contribution (Alg 3.1 + 3.2)
  kHierMiDrr,       ///< miDRR over flow classes, DRR within a class
                    ///< (million-flow scale; see HierMiDrrScheduler)
  kNaiveDrr,        ///< DRR independently per interface (no service flags)
  kPerIfaceWfq,     ///< SCFQ-style weighted fair queueing per interface
  kRoundRobin,      ///< packet-by-packet round robin per interface
  kFifo,            ///< one global arrival-order queue (no fairness)
  kStrictPriority,  ///< highest weight wins (starves light flows)
  kOracle,          ///< Section 3's global-knowledge strawman; requires a
                    ///< capacity provider (see OracleMaxMinScheduler)
};

const char* to_string(Policy policy);

/// Factory.  Options default to a 1500-byte quantum base, per-interface
/// deficit counters, and no observer.
std::unique_ptr<Scheduler> make_scheduler(Policy policy,
                                          const SchedulerOptions& options = {});

}  // namespace midrr
