// Deficit Round Robin (Shreedhar & Varghese) -- the paper's Algorithm 3.1 --
// as a reusable base for the DRR family, plus the naive multi-interface
// baseline that runs DRR independently per interface with no coordination.
//
// The paper shows naive per-interface DRR converges to the same (wrong)
// allocation as per-interface WFQ when interface preferences are present:
// on the Fig 1(c) example it gives flows (a, b) 1.5 / 0.5 Mb/s instead of
// the max-min fair 1 / 1.  It is implemented here exactly so the benches
// can demonstrate that.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/observer.hpp"
#include "sched/ring.hpp"
#include "sched/scheduler.hpp"
#include "util/flat_matrix.hpp"

namespace midrr {

/// Shared mechanics of the DRR family: per-interface rings of active flows,
/// the turn/quantum/deficit loop of Algorithm 3.1, and service-turn
/// accounting.  Subclasses choose (a) how the deficit counter is keyed
/// (per flow vs per flow-interface) and (b) how the ring walks to the next
/// flow of a turn (plain successor vs miDRR's service-flag walk).
class DrrFamilyScheduler : public Scheduler {
 public:
  /// Number of service turns (quantum grants) flow has received on iface;
  /// the m_i(t1, t2] of Lemma 4 in differenced form.
  std::uint64_t turns(FlowId flow, IfaceId iface) const;

  std::uint32_t quantum_base() const { return quantum_base_; }

  /// Q_i in bytes: phi_i / phi_min * quantum_base, so the smallest-weight
  /// flow gets exactly quantum_base and ratios follow the rate preferences.
  /// O(1): phi_min is the registry's maintained minimum.
  std::int64_t quantum_of(FlowId flow) const;

  /// O(1): ring occupancy answers eligibility.
  bool has_eligible(IfaceId iface) const override;

  /// Batched enqueue specialized for the DRR family: per-packet work is
  /// one queue append plus the idle->backlogged ring insert when a flow
  /// transitions; the base class's per-packet on_enqueued virtual dispatch
  /// (unused by every DRR policy) is skipped.  Semantics are identical to
  /// the base implementation (the equivalence test pins this).
  EnqueueBatchResult enqueue_batch(std::span<Packet> packets,
                                   SimTime now) override;

 protected:
  explicit DrrFamilyScheduler(std::uint32_t quantum_base);

  std::optional<Packet> select(IfaceId iface, SimTime now) override;

  void on_interface_added(IfaceId iface) override;
  void on_interface_removed(IfaceId iface) override;
  void on_flow_added(FlowId flow) override;
  void on_flow_removed(FlowId flow) override;
  void on_willing_changed(FlowId flow, IfaceId iface, bool value) override;
  void on_backlogged(FlowId flow) override;

  // --- subclass policy ----------------------------------------------------

  /// Reference to the deficit counter used when `iface` serves `flow`.
  virtual std::int64_t& deficit(FlowId flow, IfaceId iface) = 0;

  /// Resets all deficit state of a flow (BL_i reached 0 / flow removed).
  virtual void reset_deficit(FlowId flow) = 0;

  /// Positions `ring` (current position already at the first candidate) on
  /// the flow that gets the next turn.  Plain DRR: no-op.  miDRR: the
  /// Algorithm 3.2 service-flag walk.
  virtual void walk(IfaceId /*iface*/, FlowRing& /*ring*/,
                    SimTime /*now*/) {}

  /// Called when `flow` is granted a turn on `iface`.  miDRR sets the
  /// flow's service flags at every other interface here.
  virtual void turn_granted(FlowId /*flow*/, IfaceId /*iface*/) {}

  /// Called for every packet actually sent (Table 1's task list sets the
  /// service flags "when interface k serves flow i", i.e. per send, which
  /// keeps the flags fresh when a turn spans several packets).
  virtual void packet_served(FlowId /*flow*/, IfaceId /*iface*/) {}

  // --- shared helpers ------------------------------------------------------

  FlowRing& ring(IfaceId iface);
  const FlowRing* ring_if_present(IfaceId iface) const;
  void remove_from_all_rings(FlowId flow);

 private:
  /// Steps the ring into the next turn: optionally advance off the current
  /// flow, run the policy walk, grant the quantum.
  void enter_turn(IfaceId iface, FlowRing& r, bool advance_first,
                  SimTime now);

  std::uint32_t quantum_base_;
  std::vector<FlowRing> rings_;                     // by IfaceId
  FlowIfaceMatrix<std::uint64_t> turn_count_;       // [flow][iface], flat
};

/// DRR run independently on each interface: deficit counters are keyed by
/// (flow, interface) and there is no cross-interface signaling.  With a
/// single interface this is exactly classical DRR.
class NaiveDrrScheduler final : public DrrFamilyScheduler {
 public:
  explicit NaiveDrrScheduler(std::uint32_t quantum_base = 1500);

  std::string policy_name() const override { return "naive-DRR"; }

  /// Test accessor: the deficit counter of (flow, iface).
  std::int64_t deficit_of(FlowId flow, IfaceId iface) const;

 protected:
  std::int64_t& deficit(FlowId flow, IfaceId iface) override;
  void reset_deficit(FlowId flow) override;
  void on_flow_added(FlowId flow) override;
  void on_interface_added(IfaceId iface) override;

 private:
  FlowIfaceMatrix<std::int64_t> dc_;  // [flow][iface], flat
};

}  // namespace midrr
