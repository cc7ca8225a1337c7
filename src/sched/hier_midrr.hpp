// Hierarchical miDRR: two-level deficit round robin over flow classes.
//
// Flows sharing an identical local preference row Pi, weight phi, and
// queue bound are interned into one FlowClass (flow/class_table.hpp).  The
// outer level runs the paper's miDRR -- per-interface rings, deficit
// counters, and Algorithm 3.2 service flags -- over CLASSES instead of
// flows; the inner level runs plain equal-quantum DRR over the backlogged
// members of the class currently holding the outer turn.  All per-(unit,
// interface) state (deficits, flags, rings, turn counts) is keyed by
// ClassId, so its footprint is O(classes x interfaces) no matter how many
// flows share each class; per-flow state shrinks to one class id, one
// member-ring link pair, and one scalar member deficit.
//
// Fairness argument (the class-level Theorem 3): a class with m backlogged
// members and per-member weight phi receives an outer quantum of
// m * phi / phi_min * quantum_base, i.e. exactly the summed quantum its
// members would have drawn individually under flat miDRR, and the service
// flags suppress cross-interface double service per class turn exactly as
// they do per flow turn in the flat scheduler.  The inner DRR splits the
// class's allocation equally among members (equal weights by class
// definition).  With every class a singleton the two levels collapse and
// the schedule is packet-for-packet identical to MiDrrScheduler
// (tests/test_class_sched.cpp pins this).
//
// Observer note: turn-granted and flag-skip events fire at the OUTER level
// and carry the ClassId in the flow field (turn-granted reports the member
// about to be served); per-packet send/drain events still carry flow ids.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/class_table.hpp"
#include "sched/ring.hpp"
#include "sched/scheduler.hpp"
#include "util/flat_matrix.hpp"

namespace midrr {

class HierMiDrrScheduler final : public Scheduler {
 public:
  explicit HierMiDrrScheduler(std::uint32_t quantum_base = 1500);

  std::string policy_name() const override { return "hier-miDRR"; }

  std::uint32_t quantum_base() const { return quantum_base_; }

  EnqueueBatchResult enqueue_batch(std::span<Packet> packets,
                                   SimTime now) override;
  bool has_eligible(IfaceId iface) const override;

  // --- class introspection (tests, /classes route, bridges) --------------

  /// The class a live flow currently belongs to; kInvalidClass otherwise.
  ClassId class_of(FlowId flow) const;

  /// Classes with at least one member.
  std::size_t class_count() const { return table_.live_count(); }

  /// Interned identity of a class (valid for any id ever handed out).
  const ClassKey& class_key(ClassId cls) const { return table_.key(cls); }

  std::size_t class_members(ClassId cls) const {
    return table_.member_count(cls);
  }

  /// One past the largest class id ever minted.
  std::size_t class_slots() const { return table_.slots(); }

  /// Outer deficit counter DC_{cls,iface}.
  std::int64_t class_deficit(ClassId cls, IfaceId iface) const {
    return dc_.get(cls, iface);
  }

  /// Outer service flag SF_{cls,iface}.
  bool class_service_flag(ClassId cls, IfaceId iface) const {
    return sf_.get(cls, iface) != 0;
  }

  /// Outer turns granted to `cls` on `iface`.
  std::uint64_t class_turns(ClassId cls, IfaceId iface) const {
    return turn_count_.get(cls, iface);
  }

  /// Classes skipped by Algorithm 3.2 walks so far.
  std::uint64_t flags_skipped() const { return flags_skipped_; }

  /// Inner (member) deficit of a flow.
  std::int64_t member_deficit(FlowId flow) const {
    return flow < mdc_.size() ? mdc_[flow] : 0;
  }

 protected:
  std::optional<Packet> select(IfaceId iface, SimTime now) override;
  void on_interface_added(IfaceId iface) override;
  void on_interface_removed(IfaceId iface) override;
  void on_flow_added(FlowId flow) override;
  void on_flow_removed(FlowId flow) override;
  void on_willing_changed(FlowId flow, IfaceId iface, bool value) override;
  void on_weight_changed(FlowId flow) override;
  void on_backlogged(FlowId flow) override;

 private:
  /// Per-class scheduling state.  The member ring is intrusive over the
  /// shared mnext_/mprev_ arrays (a flow belongs to exactly one class, so
  /// one global link pair per flow suffices for every class's ring).
  struct ClassState {
    FlowId mcurrent = kInvalidFlow;  ///< inner ring position; invalid = empty
    std::size_t backlogged = 0;      ///< members currently in the inner ring
    bool mturn_open = false;  ///< current member holds an inner quantum grant
  };

  /// Outer quantum: m_backlogged * phi / phi_min * quantum_base.
  std::int64_t class_quantum(ClassId cls) const;

  void ensure_class(ClassId cls);
  void ensure_flow_slot(FlowId flow);

  /// Interns the flow's CURRENT (Pi row, phi, bound) and attaches it as a
  /// member; inserts into rings when the flow is backlogged.
  void attach_flow(FlowId flow);

  /// Detaches the flow from its class, preserving its queue; empties clean
  /// the class's scheduling state so a revival starts fresh.
  void detach_flow(FlowId flow);

  void member_insert(ClassState& cs, FlowId flow);
  void member_remove(ClassState& cs, FlowId flow);
  void member_advance(ClassState& cs);

  /// A class gained its first backlogged member: join the per-interface
  /// rings of its willing row.
  void class_backlogged(ClassId cls);

  /// A class lost its last backlogged member: leave every ring and reset
  /// its outer deficit row (the flat scheduler's BL = 0 rule, per class).
  void class_drained(ClassId cls);

  /// Outer turn step: advance (optionally), run the service-flag walk,
  /// grant the class quantum, set flags at the other interfaces.
  void enter_class_turn(IfaceId iface, FlowRing& ring, bool advance_first,
                        SimTime now);

  std::uint32_t quantum_base_;
  ClassTable table_;
  // attach_flow's lookup key, refilled in place so a join allocates nothing.
  ClassKey lookup_key_;
  std::vector<ClassId> class_of_;        // by FlowId; kInvalidClass = detached
  std::vector<ClassState> classes_;      // by ClassId
  std::vector<FlowRing> rings_;          // by IfaceId, over ClassIds
  FlowIfaceMatrix<std::int64_t> dc_;     // [class][iface]
  FlowIfaceMatrix<std::uint8_t> sf_;     // [class][iface]
  FlowIfaceMatrix<std::uint64_t> turn_count_;  // [class][iface]
  std::vector<FlowId> mnext_;            // member-ring links, by FlowId
  std::vector<FlowId> mprev_;
  std::vector<std::int64_t> mdc_;        // inner deficit, by FlowId
  std::uint64_t flags_skipped_ = 0;
};

}  // namespace midrr
