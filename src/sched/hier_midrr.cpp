#include "sched/hier_midrr.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "sched/observer.hpp"
#include "util/assert.hpp"

namespace midrr {

HierMiDrrScheduler::HierMiDrrScheduler(std::uint32_t quantum_base)
    : quantum_base_(quantum_base) {
  MIDRR_REQUIRE(quantum_base > 0, "quantum base must be positive");
}

// --- arenas ---------------------------------------------------------------

void HierMiDrrScheduler::ensure_class(ClassId cls) {
  if (classes_.size() <= cls) {
    classes_.resize(static_cast<std::size_t>(cls) + 1);
  }
  dc_.ensure(static_cast<std::size_t>(cls) + 1, preferences().iface_slots());
  sf_.ensure(static_cast<std::size_t>(cls) + 1, preferences().iface_slots());
  turn_count_.ensure(static_cast<std::size_t>(cls) + 1,
                     preferences().iface_slots());
}

void HierMiDrrScheduler::ensure_flow_slot(FlowId flow) {
  if (class_of_.size() <= flow) {
    const std::size_t n = static_cast<std::size_t>(flow) + 1;
    class_of_.resize(n, kInvalidClass);
    mnext_.resize(n, kInvalidFlow);
    mprev_.resize(n, kInvalidFlow);
    mdc_.resize(n, 0);
  }
}

// --- member rings ---------------------------------------------------------

void HierMiDrrScheduler::member_insert(ClassState& cs, FlowId flow) {
  MIDRR_ASSERT(mnext_[flow] == kInvalidFlow, "flow already in a member ring");
  if (cs.mcurrent == kInvalidFlow) {
    mnext_[flow] = flow;
    mprev_[flow] = flow;
    cs.mcurrent = flow;
    cs.mturn_open = false;
  } else {
    // Before the current member, i.e. reached last in the current round
    // (the FlowRing insertion rule, applied to the inner ring).
    const FlowId cur = cs.mcurrent;
    const FlowId last = mprev_[cur];
    mnext_[last] = flow;
    mprev_[flow] = last;
    mnext_[flow] = cur;
    mprev_[cur] = flow;
  }
}

void HierMiDrrScheduler::member_remove(ClassState& cs, FlowId flow) {
  MIDRR_ASSERT(mnext_[flow] != kInvalidFlow, "flow not in a member ring");
  const FlowId next = mnext_[flow];
  if (next == flow) {
    cs.mcurrent = kInvalidFlow;
  } else {
    mnext_[mprev_[flow]] = next;
    mprev_[next] = mprev_[flow];
    if (cs.mcurrent == flow) {
      cs.mcurrent = next;
      cs.mturn_open = false;
    }
  }
  mnext_[flow] = kInvalidFlow;
  mprev_[flow] = kInvalidFlow;
  mdc_[flow] = 0;
}

void HierMiDrrScheduler::member_advance(ClassState& cs) {
  cs.mcurrent = mnext_[cs.mcurrent];
  cs.mturn_open = false;
}

// --- class ring membership ------------------------------------------------

void HierMiDrrScheduler::class_backlogged(ClassId cls) {
  for (const IfaceId j : table_.key(cls).willing) {
    if (j < rings_.size() && !rings_[j].contains(cls)) {
      rings_[j].insert(cls);
    }
  }
}

void HierMiDrrScheduler::class_drained(ClassId cls) {
  for (IfaceId j = 0; j < rings_.size(); ++j) {
    if (rings_[j].contains(cls)) rings_[j].remove(cls);
  }
  if (cls < dc_.rows()) dc_.fill_row(cls, 0);
}

// --- attach / detach ------------------------------------------------------

void HierMiDrrScheduler::attach_flow(FlowId flow) {
  lookup_key_.weight = preferences().weight(flow);
  lookup_key_.willing.clear();  // ascending by construction
  const std::span<const std::uint8_t> row = preferences().willing_row(flow);
  for (IfaceId j = 0; j < row.size(); ++j) {
    if (row[j] != 0) lookup_key_.willing.push_back(j);
  }
  lookup_key_.queue_capacity_bytes = queue(flow).capacity_bytes();
  const ClassId cls = table_.intern(lookup_key_);
  ensure_class(cls);
  table_.add_member(cls);
  class_of_[flow] = cls;
  if (!queue(flow).empty()) {
    ClassState& cs = classes_[cls];
    member_insert(cs, flow);
    if (++cs.backlogged == 1) class_backlogged(cls);
  }
}

void HierMiDrrScheduler::detach_flow(FlowId flow) {
  const ClassId cls = class_of_[flow];
  if (cls == kInvalidClass) return;
  ClassState& cs = classes_[cls];
  if (mnext_[flow] != kInvalidFlow) {
    member_remove(cs, flow);
    if (--cs.backlogged == 0) class_drained(cls);
  }
  table_.remove_member(cls);
  if (table_.member_count(cls) == 0) {
    // The class retires (it revives under the same id on a matching
    // attach); clean its scheduling state so the revival starts fresh --
    // the flat scheduler's flow-removal rule, per class.
    if (cls < dc_.rows()) dc_.fill_row(cls, 0);
    if (cls < sf_.rows()) sf_.fill_row(cls, 0);
  }
  class_of_[flow] = kInvalidClass;
}

// --- topology hooks -------------------------------------------------------

void HierMiDrrScheduler::on_interface_added(IfaceId iface) {
  if (rings_.size() <= iface) {
    rings_.resize(static_cast<std::size_t>(iface) + 1);
  }
  dc_.ensure(table_.slots(), preferences().iface_slots());
  sf_.ensure(table_.slots(), preferences().iface_slots());
  turn_count_.ensure(table_.slots(), preferences().iface_slots());
}

void HierMiDrrScheduler::on_interface_removed(IfaceId iface) {
  // Classes stay queued; they simply lose this ring (flows keep whatever
  // turns they earned elsewhere, as in the flat DRR family).
  if (iface < rings_.size()) rings_[iface] = FlowRing{};
}

void HierMiDrrScheduler::on_flow_added(FlowId flow) {
  ensure_flow_slot(flow);
  attach_flow(flow);
}

void HierMiDrrScheduler::on_flow_removed(FlowId flow) {
  detach_flow(flow);
}

void HierMiDrrScheduler::on_willing_changed(FlowId flow, IfaceId /*iface*/,
                                            bool /*value*/) {
  // Class identity includes the Pi row: re-intern the flow under its new
  // row.  Its queue is untouched (owned by the Scheduler base per flow).
  detach_flow(flow);
  attach_flow(flow);
}

void HierMiDrrScheduler::on_weight_changed(FlowId flow) {
  detach_flow(flow);
  attach_flow(flow);
}

void HierMiDrrScheduler::on_backlogged(FlowId flow) {
  const ClassId cls = class_of_[flow];
  MIDRR_ASSERT(cls != kInvalidClass, "backlog for a detached flow");
  ClassState& cs = classes_[cls];
  member_insert(cs, flow);
  if (++cs.backlogged == 1) class_backlogged(cls);
}

EnqueueBatchResult HierMiDrrScheduler::enqueue_batch(std::span<Packet> packets,
                                                     SimTime /*now*/) {
  // Mirror of DrrFamilyScheduler::enqueue_batch: one queue append per
  // packet plus the idle->backlogged transition, no per-packet virtual
  // dispatch.
  EnqueueBatchResult totals;
  for (Packet& packet : packets) {
    const FlowId flow = packet.flow;
    const std::uint32_t size = packet.size_bytes;
    FlowQueue& q = queue(flow);  // REQUIREs the flow exists
    const bool was_empty = q.empty();
    if (q.enqueue(std::move(packet))) {
      ++totals.accepted;
      totals.accepted_bytes += size;
      if (was_empty) on_backlogged(flow);
    } else {
      ++totals.dropped;
    }
  }
  return totals;
}

bool HierMiDrrScheduler::has_eligible(IfaceId iface) const {
  // A class is in ring j iff it has a backlogged member willing on j, so
  // ring occupancy answers eligibility in O(1).
  return iface < rings_.size() && !rings_[iface].empty();
}

ClassId HierMiDrrScheduler::class_of(FlowId flow) const {
  return flow < class_of_.size() ? class_of_[flow] : kInvalidClass;
}

// --- the two-level select loop --------------------------------------------

std::int64_t HierMiDrrScheduler::class_quantum(ClassId cls) const {
  // phi_min over live classes is phi_min over live flows: every live flow
  // is attached to the class of its own weight.
  const double w = table_.key(cls).weight;
  const double members =
      static_cast<double>(classes_[cls].backlogged > 0
                              ? classes_[cls].backlogged
                              : std::size_t{1});
  const auto q = static_cast<std::int64_t>(std::llround(
      members * w / preferences().min_weight() *
      static_cast<double>(quantum_base_)));
  return q > 0 ? q : 1;
}

void HierMiDrrScheduler::enter_class_turn(IfaceId iface, FlowRing& ring,
                                          bool advance_first, SimTime now) {
  if (advance_first) ring.advance();
  // Algorithm 3.2 at class granularity: while the candidate's service flag
  // is set, clear it and move on.
  std::uint8_t* flag = &sf_.at(ring.current(), iface);
  while (*flag != 0) {
    *flag = 0;
    ++flags_skipped_;
    if (observer() != nullptr) {
      observer()->on_flag_skip(now, ring.current(), iface);
    }
    ring.advance();
    flag = &sf_.at(ring.current(), iface);
  }
  const ClassId cls = ring.current();
  std::int64_t& dc = dc_.at(cls, iface);
  dc += class_quantum(cls);
  ++turn_count_.at(cls, iface);
  // Tell every other interface this class has just been served.
  std::uint8_t* row = sf_.row(cls);
  for (IfaceId k = 0; k < sf_.cols(); ++k) {
    if (k != iface) row[k] = 1;
  }
  if (observer() != nullptr) {
    observer()->on_turn_granted(now, classes_[cls].mcurrent, iface, dc);
  }
  ring.open_turn();
}

std::optional<Packet> HierMiDrrScheduler::select(IfaceId iface, SimTime now) {
  FlowRing& ring = rings_[iface];
  // Outer guard: every pass grants one class quantum (>= 1 byte), so the
  // pass count before some head packet fits is bounded as in the flat
  // family's select loop.
  std::uint64_t guard = 0;
  const std::uint64_t guard_limit = (ring.size() + 2) * 70000;
  while (!ring.empty()) {
    if (!ring.turn_open()) {
      enter_class_turn(iface, ring, /*advance_first=*/false, now);
    }
    const ClassId cls = ring.current();
    ClassState& cs = classes_[cls];
    std::int64_t& dc = dc_.at(cls, iface);
    // Inner DRR among the class's backlogged members: equal quanta of
    // quantum_base each (members share one phi by class definition).  The
    // inner guard bounds the catch-up spins of a member whose head packet
    // fits the class deficit but not yet its own.
    std::uint64_t inner_guard = 0;
    const std::uint64_t inner_limit = (cs.backlogged + 2) * 70000;
    while (true) {
      const FlowId flow = cs.mcurrent;
      MIDRR_ASSERT(flow != kInvalidFlow, "empty class found in an active ring");
      if (!cs.mturn_open) {
        mdc_[flow] += quantum_base_;
        cs.mturn_open = true;
      }
      const auto head = queue(flow).head_size();
      MIDRR_ASSERT(head.has_value(), "empty flow found in a member ring");
      const auto head_bytes = static_cast<std::int64_t>(*head);
      if (head_bytes > dc) break;  // class deficit exhausted: outer turn ends
      if (head_bytes <= mdc_[flow]) {
        auto packet = queue(flow).dequeue();
        dc -= head_bytes;
        mdc_[flow] -= head_bytes;
        if (queue(flow).empty()) {
          member_remove(cs, flow);
          if (--cs.backlogged == 0) class_drained(cls);
        }
        return packet;
      }
      member_advance(cs);
      MIDRR_ASSERT(++inner_guard < inner_limit,
                   "inner DRR loop failed to make progress");
    }
    enter_class_turn(iface, ring, /*advance_first=*/true, now);
    MIDRR_ASSERT(++guard < guard_limit,
                 "hierarchical DRR turn loop failed to make progress");
  }
  return std::nullopt;
}

}  // namespace midrr
