#include "sched/scheduler.hpp"

#include "sched/drr.hpp"
#include "sched/fifo.hpp"
#include "sched/hier_midrr.hpp"
#include "sched/midrr.hpp"
#include "sched/observer.hpp"
#include "sched/priority.hpp"
#include "sched/round_robin.hpp"
#include "sched/wfq.hpp"
#include "util/assert.hpp"

namespace midrr {

IfaceId Scheduler::add_interface(std::string name) {
  const IfaceId iface = prefs_.add_interface(std::move(name));
  sent_.ensure(prefs_.flow_slots(), prefs_.iface_slots());
  on_interface_added(iface);
  return iface;
}

void Scheduler::remove_interface(IfaceId iface) {
  MIDRR_REQUIRE(prefs_.iface_exists(iface), "removing unknown interface");
  on_interface_removed(iface);
  prefs_.remove_interface(iface);
}

FlowId Scheduler::add_flow(const FlowSpec& spec) {
  const FlowId flow = prefs_.add_flow(spec.weight, spec.willing, spec.name);
  if (queues_.size() <= flow) {
    queues_.resize(static_cast<std::size_t>(flow) + 1);
  }
  queues_[flow] = FlowQueue(spec.queue_capacity_bytes);
  sent_.ensure(prefs_.flow_slots(), prefs_.iface_slots());
  sent_.fill_row(flow, 0);
  on_flow_added(flow);
  return flow;
}

void Scheduler::remove_flow(FlowId flow) {
  MIDRR_REQUIRE(prefs_.flow_exists(flow), "removing unknown flow");
  on_flow_removed(flow);
  queues_[flow].clear();
  prefs_.remove_flow(flow);
}

void Scheduler::set_willing(FlowId flow, IfaceId iface, bool value) {
  if (prefs_.willing(flow, iface) == value) return;
  prefs_.set_willing(flow, iface, value);
  on_willing_changed(flow, iface, value);
}

void Scheduler::set_weight(FlowId flow, double weight) {
  prefs_.set_weight(flow, weight);
  on_weight_changed(flow);
}

FlowQueue& Scheduler::queue(FlowId flow) {
  MIDRR_REQUIRE(prefs_.flow_exists(flow), "unknown flow");
  return queues_[flow];
}

const FlowQueue& Scheduler::queue(FlowId flow) const {
  MIDRR_REQUIRE(prefs_.flow_exists(flow), "unknown flow");
  return queues_[flow];
}

EnqueueResult Scheduler::enqueue(Packet packet, SimTime now) {
  MIDRR_REQUIRE(prefs_.flow_exists(packet.flow), "enqueue for unknown flow");
  const FlowId flow = packet.flow;
  FlowQueue& q = queues_[flow];
  const bool was_empty = q.empty();
  packet.enqueued_at = now;
  EnqueueResult result;
  result.accepted = q.enqueue(std::move(packet));
  result.became_backlogged = result.accepted && was_empty;
  if (result.became_backlogged) {
    on_backlogged(flow);
  }
  if (result.accepted) {
    on_enqueued(flow);
  }
  return result;
}

EnqueueBatchResult Scheduler::enqueue_batch(std::span<Packet> packets,
                                            SimTime /*now*/) {
  EnqueueBatchResult totals;
  for (Packet& packet : packets) {
    const SimTime stamp = packet.enqueued_at;
    const std::uint32_t size = packet.size_bytes;
    const EnqueueResult result = enqueue(std::move(packet), stamp);
    if (result.accepted) {
      ++totals.accepted;
      totals.accepted_bytes += size;
    } else {
      ++totals.dropped;
    }
  }
  return totals;
}

void Scheduler::note_dequeued(const Packet& packet, IfaceId iface,
                              SimTime now) {
  MIDRR_ASSERT(prefs_.willing(packet.flow, iface),
               "policy violated an interface preference");
  note_sent(packet.flow, iface, packet.size_bytes);
  if (observer_ != nullptr) {
    observer_->on_packet_sent(now, packet.flow, iface, packet.size_bytes);
    if (queues_[packet.flow].empty()) {
      observer_->on_flow_drained(now, packet.flow);
    }
  }
}

std::optional<Packet> Scheduler::dequeue(IfaceId iface, SimTime now) {
  MIDRR_REQUIRE(prefs_.iface_exists(iface), "dequeue for unknown interface");
  auto packet = select(iface, now);
  if (packet) {
    note_dequeued(*packet, iface, now);
    if (observer_ != nullptr) {
      observer_->on_packets_sent(now, iface, 1, packet->size_bytes);
    }
  }
  return packet;
}

std::size_t Scheduler::dequeue_burst(IfaceId iface, std::uint64_t byte_budget,
                                     SimTime now, std::vector<Packet>& out) {
  MIDRR_REQUIRE(prefs_.iface_exists(iface), "dequeue for unknown interface");
  // A zero budget must be a guaranteed no-op: no select() call, so no DRR
  // turn is granted and no deficit/service-flag state moves.  Callers that
  // clamp signed budgets (the runtime's pacer) rely on this.
  if (byte_budget == 0) return 0;
  std::size_t count = 0;
  std::uint64_t bytes = 0;
  while (bytes < byte_budget) {
    auto packet = select(iface, now);
    if (!packet) break;
    note_dequeued(*packet, iface, now);
    bytes += packet->size_bytes;
    out.push_back(std::move(*packet));
    ++count;
  }
  if (count > 0 && observer_ != nullptr) {
    observer_->on_packets_sent(now, iface, count, bytes);
  }
  return count;
}

bool Scheduler::has_eligible(IfaceId iface) const {
  if (!prefs_.iface_exists(iface)) return false;
  for (FlowId flow : prefs_.flows_willing(iface)) {
    if (!queues_[flow].empty()) return true;
  }
  return false;
}

std::uint64_t Scheduler::backlog_bytes(FlowId flow) const {
  return queue(flow).backlog_bytes();
}

std::size_t Scheduler::backlog_packets(FlowId flow) const {
  return queue(flow).backlog_packets();
}

const FlowQueueStats& Scheduler::queue_stats(FlowId flow) const {
  return queue(flow).stats();
}

void Scheduler::note_sent(FlowId flow, IfaceId iface, std::uint32_t bytes) {
  sent_.ensure(static_cast<std::size_t>(flow) + 1,
               static_cast<std::size_t>(iface) + 1);
  sent_.at(flow, iface) += bytes;
}

std::uint64_t Scheduler::sent_bytes(FlowId flow, IfaceId iface) const {
  return sent_.get(flow, iface);
}

std::uint64_t Scheduler::sent_bytes(FlowId flow) const {
  if (flow >= sent_.rows()) return 0;
  std::uint64_t total = 0;
  const std::uint64_t* row = sent_.row(flow);
  for (std::size_t j = 0; j < sent_.cols(); ++j) total += row[j];
  return total;
}

const char* to_string(Policy policy) {
  switch (policy) {
    case Policy::kMiDrr: return "miDRR";
    case Policy::kHierMiDrr: return "hier-miDRR";
    case Policy::kNaiveDrr: return "naive-DRR";
    case Policy::kPerIfaceWfq: return "per-iface-WFQ";
    case Policy::kRoundRobin: return "round-robin";
    case Policy::kFifo: return "fifo";
    case Policy::kStrictPriority: return "strict-priority";
    case Policy::kOracle: return "oracle-maxmin";
  }
  return "?";
}

std::unique_ptr<Scheduler> make_scheduler(Policy policy,
                                          const SchedulerOptions& options) {
  std::unique_ptr<Scheduler> sched;
  switch (policy) {
    case Policy::kMiDrr:
      sched = std::make_unique<MiDrrScheduler>(options.quantum_base,
                                               options.shared_deficit);
      break;
    case Policy::kHierMiDrr:
      sched = std::make_unique<HierMiDrrScheduler>(options.quantum_base);
      break;
    case Policy::kNaiveDrr:
      sched = std::make_unique<NaiveDrrScheduler>(options.quantum_base);
      break;
    case Policy::kPerIfaceWfq:
      sched = std::make_unique<PerIfaceWfqScheduler>();
      break;
    case Policy::kRoundRobin:
      sched = std::make_unique<RoundRobinScheduler>();
      break;
    case Policy::kFifo:
      sched = std::make_unique<FifoScheduler>();
      break;
    case Policy::kStrictPriority:
      sched = std::make_unique<StrictPriorityScheduler>();
      break;
    case Policy::kOracle:
      MIDRR_REQUIRE(false,
                    "the oracle needs a capacity provider; construct "
                    "OracleMaxMinScheduler directly (the simulator harness "
                    "wires this up automatically)");
  }
  MIDRR_REQUIRE(sched != nullptr, "unknown policy");
  if (options.observer != nullptr) sched->set_observer(options.observer);
  return sched;
}

}  // namespace midrr
