#include "core/harness.hpp"

#include <algorithm>

#include "sched/oracle.hpp"

namespace midrr {

SimHarness::SimHarness(Hooks& hooks, Policy policy,
                       std::uint32_t quantum_base,
                       const SamplingOptions& sampling, std::uint64_t seed)
    : hooks_(hooks), sampling_(sampling), rng_(seed) {
  if (policy == Policy::kOracle) {
    // Give the global-knowledge strawman what it demands: the live
    // capacity of every interface (zero while administratively down).
    scheduler_ = std::make_unique<OracleMaxMinScheduler>(
        [this](IfaceId iface) -> double {
          if (iface >= links_.size()) return 0.0;
          const LinkTransmitter& link = *links_[iface];
          return link.enabled() ? link.profile().rate_at(sim_.now()) : 0.0;
        });
  } else {
    scheduler_ = make_scheduler(
        policy, SchedulerOptions{.quantum_base = quantum_base});
  }
  sample_event_ = sim_.make_event([this] { sample_rates(); });
  cluster_event_ = sim_.make_event([this] { snapshot_clusters(); });
}

SimHarness::~SimHarness() = default;

LinkTransmitter& SimHarness::add_link(const std::string& name,
                                      RateProfile profile) {
  const IfaceId id = scheduler_->add_interface(name);
  MIDRR_ASSERT(id == links_.size(), "interface ids follow link order");
  links_.push_back(std::make_unique<LinkTransmitter>(
      sim_, id, std::move(profile),
      [this](IfaceId j, SimTime now) { return dequeue(j, now); },
      [this](IfaceId j, const Packet& packet, SimTime at) {
        depart(j, packet, at);
      }));
  return *links_.back();
}

std::size_t SimHarness::add_flow(std::string name) {
  const std::size_t index = flows_.size();
  flows_.emplace_back(std::move(name), sampling_.sample_interval,
                      sampling_.rate_window_bins);
  flows_.back().arrival = sim_.make_event([this, index] {
    enqueue(index, flows_[index].arrival_size);
    pump_arrivals(index);
  });
  return index;
}

void SimHarness::register_flow(std::size_t index, double weight,
                               const std::vector<std::string>& ifaces,
                               std::uint64_t queue_capacity_bytes,
                               std::unique_ptr<TrafficSource> source) {
  Flow& flow = flows_[index];
  MIDRR_ASSERT(flow.id == kInvalidFlow, "flow registered twice");
  std::vector<IfaceId> willing;
  for (const std::string& name : ifaces) {
    const auto link = std::find_if(
        links_.begin(), links_.end(), [&](const auto& candidate) {
          return scheduler_->preferences().iface_name(candidate->iface()) ==
                 name;
        });
    MIDRR_REQUIRE(link != links_.end(),
                  "flow references unknown interface " + name);
    willing.push_back((*link)->iface());
  }
  flow.id = scheduler_->add_flow(
      FlowSpec{.weight = weight,
               .willing = std::move(willing),
               .name = flow.name(),
               .queue_capacity_bytes = queue_capacity_bytes});
  if (index_by_flow_id_.size() <= flow.id) {
    index_by_flow_id_.resize(static_cast<std::size_t>(flow.id) + 1, kNoIndex);
  }
  index_by_flow_id_[flow.id] = index;
  flow.source = std::move(source);
}

void SimHarness::start_source(std::size_t index) {
  for (const std::uint32_t size : flows_[index].source->on_start(rng_)) {
    enqueue(index, size);
  }
  pump_arrivals(index);
}

EnqueueResult SimHarness::enqueue(std::size_t index, std::uint32_t size) {
  Flow& flow = flows_[index];
  const EnqueueResult result = scheduler_->enqueue(
      Packet(flow.id, size, flow.next_seq++), sim_.now());
  if (result.became_backlogged) {
    for (const auto& link : links_) {
      if (scheduler_->preferences().willing(flow.id, link->iface())) {
        link->notify_backlog();
      }
    }
  }
  return result;
}

void SimHarness::pump_arrivals(std::size_t index) {
  Flow& flow = flows_[index];
  const auto emission = flow.source->next_arrival(rng_);
  if (!emission) return;
  flow.arrival_size = emission->size_bytes;
  sim_.schedule_in(emission->gap, flow.arrival);
}

std::optional<Packet> SimHarness::dequeue(IfaceId iface, SimTime now) {
  std::optional<Packet> packet = scheduler_->dequeue(iface, now);
  if (packet) {
    const std::size_t index = index_of(packet->flow);
    MIDRR_ASSERT(index < flows_.size(), "dequeue for unknown flow");
    TrafficSource* source = flows_[index].source.get();
    if (source == nullptr) {
      hooks_.on_dequeue(index, *packet);
    } else if (const auto size = source->on_dequeue(packet->size_bytes, rng_)) {
      // Backlogged sources refill as soon as a packet leaves the queue.
      enqueue(index, *size);
    }
  }
  return packet;
}

void SimHarness::depart(IfaceId iface, const Packet& packet, SimTime at) {
  const std::size_t index = index_of(packet.flow);
  MIDRR_ASSERT(index < flows_.size(), "departure for unknown flow");
  if (!window_bytes_.empty()) {
    window_bytes_[index * links_.size() + iface] += packet.size_bytes;
  }
  hooks_.on_departure(index, iface, packet, at);
}

void SimHarness::run_until(SimTime until) {
  MIDRR_REQUIRE(until >= sim_.now(), "run() horizon is in the past");
  if (!started_) {
    started_ = true;
    hooks_.on_start();
    // Each tick reschedules the next one unconditionally; a later call
    // finds the next ticks pending.
    sim_.schedule_in(sampling_.sample_interval, sample_event_);
    if (sampling_.cluster_interval > 0) {
      window_bytes_.assign(flows_.size() * links_.size(), 0);
      sim_.schedule_in(sampling_.cluster_interval, cluster_event_);
    }
  }
  sim_.run_until(until);
}

void SimHarness::sample_rates() {
  const SimTime now = sim_.now();
  for (Flow& flow : flows_) {
    if (flow.id == kInvalidFlow) continue;  // not started yet
    flow.series.add(now, to_mbps(flow.meter.rate_bps(now)));
  }
  sim_.schedule_in(sampling_.sample_interval, sample_event_);
}

void SimHarness::snapshot_clusters() {
  const Preferences& prefs = scheduler_->preferences();
  const double window_seconds = to_seconds(sampling_.cluster_interval);
  const std::size_t n = links_.size();
  fair::MaxMinInput input;
  std::vector<std::string> iface_names;
  for (const auto& link : links_) {
    input.capacities_bps.push_back(
        link->enabled() ? link->profile().rate_at(sim_.now()) : 0.0);
    iface_names.push_back(prefs.iface_name(link->iface()));
  }
  // A flow not yet started enters with weight 1 and no willing interface.
  std::vector<std::vector<double>> alloc(flows_.size(),
                                         std::vector<double>(n, 0.0));
  std::vector<std::string> flow_names;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const Flow& flow = flows_[i];
    const bool started = flow.id != kInvalidFlow;
    input.weights.push_back(started ? prefs.weight(flow.id) : 1.0);
    std::vector<bool> row(n, false);
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = started && prefs.willing(flow.id, links_[j]->iface());
      std::uint64_t& bytes = window_bytes_[i * n + j];
      alloc[i][j] = static_cast<double>(bytes) * 8.0 / window_seconds;
      bytes = 0;
    }
    input.willing.push_back(std::move(row));
    flow_names.push_back(flow.name());
  }
  ClusterSnapshot snap;
  snap.at = sim_.now();
  snap.analysis = fair::analyze_clusters(input, alloc);
  snap.rendering =
      fair::format_clusters(snap.analysis, flow_names, iface_names);
  clusters_.push_back(std::move(snap));
  sim_.schedule_in(sampling_.cluster_interval, cluster_event_);
}

}  // namespace midrr
