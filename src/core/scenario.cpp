#include "core/scenario.hpp"

#include <algorithm>

#include "sched/oracle.hpp"
#include "util/assert.hpp"

namespace midrr {

Scenario& Scenario::interface(std::string name, RateProfile profile) {
  ifaces_.push_back(InterfaceSpec{std::move(name), std::move(profile),
                                  std::nullopt, std::nullopt});
  return *this;
}

Scenario& Scenario::interface_with_outage(std::string name,
                                          RateProfile profile,
                                          SimTime down_from,
                                          SimTime down_until) {
  MIDRR_REQUIRE(down_from < down_until, "outage interval is empty");
  ifaces_.push_back(InterfaceSpec{std::move(name), std::move(profile),
                                  down_from, down_until});
  return *this;
}

Scenario& Scenario::flow(ScenarioFlowSpec spec) {
  MIDRR_REQUIRE(spec.make_source != nullptr, "flow needs a source factory");
  MIDRR_REQUIRE(spec.weight > 0.0, "flow weight must be positive");
  flows_.push_back(std::move(spec));
  return *this;
}

Scenario& Scenario::backlogged_flow(std::string name, double weight,
                                    std::vector<std::string> ifaces,
                                    std::uint64_t total_bytes,
                                    std::uint32_t packet_size, SimTime start) {
  ScenarioFlowSpec spec;
  spec.name = std::move(name);
  spec.weight = weight;
  spec.ifaces = std::move(ifaces);
  spec.start = start;
  spec.make_source = [total_bytes, packet_size] {
    return std::make_unique<BackloggedSource>(
        SizeDistribution::fixed(packet_size), total_bytes);
  };
  return flow(std::move(spec));
}

const FlowResult& ScenarioResult::flow_named(const std::string& name) const {
  for (const auto& f : flows) {
    if (f.name == name) return f;
  }
  MIDRR_REQUIRE(false, "no flow named " + name);
  return flows.front();  // unreachable
}

struct ScenarioRunner::FlowRuntime {
  FlowId id = kInvalidFlow;
  std::unique_ptr<TrafficSource> source;
  RateMeter meter;
  TimeSeries rate_series;
  EmpiricalCdf delay_ns;
  std::optional<SimTime> completed_at;
  bool started = false;
  Simulator::EventHandle arrival;  // fires the flow's one pending arrival
  std::uint32_t arrival_size = 0;  // size of that pending arrival

  FlowRuntime(SimDuration bin, std::size_t window, std::string name)
      : meter(bin, window), rate_series(std::move(name)) {}
};

ScenarioRunner::ScenarioRunner(const Scenario& scenario, Policy policy,
                               RunnerOptions options)
    : scenario_(scenario),
      options_(options),
      rng_(options.seed) {
  MIDRR_REQUIRE(!scenario.interfaces().empty(), "scenario has no interfaces");

  if (policy == Policy::kOracle) {
    // Give the global-knowledge strawman what it demands: the live
    // capacity of every interface (zero while administratively down).
    scheduler_ = std::make_unique<OracleMaxMinScheduler>(
        [this](IfaceId iface) -> double {
          for (const auto& link : links_) {
            if (link->iface() == iface) {
              return link->enabled() ? link->profile().rate_at(sim_.now())
                                     : 0.0;
            }
          }
          return 0.0;
        });
  } else {
    scheduler_ =
        make_scheduler(policy, SchedulerOptions{.quantum_base =
                                                    options.quantum_base});
  }

  // Interfaces first so flow willingness rows can reference them.
  for (const InterfaceSpec& spec : scenario.interfaces()) {
    const IfaceId id = scheduler_->add_interface(spec.name);
    auto provider = [this](IfaceId j, SimTime now) -> std::optional<Packet> {
      auto p = scheduler_->dequeue(j, now);
      if (p) {
        // Refill backlogged sources as soon as a packet leaves the queue.
        refill_source(p->flow, p->size_bytes);
      }
      return p;
    };
    auto departure = [this](IfaceId j, const Packet& packet, SimTime at) {
      on_departure(j, packet, at);
    };
    links_.push_back(std::make_unique<LinkTransmitter>(
        sim_, id, spec.profile, std::move(provider), std::move(departure)));
    if (options_.link_jitter > 0.0) {
      links_.back()->set_jitter(options_.link_jitter,
                                options_.seed * 1000003 + id);
    }
    if (spec.down_from.has_value()) {
      LinkTransmitter* link = links_.back().get();
      sim_.schedule_at(*spec.down_from, [link] { link->set_enabled(false); });
      sim_.schedule_at(*spec.down_until, [link] { link->set_enabled(true); });
    }
  }

  for (const ScenarioFlowSpec& spec : scenario.flows()) {
    flows_.push_back(std::make_unique<FlowRuntime>(
        options_.sample_interval, options_.rate_window_bins, spec.name));
    const std::size_t index = flows_.size() - 1;
    flows_[index]->arrival =
        sim_.make_event([this, index] { on_arrival(index); });
  }
  sample_event_ = sim_.make_event([this] { sample_rates(); });
  cluster_event_ = sim_.make_event([this] { snapshot_clusters(); });
  window_bytes_.assign(scenario.flows().size(),
                       std::vector<std::uint64_t>(links_.size(), 0));
}

ScenarioRunner::~ScenarioRunner() = default;

void ScenarioRunner::start_flow(std::size_t index) {
  const ScenarioFlowSpec& spec = scenario_.flows()[index];
  FlowRuntime& rt = *flows_[index];
  MIDRR_ASSERT(!rt.started, "flow started twice");

  std::vector<IfaceId> willing;
  for (const std::string& name : spec.ifaces) {
    bool found = false;
    for (const auto& link : links_) {
      if (scheduler_->preferences().iface_name(link->iface()) == name) {
        willing.push_back(link->iface());
        found = true;
        break;
      }
    }
    MIDRR_REQUIRE(found, "flow references unknown interface " + name);
  }

  rt.id = scheduler_->add_flow(
      FlowSpec{.weight = spec.weight,
               .willing = std::move(willing),
               .name = spec.name,
               .queue_capacity_bytes = options_.queue_capacity_bytes});
  if (index_by_flow_id_.size() <= rt.id) {
    index_by_flow_id_.resize(static_cast<std::size_t>(rt.id) + 1,
                             flows_.size());
  }
  index_by_flow_id_[rt.id] = index;
  rt.source = spec.make_source();
  rt.started = true;

  for (const std::uint32_t size : rt.source->on_start(rng_)) {
    enqueue_for(index, size);
  }
  pump_arrivals(index);
}

void ScenarioRunner::enqueue_for(std::size_t index, std::uint32_t size) {
  FlowRuntime& rt = *flows_[index];
  Packet p(rt.id, size);
  const EnqueueResult result = scheduler_->enqueue(std::move(p), sim_.now());
  if (result.became_backlogged) kick_transmitters(rt.id);
}

std::size_t ScenarioRunner::index_of(FlowId flow) const {
  return flow < index_by_flow_id_.size() ? index_by_flow_id_[flow]
                                         : flows_.size();
}

void ScenarioRunner::refill_source(FlowId flow, std::uint32_t dequeued_bytes) {
  const std::size_t idx = index_of(flow);
  MIDRR_ASSERT(idx < flows_.size(), "dequeue for unknown flow");
  if (const auto size = flows_[idx]->source->on_dequeue(dequeued_bytes, rng_)) {
    enqueue_for(idx, *size);
  }
}

void ScenarioRunner::pump_arrivals(std::size_t index) {
  FlowRuntime& rt = *flows_[index];
  const auto emission = rt.source->next_arrival(rng_);
  if (!emission) return;
  rt.arrival_size = emission->size_bytes;
  sim_.schedule_in(emission->gap, rt.arrival);
}

void ScenarioRunner::on_arrival(std::size_t index) {
  enqueue_for(index, flows_[index]->arrival_size);
  pump_arrivals(index);
}

void ScenarioRunner::kick_transmitters(FlowId flow) {
  for (const auto& link : links_) {
    if (scheduler_->preferences().willing(flow, link->iface())) {
      link->notify_backlog();
    }
  }
}

void ScenarioRunner::on_departure(IfaceId iface, const Packet& packet,
                                  SimTime at) {
  const std::size_t idx = index_of(packet.flow);
  MIDRR_ASSERT(idx < flows_.size(), "departure for unknown flow");
  FlowRuntime& rt = *flows_[idx];
  rt.meter.record(at, packet.size_bytes);
  rt.delay_ns.add(static_cast<double>(at - packet.enqueued_at));
  window_bytes_[idx][iface] += packet.size_bytes;
  if (!rt.completed_at && rt.source->exhausted() &&
      scheduler_->backlog_bytes(rt.id) == 0) {
    rt.completed_at = at;
  }
}

void ScenarioRunner::sample_rates() {
  for (auto& flow : flows_) {
    if (!flow->started) continue;
    flow->rate_series.add(sim_.now(),
                          to_mbps(flow->meter.rate_bps(sim_.now())));
  }
  sim_.schedule_in(options_.sample_interval, sample_event_);
}

fair::MaxMinInput ScenarioRunner::current_input() const {
  fair::MaxMinInput input;
  for (const auto& link : links_) {
    input.capacities_bps.push_back(
        link->enabled() ? link->profile().rate_at(sim_.now()) : 0.0);
  }
  for (const auto& flow : flows_) {
    if (!flow->started) {
      input.weights.push_back(1.0);
      input.willing.emplace_back(links_.size(), false);
      continue;
    }
    input.weights.push_back(
        scheduler_->preferences().weight(flow->id));
    std::vector<bool> row;
    for (const auto& link : links_) {
      row.push_back(
          scheduler_->preferences().willing(flow->id, link->iface()));
    }
    input.willing.push_back(std::move(row));
  }
  return input;
}

void ScenarioRunner::snapshot_clusters() {
  const double window_seconds = to_seconds(options_.cluster_interval);
  std::vector<std::vector<double>> alloc(
      flows_.size(), std::vector<double>(links_.size(), 0.0));
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    for (std::size_t j = 0; j < links_.size(); ++j) {
      alloc[i][j] =
          static_cast<double>(window_bytes_[i][j]) * 8.0 / window_seconds;
      window_bytes_[i][j] = 0;
    }
  }
  ClusterSnapshot snap;
  snap.at = sim_.now();
  snap.analysis = fair::analyze_clusters(current_input(), alloc);
  std::vector<std::string> flow_names;
  for (const ScenarioFlowSpec& spec : scenario_.flows()) {
    flow_names.push_back(spec.name);
  }
  std::vector<std::string> iface_names;
  for (const InterfaceSpec& spec : scenario_.interfaces()) {
    iface_names.push_back(spec.name);
  }
  snap.rendering = fair::format_clusters(snap.analysis, flow_names, iface_names);
  cluster_log_.push_back(std::move(snap));
  sim_.schedule_in(options_.cluster_interval, cluster_event_);
}

ScenarioResult ScenarioRunner::run(SimTime until) {
  // run() is incremental: the first call arms flow starts and the periodic
  // samplers; later calls simply extend the horizon (tests use this to
  // snapshot state mid-run).
  MIDRR_REQUIRE(until >= sim_.now(), "run() horizon is in the past");
  horizon_ = until;

  if (!armed_) {
    armed_ = true;
    for (std::size_t idx = 0; idx < scenario_.flows().size(); ++idx) {
      const SimTime start = scenario_.flows()[idx].start;
      sim_.schedule_at(start, [this, idx] {
        start_flow(idx);
      });
    }

    // Periodic sampling: each tick reschedules the next one unconditionally;
    // run_until() simply leaves future ticks pending.
    sim_.schedule_in(options_.sample_interval, sample_event_);
    if (options_.cluster_interval > 0) {
      sim_.schedule_in(options_.cluster_interval, cluster_event_);
    }
  }

  sim_.run_until(until);
  const SimTime duration = sim_.now();

  ScenarioResult result;
  result.policy = scheduler_->policy_name();
  result.duration = duration;
  result.flows.reserve(flows_.size());
  for (std::size_t idx = 0; idx < flows_.size(); ++idx) {
    const FlowRuntime& rt = *flows_[idx];
    FlowResult fr;
    fr.name = scenario_.flows()[idx].name;
    fr.id = rt.id;
    fr.weight = scenario_.flows()[idx].weight;
    fr.rate_mbps = rt.rate_series;
    fr.completed_at = rt.completed_at;
    fr.delay_ns = rt.delay_ns;
    if (rt.started) {
      fr.bytes_sent = scheduler_->sent_bytes(rt.id);
      fr.dropped_packets = scheduler_->queue_stats(rt.id).dropped_packets;
      fr.dropped_bytes = scheduler_->queue_stats(rt.id).dropped_bytes;
      fr.bytes_per_iface.reserve(links_.size());
      for (const auto& link : links_) {
        fr.bytes_per_iface.push_back(
            scheduler_->sent_bytes(rt.id, link->iface()));
      }
    }
    result.flows.push_back(std::move(fr));
  }
  result.ifaces.reserve(links_.size());
  for (const auto& link : links_) {
    InterfaceResult ir;
    ir.id = link->iface();
    ir.name = scheduler_->preferences().iface_name(link->iface());
    ir.bytes_sent = link->bytes_sent();
    ir.busy_time = link->busy_time();
    result.ifaces.push_back(std::move(ir));
  }
  result.clusters = cluster_log_;
  return result;
}

}  // namespace midrr
