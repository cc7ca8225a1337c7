#include "inbound/remote_proxy.hpp"

#include "util/assert.hpp"

namespace midrr::inbound {

const InboundFlowResult& InboundResult::flow_named(
    const std::string& name) const {
  for (const auto& f : flows) {
    if (f.name == name) return f;
  }
  MIDRR_REQUIRE(false, "no inbound flow named " + name);
  return flows.front();  // unreachable
}

struct RemoteProxy::FlowState {
  FlowId id = kInvalidFlow;
  std::unique_ptr<TrafficSource> source;
  std::uint64_t next_seq = 0;  ///< per-flow packet sequence at the proxy
  ReorderBuffer reorder;
  RateMeter goodput;
  TimeSeries series;
  std::vector<std::uint64_t> bytes_per_path;

  FlowState(SimDuration bin, std::size_t window, std::string name,
            std::size_t path_count)
      : goodput(bin, window),
        series(std::move(name)),
        bytes_per_path(path_count, 0) {}
};

RemoteProxy::RemoteProxy(std::vector<PathSpec> paths,
                         std::vector<InboundFlowSpec> flows,
                         InboundOptions options)
    : path_specs_(std::move(paths)),
      flow_specs_(std::move(flows)),
      options_(options),
      scheduler_(make_scheduler(options.policy,
                                SchedulerOptions{.quantum_base =
                                                     options.quantum_base})),
      rng_(options.seed) {
  MIDRR_REQUIRE(!path_specs_.empty(), "remote proxy needs paths");

  for (const PathSpec& spec : path_specs_) {
    MIDRR_REQUIRE(spec.latency >= 0, "negative path latency");
    const IfaceId id = scheduler_->add_interface(spec.name);
    auto provider = [this](IfaceId path, SimTime now) -> std::optional<Packet> {
      auto p = scheduler_->dequeue(path, now);
      if (p) {
        const std::size_t idx = index_of(p->flow);
        MIDRR_ASSERT(idx < flows_.size(), "dequeue for unknown inbound flow");
        if (const auto size =
                flows_[idx]->source->on_dequeue(p->size_bytes, rng_)) {
          enqueue_for(idx, *size);
        }
      }
      return p;
    };
    auto departure = [this](IfaceId path, const Packet& packet, SimTime at) {
      on_path_departure(path, packet, at);
    };
    paths_.push_back(std::make_unique<LinkTransmitter>(
        sim_, id, spec.profile, std::move(provider), std::move(departure)));
  }

  for (const InboundFlowSpec& spec : flow_specs_) {
    MIDRR_REQUIRE(spec.make_source != nullptr, "inbound flow needs a source");
    auto state = std::make_unique<FlowState>(
        options_.sample_interval, options_.rate_window_bins, spec.name,
        paths_.size());
    std::vector<IfaceId> willing;
    for (const std::string& name : spec.paths) {
      bool found = false;
      for (const auto& path : paths_) {
        if (scheduler_->preferences().iface_name(path->iface()) == name) {
          willing.push_back(path->iface());
          found = true;
          break;
        }
      }
      MIDRR_REQUIRE(found, "inbound flow references unknown path " + name);
    }
    state->id = scheduler_->add_flow(FlowSpec{
        .weight = spec.weight, .willing = std::move(willing), .name = spec.name});
    state->source = spec.make_source();
    if (index_by_flow_id_.size() <= state->id) {
      index_by_flow_id_.resize(static_cast<std::size_t>(state->id) + 1,
                               kNoIndex);
    }
    index_by_flow_id_[state->id] = flows_.size();
    flows_.push_back(std::move(state));
  }
}

RemoteProxy::~RemoteProxy() = default;

std::size_t RemoteProxy::index_of(FlowId flow) const {
  return flow < index_by_flow_id_.size() ? index_by_flow_id_[flow] : kNoIndex;
}

void RemoteProxy::enqueue_for(std::size_t index, std::uint32_t size) {
  FlowState& flow = *flows_[index];
  Packet p(flow.id, size, /*seq=*/flow.next_seq++);
  const EnqueueResult result = scheduler_->enqueue(std::move(p), sim_.now());
  if (result.became_backlogged) {
    for (const auto& path : paths_) {
      if (scheduler_->preferences().willing(flow.id, path->iface())) {
        path->notify_backlog();
      }
    }
  }
}

void RemoteProxy::pump_arrivals(std::size_t index) {
  FlowState& flow = *flows_[index];
  const auto emission = flow.source->next_arrival(rng_);
  if (!emission) return;
  const std::uint32_t size = emission->size_bytes;
  sim_.schedule_in(emission->gap, [this, index, size] {
    enqueue_for(index, size);
    pump_arrivals(index);
  });
}

void RemoteProxy::on_path_departure(IfaceId path, const Packet& packet,
                                    SimTime at) {
  // The packet left the proxy's bottleneck; it reaches the device after
  // the path's one-way latency.
  const SimDuration latency = path_specs_[path].latency;
  const std::size_t idx = index_of(packet.flow);
  MIDRR_ASSERT(idx < flows_.size(), "departure for unknown inbound flow");
  sim_.schedule_in(latency, [this, idx, path, copy = packet, at, latency] {
    deliver(idx, path, copy, at + latency);
  });
}

void RemoteProxy::deliver(std::size_t index, IfaceId path, Packet packet,
                          SimTime at) {
  FlowState& flow = *flows_[index];
  flow.bytes_per_path[path] += packet.size_bytes;
  const auto delivery = flow.reorder.offer(packet.seq, packet.size_bytes);
  if (delivery.delivered_bytes > 0) {
    flow.goodput.record(at, delivery.delivered_bytes);
  }
}

void RemoteProxy::sample() {
  for (auto& flow : flows_) {
    flow->series.add(sim_.now(),
                     to_mbps(flow->goodput.rate_bps(sim_.now())));
  }
  sim_.schedule_in(options_.sample_interval, [this] { sample(); });
}

InboundResult RemoteProxy::run(SimTime duration) {
  for (std::size_t idx = 0; idx < flows_.size(); ++idx) {
    for (const std::uint32_t size : flows_[idx]->source->on_start(rng_)) {
      enqueue_for(idx, size);
    }
    pump_arrivals(idx);
  }
  for (const auto& path : paths_) path->notify_backlog();

  // Each sampler tick reschedules the next one.
  sim_.schedule_in(options_.sample_interval, [this] { sample(); });

  sim_.run_until(duration);

  InboundResult result;
  for (std::size_t idx = 0; idx < flows_.size(); ++idx) {
    const FlowState& flow = *flows_[idx];
    InboundFlowResult fr;
    fr.name = flow_specs_[idx].name;
    fr.goodput_mbps = flow.series;
    fr.delivered_bytes = flow.reorder.delivered_bytes();
    fr.max_reorder_buffer_bytes = flow.reorder.max_buffered_bytes();
    fr.out_of_order_arrivals = flow.reorder.out_of_order_arrivals();
    fr.bytes_per_path = flow.bytes_per_path;
    result.flows.push_back(std::move(fr));
  }
  return result;
}

}  // namespace midrr::inbound
