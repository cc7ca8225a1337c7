#include "http/proxy.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace midrr::http {

const ProxyFlowResult& ProxyResult::flow_named(const std::string& name) const {
  for (const auto& f : flows) {
    if (f.name == name) return f;
  }
  MIDRR_REQUIRE(false, "no proxy flow named " + name);
  return flows.front();  // unreachable
}

struct HttpRangeProxy::FlowState {
  FlowId id = kInvalidFlow;
  std::uint64_t total_bytes = 0;        // 0 = endless
  std::uint64_t next_request_offset = 0;
  RangeReassembler reassembler;
  RateMeter goodput;
  TimeSeries series;
  std::optional<SimTime> completed_at;
  std::uint64_t last_prefix = 0;

  FlowState(SimDuration bin, std::size_t window, std::string name)
      : goodput(bin, window), series(std::move(name)) {}

  std::uint64_t remaining_unrequested() const {
    return total_bytes == 0 ? ~0ull : total_bytes - next_request_offset;
  }
};

HttpRangeProxy::HttpRangeProxy(std::vector<ProxyInterfaceSpec> ifaces,
                               std::vector<ProxyFlowSpec> flows,
                               ProxyOptions options)
    : iface_specs_(std::move(ifaces)),
      flow_specs_(std::move(flows)),
      options_(options),
      // Quantum = one chunk: a scheduling turn corresponds to one range
      // request, which is exactly the granularity the proxy controls.
      scheduler_(make_scheduler(
          options.policy,
          SchedulerOptions{.quantum_base = options.chunk_bytes,
                           .observer = options.observer})) {
  MIDRR_REQUIRE(!iface_specs_.empty(), "proxy needs interfaces");
  MIDRR_REQUIRE(options_.chunk_bytes > 0, "chunk size must be positive");

  for (const auto& spec : iface_specs_) {
    const IfaceId id = scheduler_->add_interface(spec.name);
    auto provider = [this](IfaceId j, SimTime now) -> std::optional<Packet> {
      auto chunk = scheduler_->dequeue(j, now);
      if (chunk) {
        // Issue the actual range request text (uplink overhead accounting;
        // the offset rode in via Packet::seq at enqueue time).
        HttpRequest req;
        req.target = "/object/" + std::to_string(chunk->flow);
        req.set_header("Host", "origin.example");
        req.set_header("Connection", "keep-alive");
        req.set_header(
            "Range", ByteRange{chunk->seq, chunk->seq + chunk->size_bytes - 1}
                         .to_range_header());
        ++requests_sent_;
        request_header_bytes_ += req.serialize().size();
        // Keep the pipeline full behind this request.
        const std::size_t idx = index_of(chunk->flow);
        MIDRR_ASSERT(idx < flows_.size(), "chunk for unknown flow");
        top_up(idx, now);
      }
      return chunk;
    };
    auto departure = [this](IfaceId j, const Packet& chunk, SimTime at) {
      on_chunk_received(j, chunk, at);
    };
    links_.push_back(std::make_unique<LinkTransmitter>(
        sim_, id, spec.profile, std::move(provider), std::move(departure)));
  }

  for (const auto& spec : flow_specs_) {
    auto state = std::make_unique<FlowState>(
        options_.sample_interval, options_.rate_window_bins, spec.name);
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
      MIDRR_REQUIRE(found, "proxy flow references unknown interface " + name);
    }
    state->id = scheduler_->add_flow(FlowSpec{
        .weight = spec.weight, .willing = std::move(willing), .name = spec.name});
    state->total_bytes = spec.total_bytes;
    if (index_by_flow_id_.size() <= state->id) {
      index_by_flow_id_.resize(static_cast<std::size_t>(state->id) + 1,
                               kNoIndex);
    }
    index_by_flow_id_[state->id] = flows_.size();
    flows_.push_back(std::move(state));
  }
  window_bytes_.assign(flows_.size(),
                       std::vector<std::uint64_t>(links_.size(), 0));
}

HttpRangeProxy::~HttpRangeProxy() = default;

std::size_t HttpRangeProxy::index_of(FlowId flow) const {
  return flow < index_by_flow_id_.size() ? index_by_flow_id_[flow] : kNoIndex;
}

void HttpRangeProxy::top_up(std::size_t index, SimTime now) {
  FlowState& flow = *flows_[index];
  while (scheduler_->backlog_packets(flow.id) < options_.pipeline_depth) {
    const std::uint64_t remaining = flow.remaining_unrequested();
    if (remaining == 0) break;
    const auto size = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(options_.chunk_bytes, remaining));
    Packet chunk(flow.id, size, /*seq=*/flow.next_request_offset);
    flow.next_request_offset += size;
    const EnqueueResult result = scheduler_->enqueue(std::move(chunk), now);
    MIDRR_ASSERT(result.accepted, "proxy chunk rejected");
    if (result.became_backlogged) {
      for (const auto& link : links_) {
        if (scheduler_->preferences().willing(flow.id, link->iface())) {
          link->notify_backlog();
        }
      }
    }
  }
}

void HttpRangeProxy::on_chunk_received(IfaceId iface, const Packet& chunk,
                                       SimTime at) {
  const std::size_t idx = index_of(chunk.flow);
  MIDRR_ASSERT(idx < flows_.size(), "chunk for unknown flow");
  FlowState& flow = *flows_[idx];

  // Validate the origin's Content-Range round trip (exercises the
  // message layer on the hot path, as the real proxy would).
  const auto head = HttpResponse::partial(
      ByteRange{chunk.seq, chunk.seq + chunk.size_bytes - 1},
      flow.total_bytes == 0 ? chunk.seq + chunk.size_bytes : flow.total_bytes);
  const auto parsed = HttpResponse::parse_head(head.serialize_head());
  MIDRR_ASSERT(parsed.has_value() && parsed->status == 206,
               "malformed partial response");

  flow.reassembler.add(ByteRange{chunk.seq, chunk.seq + chunk.size_bytes - 1});
  window_bytes_[idx][iface] += chunk.size_bytes;

  // Goodput = in-order delivery: meter only the prefix advance.
  const std::uint64_t prefix = flow.reassembler.contiguous_prefix();
  if (prefix > flow.last_prefix) {
    flow.goodput.record(at, prefix - flow.last_prefix);
    flow.last_prefix = prefix;
  }
  if (!flow.completed_at && flow.total_bytes != 0 &&
      prefix >= flow.total_bytes) {
    flow.completed_at = at;
  }
  top_up(idx, at);
}

void HttpRangeProxy::sample() {
  for (auto& flow : flows_) {
    flow->series.add(sim_.now(), to_mbps(flow->goodput.rate_bps(sim_.now())));
  }
  sim_.schedule_in(options_.sample_interval, [this] { sample(); });
}

void HttpRangeProxy::snapshot_clusters() {
  const double window_seconds = to_seconds(options_.cluster_interval);
  std::vector<std::vector<double>> alloc(
      flows_.size(), std::vector<double>(links_.size(), 0.0));
  fair::MaxMinInput input;
  for (const auto& link : links_) {
    input.capacities_bps.push_back(link->profile().rate_at(sim_.now()));
  }
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    input.weights.push_back(scheduler_->preferences().weight(flows_[i]->id));
    std::vector<bool> row;
    for (const auto& link : links_) {
      row.push_back(
          scheduler_->preferences().willing(flows_[i]->id, link->iface()));
    }
    input.willing.push_back(std::move(row));
    for (std::size_t j = 0; j < links_.size(); ++j) {
      alloc[i][j] =
          static_cast<double>(window_bytes_[i][j]) * 8.0 / window_seconds;
      window_bytes_[i][j] = 0;
    }
  }
  ProxyClusterSnapshot snap;
  snap.at = sim_.now();
  snap.analysis = fair::analyze_clusters(input, alloc);
  std::vector<std::string> flow_names;
  for (const auto& spec : flow_specs_) flow_names.push_back(spec.name);
  std::vector<std::string> iface_names;
  for (const auto& spec : iface_specs_) iface_names.push_back(spec.name);
  snap.rendering = fair::format_clusters(snap.analysis, flow_names, iface_names);
  cluster_log_.push_back(std::move(snap));
  sim_.schedule_in(options_.cluster_interval, [this] { snapshot_clusters(); });
}

ProxyResult HttpRangeProxy::run(SimTime duration) {
  for (std::size_t idx = 0; idx < flows_.size(); ++idx) {
    top_up(idx, sim_.now());
  }
  for (const auto& link : links_) link->notify_backlog();

  // Each sampler tick reschedules the next one.
  sim_.schedule_in(options_.sample_interval, [this] { sample(); });
  if (options_.cluster_interval > 0) {
    sim_.schedule_in(options_.cluster_interval, [this] { snapshot_clusters(); });
  }

  sim_.run_until(duration);

  ProxyResult result;
  result.requests_sent = requests_sent_;
  result.request_header_bytes = request_header_bytes_;
  for (std::size_t idx = 0; idx < flows_.size(); ++idx) {
    const FlowState& flow = *flows_[idx];
    ProxyFlowResult fr;
    fr.name = flow_specs_[idx].name;
    fr.goodput_mbps = flow.series;
    fr.delivered_bytes = flow.reassembler.contiguous_prefix();
    fr.received_bytes = flow.reassembler.bytes_received();
    fr.completed_at = flow.completed_at;
    for (const auto& link : links_) {
      fr.chunks_per_iface.push_back(0);
      // chunk counts derive from scheduler byte counters / chunk size.
      fr.chunks_per_iface.back() =
          scheduler_->sent_bytes(flow.id, link->iface()) /
          options_.chunk_bytes;
    }
    result.flows.push_back(std::move(fr));
  }
  result.clusters = cluster_log_;
  return result;
}

}  // namespace midrr::http
