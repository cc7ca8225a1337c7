#include "http/proxy.hpp"

#include <algorithm>
#include <string>

#include "util/assert.hpp"

namespace midrr::http {

HttpRangeProxy::HttpRangeProxy(std::vector<ProxyInterfaceSpec> ifaces,
                               std::vector<ProxyFlowSpec> flows,
                               ProxyOptions options)
    : options_(options),
      // Quantum = one chunk: a scheduling turn corresponds to one range
      // request, which is exactly the granularity the proxy controls.
      harness_(*this, options.policy, options.chunk_bytes, options) {
  MIDRR_REQUIRE(!ifaces.empty(), "proxy needs interfaces");
  MIDRR_REQUIRE(options_.chunk_bytes > 0, "chunk size must be positive");

  for (ProxyInterfaceSpec& spec : ifaces) {
    harness_.add_link(spec.name, std::move(spec.profile));
  }
  for (const ProxyFlowSpec& spec : flows) {
    const std::size_t index = harness_.add_flow(spec.name);
    harness_.register_flow(index, spec.weight, spec.ifaces, 0, nullptr);
    downloads_.push_back(Download{.total_bytes = spec.total_bytes});
  }
}

HttpRangeProxy::~HttpRangeProxy() = default;

ByteRange HttpRangeProxy::range_of(const Packet& chunk) const {
  const std::uint64_t first = chunk.seq * options_.chunk_bytes;
  return ByteRange{first, first + chunk.size_bytes - 1};
}

void HttpRangeProxy::top_up(std::size_t index) {
  Download& download = downloads_[index];
  const FlowId flow = harness_.flow(index).id;
  while (harness_.scheduler().backlog_packets(flow) < options_.pipeline_depth) {
    const std::uint64_t remaining =
        download.total_bytes == 0
            ? ~0ull
            : download.total_bytes - download.requested_bytes;
    if (remaining == 0) break;
    const auto size = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(options_.chunk_bytes, remaining));
    download.requested_bytes += size;
    const EnqueueResult result = harness_.enqueue(index, size);
    MIDRR_ASSERT(result.accepted, "proxy chunk rejected");
  }
}

void HttpRangeProxy::on_dequeue(std::size_t index, const Packet& chunk) {
  // Write the range request the proxy sends (uplink overhead accounting).
  HttpRequest req;
  req.target = "/object/" + std::to_string(chunk.flow);
  req.set_header("Host", "origin.example");
  req.set_header("Connection", "keep-alive");
  req.set_header("Range", range_of(chunk).to_range_header());
  ++requests_sent_;
  request_header_bytes_ += req.serialize().size();
  // Keep the pipeline full behind this request.
  top_up(index);
}

void HttpRangeProxy::on_departure(std::size_t index, IfaceId,
                                  const Packet& chunk, SimTime at) {
  Download& download = downloads_[index];
  const ByteRange range = range_of(chunk);

  // Validate the origin's Content-Range round trip (exercises the
  // message layer on the hot path, as the real proxy would).
  const auto head = HttpResponse::partial(
      range, download.total_bytes == 0 ? range.last + 1 : download.total_bytes);
  const auto parsed = HttpResponse::parse_head(head.serialize_head());
  MIDRR_ASSERT(parsed.has_value() && parsed->status == 206,
               "malformed partial response");

  // Goodput = in-order delivery: meter only the prefix advance.
  const std::uint64_t before = download.reassembler.contiguous_prefix();
  download.reassembler.add(range);
  const std::uint64_t prefix = download.reassembler.contiguous_prefix();
  if (prefix > before) harness_.record(index, at, prefix - before);
  if (!download.completed_at && download.total_bytes != 0 &&
      prefix >= download.total_bytes) {
    download.completed_at = at;
  }
  top_up(index);
}

void HttpRangeProxy::on_start() {
  for (std::size_t idx = 0; idx < harness_.flow_count(); ++idx) top_up(idx);
  for (const auto& link : harness_.links()) link->notify_backlog();
}

ProxyResult HttpRangeProxy::run(SimTime duration) {
  harness_.run_until(duration);

  const Scheduler& sched = harness_.scheduler();
  ProxyResult result;
  result.requests_sent = requests_sent_;
  result.request_header_bytes = request_header_bytes_;
  for (std::size_t idx = 0; idx < harness_.flow_count(); ++idx) {
    const SimHarness::Flow& flow = harness_.flow(idx);
    const Download& download = downloads_[idx];
    ProxyFlowResult fr;
    fr.name = flow.name();
    fr.goodput_mbps = flow.series;
    fr.delivered_bytes = download.reassembler.contiguous_prefix();
    fr.received_bytes = download.reassembler.bytes_received();
    fr.completed_at = download.completed_at;
    // Chunk counts derive from the scheduler's byte counters.
    for (const auto& link : harness_.links()) {
      fr.chunks_per_iface.push_back(sched.sent_bytes(flow.id, link->iface()) /
                                    options_.chunk_bytes);
    }
    result.flows.push_back(std::move(fr));
  }
  result.clusters = harness_.clusters();
  return result;
}

}  // namespace midrr::http
