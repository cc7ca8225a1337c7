#include "core/scenario.hpp"

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

ScenarioRunner::ScenarioRunner(const Scenario& scenario, Policy policy,
                               RunnerOptions options)
    : scenario_(scenario),
      options_(options),
      harness_(*this, policy, options.quantum_base, options, options.seed),
      departures_(scenario.flows().size()) {
  MIDRR_REQUIRE(!scenario.interfaces().empty(), "scenario has no interfaces");

  // Interfaces first so flow willingness rows can reference them.
  Simulator& sim = harness_.simulator();
  for (const InterfaceSpec& spec : scenario.interfaces()) {
    LinkTransmitter& link = harness_.add_link(spec.name, spec.profile);
    if (options_.link_jitter > 0.0) {
      link.set_jitter(options_.link_jitter,
                      options_.seed * 1000003 + link.iface());
    }
    if (spec.down_from.has_value()) {
      sim.schedule_at(*spec.down_from, [&link] { link.set_enabled(false); });
      sim.schedule_at(*spec.down_until, [&link] { link.set_enabled(true); });
    }
  }
  for (const ScenarioFlowSpec& spec : scenario.flows()) {
    harness_.add_flow(spec.name);
  }
}

ScenarioRunner::~ScenarioRunner() = default;

void ScenarioRunner::start_flow(std::size_t index) {
  const ScenarioFlowSpec& spec = scenario_.flows()[index];
  harness_.register_flow(index, spec.weight, spec.ifaces,
                         options_.queue_capacity_bytes, spec.make_source());
  harness_.start_source(index);
}

void ScenarioRunner::on_departure(std::size_t index, IfaceId,
                                  const Packet& packet, SimTime at) {
  harness_.record(index, at, packet.size_bytes);
  Departures& departures = departures_[index];
  departures.delay_ns.add(static_cast<double>(at - packet.enqueued_at));
  const SimHarness::Flow& flow = harness_.flow(index);
  if (!departures.completed_at && flow.source->exhausted() &&
      harness_.scheduler().backlog_bytes(flow.id) == 0) {
    departures.completed_at = at;
  }
}

void ScenarioRunner::on_start() {
  for (std::size_t idx = 0; idx < scenario_.flows().size(); ++idx) {
    harness_.simulator().schedule_at(scenario_.flows()[idx].start,
                                     [this, idx] { start_flow(idx); });
  }
}

ScenarioResult ScenarioRunner::run(SimTime until) {
  // run() is incremental (tests use this to snapshot state mid-run).
  harness_.run_until(until);

  const Scheduler& sched = harness_.scheduler();
  const auto& links = harness_.links();
  ScenarioResult result;
  result.policy = sched.policy_name();
  result.duration = harness_.simulator().now();
  result.flows.reserve(harness_.flow_count());
  for (std::size_t idx = 0; idx < harness_.flow_count(); ++idx) {
    const SimHarness::Flow& flow = harness_.flow(idx);
    FlowResult fr;
    fr.name = flow.name();
    fr.id = flow.id;
    fr.weight = scenario_.flows()[idx].weight;
    fr.rate_mbps = flow.series;
    fr.completed_at = departures_[idx].completed_at;
    fr.delay_ns = departures_[idx].delay_ns;
    if (flow.id != kInvalidFlow) {
      fr.bytes_sent = sched.sent_bytes(flow.id);
      fr.dropped_packets = sched.queue_stats(flow.id).dropped_packets;
      fr.dropped_bytes = sched.queue_stats(flow.id).dropped_bytes;
      fr.bytes_per_iface.reserve(links.size());
      for (const auto& link : links) {
        fr.bytes_per_iface.push_back(sched.sent_bytes(flow.id, link->iface()));
      }
    }
    result.flows.push_back(std::move(fr));
  }
  result.ifaces.reserve(links.size());
  for (const auto& link : links) {
    InterfaceResult ir;
    ir.id = link->iface();
    ir.name = sched.preferences().iface_name(link->iface());
    ir.bytes_sent = link->bytes_sent();
    ir.busy_time = link->busy_time();
    result.ifaces.push_back(std::move(ir));
  }
  result.clusters = harness_.clusters();
  return result;
}

}  // namespace midrr
