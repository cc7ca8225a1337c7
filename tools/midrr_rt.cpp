// midrr_rt: drive the real-time runtime from the command line.
//
//   midrr_rt --flows 1024 --ifaces 8 --workers 4 --duration 10
//
// Builds a runtime with the requested topology (interfaces optionally
// paced), registers `--flows` flows round-robin-willing across the
// interfaces, saturates it with the load generator for `--duration`
// seconds, and prints throughput plus enqueue->dequeue latency
// percentiles.  With `--json` the report is a single JSON object on
// stdout (what bench/rt_throughput collects into BENCH_rt.json).
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/scenario_text.hpp"  // parse_rate_bps
#include "fault/adapt.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fault/recorder.hpp"
#include "fault/supervisor.hpp"
#include "io/udp_backend.hpp"
#include "io/uring_backend.hpp"
#include "io/wire.hpp"
#include "runtime/load_generator.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/build_info.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/fairness_drift.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/stage_latency.hpp"
#include "util/json.hpp"
#include "util/time.hpp"

namespace {

int usage() {
  std::cerr
      << "usage: midrr_rt [options]\n"
         "  --flows N       flows, willing on 2 interfaces each (default 64)\n"
         "  --flows-per-class N  register flows in batches of N sharing one\n"
         "                  flow class (one Pi row, one weight; default 1).\n"
         "                  Pair with --policy hmidrr for two-level DRR\n"
         "  --ifaces N      interfaces (default 4)\n"
         "  --workers N     worker threads (default 1)\n"
         "  --shards N      scheduler shards (default = workers)\n"
         "  --producers N   load-generator threads (default 1)\n"
         "  --duration S    seconds to run (default 2)\n"
         "  --rate R        per-interface capacity, e.g. 100mbps"
         " (default: unpaced)\n"
         "  --load-pps R    aggregate offered rate in packets/s (default 0\n"
         "                  = saturate; pace it to study latency under a\n"
         "                  controlled load instead of full overload)\n"
         "  --packet B      packet size in bytes (default 1000)\n"
         "  --payload M     none|pooled: what each packet carries\n"
         "                  (default none; pooled uses per-producer frame\n"
         "                  pools with cross-thread recycling)\n"
         "  --fanin-batch N max packets per ingress ring per fan-in pass\n"
         "                  (default 1024)\n"
         "  --burst-bytes B max bytes per dequeue burst (default 65536)\n"
         "  --policy P      midrr|hmidrr|drr|wfq|rr|fifo|priority\n"
         "                  (default midrr; hmidrr = miDRR across classes,\n"
         "                  DRR among a class's members)\n"
         "  --churn         exercise the control plane during the run\n"
         "  --fault-plan F  inject the deterministic fault plan in JSON\n"
         "                  file F (see docs/ROBUSTNESS.md for the schema)\n"
         "  --supervise     run the fault supervisor: link-death detection\n"
         "                  and re-steering, worker watchdog, Theorem-2\n"
         "                  replay; /healthz reports degraded links\n"
         "  --backpressure-bytes B  refuse offers for shards holding >= B\n"
         "                  bytes of backlog (0 = off, the default)\n"
         "  --shed-bytes B  weight-aware overload shedding at fan-in past\n"
         "                  B bytes of shard backlog (0 = off, the default)\n"
         "  --shed-target-p99-ms T  adaptive shedding (needs --supervise):\n"
         "                  derive the shed watermark live from measured\n"
         "                  drain rates + traced p99 to hold end-to-end p99\n"
         "                  near T ms; retune via /adapt?target_p99_ms=X\n"
         "                  (implies --stage-sample 64 if unset; overrides\n"
         "                  --shed-bytes once the first probe lands)\n"
         "  --record-faults F  record observed transitions (link dead/\n"
         "                  revive edges, capacity droops, worker stalls,\n"
         "                  shed episodes) as a replayable FaultPlan JSON\n"
         "                  at F on exit (needs --supervise)\n"
         "  --egress B      sim|udp|uring|auto: where dequeued bursts go\n"
         "                  (default sim = pacer-only sink; udp emits real\n"
         "                  datagrams via sendmmsg, see --udp-* below;\n"
         "                  uring needs -DMIDRR_WITH_URING=ON; auto probes\n"
         "                  at startup: uring if built and the kernel\n"
         "                  permits io_uring_setup, else udp if a --udp-*\n"
         "                  destination is configured, else sim)\n"
         "  --udp-dest D    iface=host:port destination mapping, repeatable\n"
         "                  (e.g. --udp-dest if0=127.0.0.1:9000)\n"
         "  --udp-base-port P  fallback for unmapped interfaces: iface j\n"
         "                  sends to 127.0.0.1:P+j (pairs with midrr_rx)\n"
         "  --udp-batch N   messages per sendmmsg call (default 64)\n"
         "  --udp-payload B frame bytes copied per datagram after the\n"
         "                  24-byte header (default 1400, truncating)\n"
         "  --stage-sample N  trace every Nth packet per flow through the\n"
         "                  ring/queue/egress stages (0 = off, the default;\n"
         "                  exports midrr_stage_* latency breakdowns)\n"
         "  --slo S         declare an objective \"class=NAME:p99_ms=X\"\n"
         "                  (repeatable; enables burn-rate gauges and the\n"
         "                  /slo route; implies --stage-sample 64 if unset)\n"
         "  --flight-dump F arm the flight recorder: post-mortem JSON to F\n"
         "                  on /healthz degrade or a conservation-identity\n"
         "                  trip at stop (fatal signals write F.fatal)\n"
         "  --json          machine-readable report on stdout\n"
         "  --telemetry P   serve /metrics, /healthz, /flows, /classes,\n"
         "                  /buildinfo (/slo with --slo, /adapt with\n"
         "                  --shed-target-p99-ms) on 127.0.0.1:P\n"
         "                  (0 = ephemeral; bound port printed to stderr)\n"
         "  --trace-out F   log scheduler events + worker spans into the\n"
         "                  flight lanes, write Chrome trace-event JSON of\n"
         "                  their common window to F after the run\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace midrr;
  using namespace midrr::rt;

  std::size_t flows = 64;
  std::size_t flows_per_class = 1;
  std::size_t ifaces = 4;
  std::size_t workers = 1;
  std::size_t shards = 0;  // 0 = match workers
  std::size_t producers = 1;
  double duration_s = 2.0;
  double rate_bps = 0.0;
  double load_pps = 0.0;  // 0 = saturate
  std::uint32_t packet_bytes = 1000;
  auto payload = LoadGeneratorOptions::PayloadMode::kNone;
  std::size_t fanin_batch = 0;     // 0 = runtime default
  std::uint64_t burst_bytes = 0;   // 0 = runtime default
  Policy policy = Policy::kMiDrr;
  bool churn = false;
  std::string fault_plan_file;
  bool supervise = false;
  std::uint64_t backpressure_bytes = 0;
  std::uint64_t shed_bytes = 0;
  SimDuration shed_target_p99_ns = 0;  // 0 = static watermark
  std::string record_faults_file;
  std::string egress_name = "sim";
  std::vector<std::string> udp_dests;
  std::uint16_t udp_base_port = 0;
  std::size_t udp_batch = 64;
  std::size_t udp_payload = 1400;
  bool json = false;
  int telemetry_port = -1;  // < 0 = no HTTP endpoint
  std::string trace_out;
  std::uint32_t stage_sample = 0;
  std::vector<telemetry::SloSpec> slo_specs;
  std::string flight_dump;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
        return argv[++i];
      };
      if (key == "--flows") flows = std::stoul(value());
      else if (key == "--flows-per-class") flows_per_class = std::stoul(value());
      else if (key == "--ifaces") ifaces = std::stoul(value());
      else if (key == "--workers") workers = std::stoul(value());
      else if (key == "--shards") shards = std::stoul(value());
      else if (key == "--producers") producers = std::stoul(value());
      else if (key == "--duration") duration_s = std::stod(value());
      else if (key == "--rate") rate_bps = parse_rate_bps(value());
      else if (key == "--load-pps") load_pps = std::stod(value());
      else if (key == "--packet")
        packet_bytes = static_cast<std::uint32_t>(std::stoul(value()));
      else if (key == "--payload") {
        const std::string mode = value();
        if (mode == "none") payload = LoadGeneratorOptions::PayloadMode::kNone;
        else if (mode == "pooled")
          payload = LoadGeneratorOptions::PayloadMode::kPooled;
        else throw std::runtime_error("unknown payload mode: " + mode);
      }
      else if (key == "--fanin-batch") fanin_batch = std::stoul(value());
      else if (key == "--burst-bytes") burst_bytes = std::stoull(value());
      else if (key == "--policy") policy = parse_policy(value());
      else if (key == "--churn") churn = true;
      else if (key == "--fault-plan") fault_plan_file = value();
      else if (key == "--supervise") supervise = true;
      else if (key == "--backpressure-bytes")
        backpressure_bytes = std::stoull(value());
      else if (key == "--shed-bytes") shed_bytes = std::stoull(value());
      else if (key == "--shed-target-p99-ms") {
        const std::string text = value();
        const std::optional<SimDuration> target = parse_ms(text);
        if (!target) {
          throw std::runtime_error(
              "bad --shed-target-p99-ms (want milliseconds in [0, 1e9]): " +
              text);
        }
        shed_target_p99_ns = *target;
      }
      else if (key == "--record-faults") record_faults_file = value();
      else if (key == "--egress") egress_name = value();
      else if (key == "--udp-dest") udp_dests.push_back(value());
      else if (key == "--udp-base-port")
        udp_base_port = static_cast<std::uint16_t>(std::stoul(value()));
      else if (key == "--udp-batch") udp_batch = std::stoul(value());
      else if (key == "--udp-payload") udp_payload = std::stoul(value());
      else if (key == "--json") json = true;
      else if (key == "--telemetry") telemetry_port = std::stoi(value());
      else if (key == "--trace-out") trace_out = value();
      else if (key == "--stage-sample")
        stage_sample = static_cast<std::uint32_t>(std::stoul(value()));
      else if (key == "--slo") {
        const std::string text = value();
        telemetry::SloSpec spec;
        if (!telemetry::parse_slo_spec(text, &spec)) {
          throw std::runtime_error(
              "bad --slo (want class=NAME:p99_ms=X, X in (0, 1e9]): " + text);
        }
        slo_specs.push_back(std::move(spec));
      }
      else if (key == "--flight-dump") flight_dump = value();
      else return usage();
    }
    if (flows == 0 || flows_per_class == 0 || ifaces == 0 || duration_s <= 0.0)
      return usage();
    // Burn rates consume the tracer's sampled e2e latencies; an SLO with
    // no tracer would sit silently at 0 forever.  Same for the adaptive
    // shedding loop's windowed p99.
    if (!slo_specs.empty() && stage_sample == 0) stage_sample = 64;
    if (shed_target_p99_ns > 0 && stage_sample == 0) stage_sample = 64;
    if (shed_target_p99_ns > 0 && !supervise) {
      throw std::runtime_error("--shed-target-p99-ms needs --supervise "
                               "(the loop runs off the probe cadence)");
    }
    if (!record_faults_file.empty() && !supervise) {
      throw std::runtime_error("--record-faults needs --supervise (the "
                               "recorder mirrors supervisor verdicts)");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  }

  if (shards == 0) shards = workers;

  RuntimeOptions options;
  options.policy = policy;
  options.workers = workers;
  options.shards = shards;
  options.producers = producers;
  if (fanin_batch != 0) options.fanin_batch = fanin_batch;
  if (burst_bytes != 0) options.burst_bytes = burst_bytes;
  // Flow ids are never reused, so the arena must cover every churn add
  // (one per ~1 ms of runtime) on top of the static flows.
  options.max_flows =
      flows + 16 +
      (churn ? static_cast<std::size_t>(duration_s * 1200.0) + 64 : 0);

  // The registry outlives the runtime (its callbacks point into it).
  telemetry::MetricsRegistry registry;
  const bool telemetry_on = telemetry_port >= 0 || !trace_out.empty();
  if (telemetry_on) {
    options.metrics = &registry;
    telemetry::register_build_info(registry);
    options.trace = !trace_out.empty();
  }

  try {
    // The injector outlives the runtime (fault seams hold a pointer).
    std::unique_ptr<fault::FaultInjector> injector;
    if (!fault_plan_file.empty()) {
      injector = std::make_unique<fault::FaultInjector>(
          fault::FaultPlan::parse_file(fault_plan_file));
      options.fault = injector.get();
    }
    options.backpressure_bytes = backpressure_bytes;
    options.shed_bytes = shed_bytes;
    options.stage_sample_every = stage_sample;

    // SLO engine and flight recorder outlive the runtime (hot-path and
    // scrape callbacks hold pointers).  Every flight lane the TOOL writes
    // is registered here, before start() -- the runtime adds its shard
    // and worker lanes itself, and nothing may add one after.  The trace
    // and the post-mortem dump share the recorder; a traced run keeps
    // deep lanes (packet-rate scheduler events fill them fast), of which
    // a dump still writes only the newest FlightRecorder::kDumpLaneEvents.
    std::unique_ptr<telemetry::SloEngine> slo;
    if (!slo_specs.empty()) {
      slo = std::make_unique<telemetry::SloEngine>(std::move(slo_specs),
                                                   options.max_flows);
      options.slo = slo.get();
    }
    constexpr std::size_t kTraceLaneEvents = 64 * 1024;
    std::unique_ptr<telemetry::FlightRecorder> flight;
    telemetry::FlightLog* health_flight = nullptr;   // server thread
    telemetry::FlightLog* tool_flight = nullptr;     // main thread
    telemetry::FlightLog* supervisor_flight = nullptr;  // probe thread
    if (!flight_dump.empty() || options.trace) {
      flight = std::make_unique<telemetry::FlightRecorder>(
          options.trace ? kTraceLaneEvents
                        : telemetry::FlightRecorder::kDumpLaneEvents);
      tool_flight = &flight->add_writer("tool");
      health_flight = &flight->add_writer("health");
      if (supervise) supervisor_flight = &flight->add_writer("supervisor");
      options.flight = flight.get();
    }
    if (!flight_dump.empty() &&
        !flight->arm_fatal_dump(flight_dump + ".fatal")) {
      std::cerr << "warning: cannot arm fatal dump at " << flight_dump
                << ".fatal\n";
    }

    // Destination resolution, shared by the udp and uring backends: with
    // no mapping at all, pair with midrr_rx's defaults (iface j ->
    // 127.0.0.1:19000+j).
    const std::uint16_t dest_base_port =
        udp_base_port != 0 ? udp_base_port
        : udp_dests.empty() ? std::uint16_t{19000}
                            : std::uint16_t{0};
    const auto parse_dests =
        [&udp_dests](
            std::unordered_map<std::string, io::UdpDestination>& out) {
          for (const std::string& spec : udp_dests) {
            const auto eq = spec.find('=');
            const auto colon = spec.rfind(':');
            if (eq == std::string::npos || colon == std::string::npos ||
                colon < eq) {
              throw std::runtime_error(
                  "bad --udp-dest (want iface=host:port): " + spec);
            }
            io::UdpDestination dest;
            dest.host = spec.substr(eq + 1, colon - eq - 1);
            dest.port = static_cast<std::uint16_t>(
                std::stoul(spec.substr(colon + 1)));
            out[spec.substr(0, eq)] = dest;
          }
        };

    // `--egress auto`: probe once at startup and report the verdict.  The
    // chosen name then flows through the normal construction below, the
    // midrr_rt_egress_backend info gauge, and /buildinfo.
    if (egress_name == "auto") {
      int probe_errno = 0;
      if (io::uring_supported() && io::uring_runtime_available(&probe_errno)) {
        egress_name = "uring";
        std::cerr << "egress: auto -> uring (io_uring_setup permitted)\n";
      } else if (!udp_dests.empty() || udp_base_port != 0) {
        egress_name = "udp";
        std::cerr << "egress: auto -> udp ("
                  << (!io::uring_supported()
                          ? "uring not built"
                          : std::string("io_uring_setup failed: ") +
                                std::strerror(probe_errno))
                  << "; udp destination configured)\n";
      } else {
        egress_name = "sim";
        std::cerr << "egress: auto -> sim ("
                  << (!io::uring_supported()
                          ? "uring not built"
                          : std::string("io_uring_setup failed: ") +
                                std::strerror(probe_errno))
                  << "; no udp destination)\n";
      }
    }

    // The egress backend outlives the runtime (stop()'s final flush and
    // the report both reach into it).  Null = the built-in sim backend.
    std::unique_ptr<io::EgressBackend> egress;
    io::UringBackend* uring = nullptr;  // set iff the uring backend is live
    if (egress_name == "udp") {
      io::UdpBackendOptions uopts;
      uopts.base_port = dest_base_port;
      uopts.max_batch = udp_batch;
      uopts.max_payload_bytes = udp_payload;
      parse_dests(uopts.dest_by_name);
      egress = std::make_unique<io::UdpBackend>(uopts);
    } else if (egress_name == "uring") {
      if (!io::uring_supported()) {
        throw std::runtime_error(
            "io_uring egress backend not built: reconfigure with "
            "-DMIDRR_WITH_URING=ON");
      }
      io::UringBackendOptions uopts;
      uopts.base_port = dest_base_port;
      uopts.max_payload_bytes = udp_payload;
      parse_dests(uopts.dest_by_name);
      // Constructed concretely (not via the factory) so the tool can hand
      // the load generator's precarved slabs to register_frame_pool below.
      auto backend = std::make_unique<io::UringBackend>(std::move(uopts));
      uring = backend.get();
      egress = std::move(backend);
    } else if (egress_name != "sim") {
      throw std::runtime_error("unknown egress backend: " + egress_name);
    }
    options.egress = egress.get();

    Runtime runtime(options);
    for (std::size_t j = 0; j < ifaces; ++j) {
      const std::string name = "if" + std::to_string(j);
      if (rate_bps > 0.0) {
        runtime.add_interface(name, RateProfile(rate_bps));
      } else {
        runtime.add_interface(name);
      }
    }
    // Each class is willing on two adjacent interfaces (wrap-around), the
    // minimal topology where miDRR's cross-interface coupling matters.
    // --flows-per-class registers whole batches under one Pi row: one
    // class-delta publish per batch, not one per flow.
    for (std::size_t i = 0; i < flows; i += flows_per_class) {
      const std::size_t batch = std::min(flows_per_class, flows - i);
      const std::size_t group = i / flows_per_class;
      RtFlowSpec spec;
      spec.weight = 1.0;
      spec.name = (flows_per_class == 1 ? "f" : "c") + std::to_string(group);
      spec.willing.push_back(static_cast<IfaceId>(group % ifaces));
      if (ifaces > 1) {
        spec.willing.push_back(static_cast<IfaceId>((group + 1) % ifaces));
      }
      runtime.control().add_members(spec, batch);
    }

    // Bind declared objectives to the ClassIds the registration above
    // interned.  A spec naming no live class stays unbound (its burn rate
    // reads 0); churn-created classes are deliberately not bound.
    if (slo != nullptr) {
      auto reader = runtime.control().reader();
      const auto guard = reader.lock();
      for (const ClassId id : guard->live) {
        const SnapshotClass& c = guard->entry(id);
        slo->bind_class(id, c.name.empty() ? "class" + std::to_string(id)
                                           : c.name);
      }
    }

    runtime.start();

    // The supervisor probes AFTER start() (worker slots exist only then).
    std::unique_ptr<fault::Supervisor> supervisor;
    std::unique_ptr<fault::AdaptiveController> adapt;
    std::unique_ptr<fault::FaultPlanRecorder> recorder;
    if (supervise) {
      supervisor = std::make_unique<fault::Supervisor>(
          runtime, fault::SupervisorOptions{}, &runtime);
      if (supervisor_flight != nullptr) {
        supervisor->set_flight_log(supervisor_flight);
      }
      // The closed loop rides the probe cadence: each probe window feeds
      // measured drain rates into the controller, which re-lowers the
      // capacities fairness sampling sees and retunes the shed watermark.
      fault::AdaptOptions aopts;
      aopts.target_p99_ns = shed_target_p99_ns;
      adapt = std::make_unique<fault::AdaptiveController>(runtime, aopts);
      runtime.set_capacity_overlay(adapt.get());
      supervisor->set_adaptive(adapt.get());
      if (!record_faults_file.empty()) {
        recorder = std::make_unique<fault::FaultPlanRecorder>(1);
        supervisor->set_recorder(recorder.get());
        adapt->set_recorder(recorder.get());
      }
      if (telemetry_on) {
        supervisor->register_metrics(registry);
        adapt->register_metrics(registry);
      }
      supervisor->start();
    }

    std::unique_ptr<telemetry::FairnessDriftSampler> sampler;
    std::unique_ptr<telemetry::TelemetryServer> server;
    if (telemetry_on) {
      sampler =
          std::make_unique<telemetry::FairnessDriftSampler>(runtime, registry);
      sampler->start();
    }
    if (telemetry_port >= 0) {
      telemetry::TelemetryServer::Options sopts;
      sopts.port = static_cast<std::uint16_t>(telemetry_port);
      server = std::make_unique<telemetry::TelemetryServer>(sopts);
      server->serve_registry(registry);
      {
        // Health reflects supervision: 503 while any link is suspect or
        // dead, so orchestrators see degradation (and recovery) live.
        // The detail lines always include the egress backend's view
        // (syscalls, hard send errors) -- sustained send errors are what
        // drive the supervisor's suspect verdicts under real I/O.
        fault::Supervisor* sup = supervisor.get();  // may be null
        fault::AdaptiveController* ad = adapt.get();  // may be null
        Runtime* rt = &runtime;
        telemetry::FlightRecorder* fr = flight.get();  // may be null
        telemetry::FlightLog* health_log = health_flight;
        // Degrade-edge latch: the post-mortem is written on the healthy ->
        // degraded TRANSITION, not on every probe of a flapping state.
        auto was_degraded = std::make_shared<std::atomic<bool>>(false);
        const std::string dump_path = flight_dump;
        server->handle("/healthz", [sup, ad, rt, fr, health_log, was_degraded,
                                    dump_path](const http::HttpRequest&) {
          telemetry::HandlerResult r;
          std::ostringstream body;
          if (sup != nullptr) {
            for (std::size_t j = 0; j < rt->iface_count(); ++j) {
              const fault::LinkState state =
                  sup->link_state(static_cast<IfaceId>(j));
              if (state != fault::LinkState::kHealthy) {
                r.status = 503;
                body << rt->iface_name(static_cast<IfaceId>(j)) << ": "
                     << fault::to_string(state) << "\n";
              }
            }
          }
          const bool degraded_now = r.status != 200;
          if (fr != nullptr &&
              degraded_now != was_degraded->exchange(degraded_now)) {
            const std::uint64_t t = static_cast<std::uint64_t>(rt->now_ns());
            if (health_log != nullptr) {
              health_log->log(t, telemetry::FlightCategory::kHealth,
                              degraded_now
                                  ? telemetry::FlightCode::kHealthDegraded
                                  : telemetry::FlightCode::kHealthRecovered);
            }
            if (degraded_now && !dump_path.empty()) {
              fr->dump_to_file(dump_path, "healthz degraded", t);
            }
          }
          const RuntimeStats s = rt->stats();
          std::ostringstream detail;
          detail << "egress: " << rt->egress().name() << " syscalls="
                 << s.io_syscalls << " send_errors=" << s.io_send_errors;
          for (std::size_t j = 0; j < rt->iface_count(); ++j) {
            const std::uint64_t errs =
                rt->iface_send_errors(static_cast<IfaceId>(j));
            if (errs != 0) {
              detail << " " << rt->iface_name(static_cast<IfaceId>(j))
                     << "_errors=" << errs;
            }
          }
          if (ad != nullptr) {
            // Shedding state rides along so orchestrators can tell "503
            // because a link died" apart from "200 but actively shedding
            // to hold the latency target".
            detail << "\nshedding active=" << (ad->shed_active() ? 1 : 0)
                   << " shed_bytes=" << rt->shed_bytes()
                   << " target_p99_ms="
                   << static_cast<double>(ad->target_p99_ns()) / 1e6;
          }
          r.body = (r.status == 200 ? "ok\n" : "degraded\n" + body.str()) +
                   detail.str() + "\n";
          return r;
        });
      }
      telemetry::FairnessDriftSampler* drift = sampler.get();
      Runtime* rt = &runtime;
      server->handle("/flows", [rt, drift](const http::HttpRequest&) {
        telemetry::HandlerResult r;
        r.content_type = "application/json";
        r.body = telemetry::flows_json(rt->fairness_sample(), drift->last());
        return r;
      });
      // The interned class table: one row per live class (the unit the
      // control plane publishes and the hierarchical scheduler serves).
      ControlPlane* control = &runtime.control();
      server->handle("/classes", [control](const http::HttpRequest&) {
        telemetry::HandlerResult r;
        r.content_type = "application/json";
        auto reader = control->reader();
        const auto guard = reader.lock();
        JsonWriter body;
        body.begin_object().field("classes", guard->live.size())
            .field("flows", control->flow_count())
            .field("version", guard->version).key("rows").begin_array();
        for (const ClassId id : guard->live) {
          const SnapshotClass& c = guard->entry(id);
          body.begin_object().field("id", id)
              .field("name", c.name.empty() ? "class" + std::to_string(id)
                                            : c.name)
              .field("weight", c.weight).field("members", c.members)
              .field("quarantined", c.quarantined).key("willing")
              .begin_array();
          for (const IfaceId k : c.willing) body.value(k);
          body.end_array().key("shards").begin_array();
          for (const std::uint32_t k : c.shards) body.value(k);
          body.end_array().end_object();
        }
        body.end_array().end_object();
        r.body = body.str();
        return r;
      });
      // Build facts plus the one runtime fact orchestrators ask for:
      // which egress backend `--egress auto` (or the operator) picked.
      const std::string egress_label = runtime.egress().name();
      server->handle("/buildinfo", [egress_label](const http::HttpRequest&) {
        telemetry::HandlerResult r;
        r.content_type = "application/json";
        JsonWriter body;
        body.begin_object();
        telemetry::write_build_info(body);
        body.field("egress", egress_label).end_object();
        r.body = body.str();
        return r;
      });
      if (slo != nullptr) {
        telemetry::SloEngine* slo_ptr = slo.get();
        Runtime* rt2 = &runtime;
        server->handle("/slo", [slo_ptr, rt2](const http::HttpRequest&) {
          telemetry::HandlerResult r;
          r.content_type = "application/json";
          r.body =
              slo_ptr->json(static_cast<std::uint64_t>(rt2->now_ns()));
          return r;
        });
      }
      if (adapt != nullptr) {
        // Live view of the closed loop, plus the retune knob: GET
        // /adapt?target_p99_ms=X moves the latency target without a
        // restart (0 disarms adaptive shedding).
        fault::AdaptiveController* ad = adapt.get();
        server->handle("/adapt", [ad](const http::HttpRequest& req) {
          telemetry::HandlerResult r;
          if (const auto ms = req.query("target_p99_ms")) {
            const std::optional<SimDuration> target = parse_ms(*ms);
            if (!target) {
              r.status = 400;
              r.content_type = "text/plain";
              r.body = "bad target_p99_ms (want milliseconds in [0, 1e9])\n";
              return r;
            }
            ad->set_target_p99_ns(*target);
          }
          r.content_type = "application/json";
          JsonWriter body;
          ad->write_json(body);
          r.body = body.str();
          return r;
        });
      }
      server->start();
      std::cerr << "telemetry: http://127.0.0.1:" << server->port()
                << "/metrics\n";
    }

    LoadGeneratorOptions load;
    load.producers = producers;
    load.packet_bytes = packet_bytes;
    load.payload = payload;
    load.rate_pps = load_pps;
    if (uring != nullptr &&
        payload == LoadGeneratorOptions::PayloadMode::kPooled) {
      // Zero-copy prerequisites: headroom so the wire header prepends in
      // place, and a frozen slab directory so every slab can be registered
      // as a fixed buffer exactly once, below.
      load.frame_headroom = io::kWireScratchBytes;
      load.pool.precarve = true;
    }
    LoadGenerator generator(runtime, load);
    if (telemetry_on) generator.register_pool_metrics(registry);
    if (uring != nullptr) {
      for (std::size_t p = 0; p < producers; ++p) {
        if (const net::FramePool* fp = generator.frame_pool(p)) {
          uring->register_frame_pool(*fp);
        }
      }
    }

    const auto t0 = std::chrono::steady_clock::now();
    generator.start();

    // Optional control-plane churn: add/retire flows and flip preferences
    // while the datapath runs (this is the TSan soak's job).
    std::uint64_t churn_ops = 0;
    const auto deadline =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(duration_s));
    if (churn) {
      auto& control = runtime.control();
      std::vector<FlowId> extra;
      while (std::chrono::steady_clock::now() < deadline) {
        RtFlowSpec spec;
        spec.name = "churn" + std::to_string(churn_ops);
        spec.willing.push_back(static_cast<IfaceId>(churn_ops % ifaces));
        const FlowId id = control.add_flow(spec);
        control.set_weight(id, 2.0);
        control.set_willing(
            id, static_cast<IfaceId>((churn_ops + 1) % ifaces), true);
        extra.push_back(id);
        if (extra.size() > 8) {
          control.remove_flow(extra.front());
          extra.erase(extra.begin());
        }
        ++churn_ops;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } else {
      std::this_thread::sleep_until(deadline);
    }

    generator.stop();
    if (payload == LoadGeneratorOptions::PayloadMode::kPooled) {
      // Let the workers drain everything the generator offered so every
      // pooled frame is released before we read the leak accounting
      // (acquired == released).  Bounded: unpaced drains in microseconds;
      // a paced run may legitimately time out with frames still queued.
      const auto drain_deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (std::chrono::steady_clock::now() < drain_deadline) {
        const RuntimeStats s = runtime.stats();
        // Dequeue is no longer terminal: a frame stays live while its
        // packet sits in an egress requeue stash (io_pending) or inside a
        // completion-driven backend awaiting its CQE (io_inflight), so
        // quiescence also needs the egress split to close with both
        // residual terms at zero: dequeued == sent + io_drops.  Under
        // --egress sim, sent == dequeued and this reduces to the old
        // check.
        if (s.offered == s.enqueued + s.fanin_drops &&
            s.enqueued == s.dequeued + s.tail_drops &&
            s.dequeued == s.sent + s.io_drops) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    if (server != nullptr) server->stop();
    if (sampler != nullptr) sampler->stop();
    if (supervisor != nullptr) supervisor->stop();
    if (adapt != nullptr) {
      // Probing has stopped; close any droop episode still open so the
      // recorded plan carries its full span.
      adapt->finalize(runtime.now_ns());
    }
    if (recorder != nullptr) {
      if (recorder->write_file(record_faults_file)) {
        std::cerr << "faults: " << recorder->event_count() << " events, "
                  << recorder->note_count() << " notes -> "
                  << record_faults_file << "\n";
      } else {
        std::cerr << "warning: cannot write " << record_faults_file << "\n";
      }
    }
    runtime.stop();
    if (!flight_dump.empty()) {
      // stop() flushed or counted every parked egress tail, so the egress
      // split must close exactly; a mismatch is an accounting bug worth a
      // post-mortem.  Either way the run ends with a dump on disk -- the
      // quiescent timeline is the artifact CI archives.
      const RuntimeStats s = runtime.stats();
      const std::uint64_t now =
          static_cast<std::uint64_t>(runtime.now_ns());
      if (s.dequeued != s.sent + s.io_drops) {
        tool_flight->log(now, telemetry::FlightCategory::kHealth,
                         telemetry::FlightCode::kConservationTrip, s.dequeued,
                         s.sent + s.io_drops);
        flight->dump_to_file(flight_dump, "conservation identity tripped",
                             now);
        std::cerr << "flight: conservation identity tripped (dequeued="
                  << s.dequeued << " != sent+io_drops="
                  << s.sent + s.io_drops << "), dump -> " << flight_dump
                  << "\n";
      } else {
        flight->dump_to_file(flight_dump, "shutdown snapshot", now);
      }
    }
    if (!trace_out.empty()) {
      std::vector<std::string> iface_names;
      for (IfaceId j = 0; j < runtime.iface_count(); ++j) {
        iface_names.push_back(runtime.iface_name(j));
      }
      const telemetry::ChromeTrace trace =
          telemetry::render_chrome_trace(*flight, iface_names);
      std::ofstream trace_file(trace_out);
      if (!trace_file) {
        std::cerr << "error: cannot write " << trace_out << "\n";
        return 1;
      }
      trace_file << trace.json;
      std::cerr << "trace: " << trace.events << " events -> " << trace_out
                << "\n";
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    const RuntimeStats stats = runtime.stats();
    std::uint64_t fixed = 0, fallback = 0, requeues = 0, shorts = 0;
    std::uint64_t notifs = 0, copied = 0;  // uring counters, all interfaces
    for (std::size_t j = 0; uring != nullptr && j < ifaces; ++j) {
      const auto id = static_cast<IfaceId>(j);
      fixed += uring->fixed_sends(id);
      fallback += uring->fallback_sends(id);
      requeues += uring->cqe_requeues(id);
      shorts += uring->short_writes(id);
      notifs += uring->zc_notifs(id);
      copied += uring->zc_copied(id);
    }
    const PacketPoolStats pool = generator.pool_stats();
    const bool pooled =
        payload == LoadGeneratorOptions::PayloadMode::kPooled;
    const double pps = static_cast<double>(stats.dequeued) / elapsed;
    const double gbps_out =
        static_cast<double>(stats.dequeued_bytes) * 8.0 / elapsed / 1e9;

    if (json) {
      JsonWriter out;
      out.begin_object().field("policy", to_string(policy))
          .field("flows", flows).field("flows_per_class", flows_per_class)
          .field("classes", runtime.control().class_count())
          .field("ifaces", ifaces).field("workers", workers)
          .field("shards", shards).field("producers", producers)
          .field("duration_s", elapsed)
          .field("offered", stats.offered)
          .field("ring_rejects", stats.ring_rejects)
          .field("enqueued", stats.enqueued)
          .field("dequeued", stats.dequeued)
          .field("dequeued_bytes", stats.dequeued_bytes)
          .field("fanin_drops", stats.fanin_drops)
          .field("tail_drops", stats.tail_drops)
          .field("straggler_drops", stats.straggler_drops)
          .field("shed_drops", stats.shed_drops)
          .field("backpressure_rejects", stats.backpressure_rejects)
          .field("quarantine_rejects", stats.quarantine_rejects)
          .field("worker_restarts", stats.worker_restarts)
          .field("bursts", stats.bursts).field("parks", stats.parks)
          .field("churn_ops", churn_ops)
          .field("metrics_series", registry.series_count())
          .key("egress").begin_object()
          .field("backend", runtime.egress().name())
          .field("sent", stats.sent).field("sent_bytes", stats.sent_bytes)
          .field("io_requeued", stats.io_requeued)
          .field("io_drops", stats.io_drops)
          .field("io_pending", stats.io_pending)
          .field("io_inflight", stats.io_inflight)
          .field("send_errors", stats.io_send_errors)
          .field("syscalls", stats.io_syscalls);
      if (uring != nullptr) {
        out.key("uring").begin_object()
            .field("zerocopy_active", uring->zerocopy_active())
            .field("registered_buffers", uring->registered_buffers())
            .field("fixed_sends", fixed).field("fallback_sends", fallback)
            .field("cqe_requeues", requeues).field("short_writes", shorts)
            .field("zc_notifs", notifs).field("zc_copied", copied)
            .field("cq_overflows", uring->cq_overflows()).end_object();
      }
      out.end_object();
      if (const telemetry::StageTracer* tracer = runtime.stage_tracer()) {
        const LatencySnapshot e2e = tracer->e2e_merged();
        out.key("stage").begin_object()
            .field("sample_every", tracer->sample_every())
            .field("started", tracer->started())
            .field("completed", tracer->completed())
            .field("lost", tracer->lost()).field("dropped", tracer->dropped())
            .field("reconciliation_error", tracer->reconciliation_error());
        for (std::size_t st = 0; st < telemetry::kStageCount; ++st) {
          const auto stage = static_cast<telemetry::Stage>(st);
          const LatencySnapshot merged = tracer->stage_merged(stage);
          const std::string name = telemetry::to_string(stage);
          out.field(name + "_p50_ns", merged.quantile(0.50))
              .field(name + "_p99_ns", merged.quantile(0.99));
        }
        out.field("e2e_p50_ns", e2e.quantile(0.50))
            .field("e2e_p99_ns", e2e.quantile(0.99)).end_object();
      }
      if (slo != nullptr) {
        slo->write_json(out.key("slo"),
                        static_cast<std::uint64_t>(runtime.now_ns()));
      }
      if (!flight_dump.empty()) {
        out.key("flight").begin_object()
            .field("events", flight->events_logged())
            .field("dumps", flight->dumps())
            .field("dump_path", flight_dump).end_object();
      }
      if (injector != nullptr) {
        out.key("fault").begin_object()
            .field("ingress_drops", injector->ingress_drops())
            .field("ingress_dups", injector->ingress_dups())
            .field("ingress_delays", injector->ingress_delays())
            .field("pool_rejects", injector->pool_rejects())
            .field("worker_stalls", injector->stalls_entered())
            .field("iface_transitions", injector->iface_transitions())
            .end_object();
      }
      if (supervisor != nullptr) {
        out.key("supervisor").begin_object()
            .field("link_transitions", supervisor->transitions())
            .field("restarts_attempted", supervisor->restarts_attempted())
            .field("restarts_succeeded", supervisor->restarts_succeeded())
            .field("restarts_refused", supervisor->restarts_refused())
            .field("clustering_checks", supervisor->clustering_checks())
            .field("clustering_violations",
                   supervisor->clustering_violations())
            .key("verdict_sequence").begin_array();
        for (const std::string& verdict : supervisor->verdict_sequence()) {
          out.value(verdict);
        }
        out.end_array().end_object();
      }
      if (adapt != nullptr) adapt->write_json(out.key("adapt"));
      if (pooled) write_json(out.key("pool"), pool);
      out.field("pps", pps).field("gbps", gbps_out)
          .field("latency_count", stats.latency_count)
          .field("latency_p50_ns", stats.latency_p50_ns)
          .field("latency_p90_ns", stats.latency_p90_ns)
          .field("latency_p99_ns", stats.latency_p99_ns)
          .field("latency_p999_ns", stats.latency_p999_ns)
          .field("latency_mean_ns", stats.latency_mean_ns).end_object();
      std::cout << out.str() << "\n";
    } else {
      std::cout << "midrr_rt: " << to_string(policy) << ", " << flows
                << " flows in " << runtime.control().class_count()
                << " classes x " << ifaces << " ifaces, " << workers
                << " workers / " << shards << " shards, " << elapsed
                << " s\n"
                << "  offered   " << stats.offered << " pkts ("
                << stats.ring_rejects << " ring rejects)\n"
                << "  dequeued  " << stats.dequeued << " pkts  ("
                << pps / 1e6 << " Mpps, " << gbps_out << " Gb/s)\n"
                << "  drops     " << stats.fanin_drops << " fan-in, "
                << stats.tail_drops << " tail, " << stats.straggler_drops
                << " straggler, " << stats.shed_drops << " shed ("
                << stats.backpressure_rejects << " backpressure rejects, "
                << stats.quarantine_rejects << " quarantine rejects)\n"
                << "  egress    " << runtime.egress().name() << ": "
                << stats.sent << " sent, " << stats.io_requeued
                << " requeue events, " << stats.io_drops << " io drops, "
                << stats.io_pending << " pending, " << stats.io_inflight
                << " inflight, " << stats.io_syscalls << " syscalls, "
                << stats.io_send_errors << " send errors\n";
      if (uring != nullptr) {
        std::cout << "  uring     " << fixed << " zero-copy sends / "
                  << fallback << " fallback sends, "
                  << uring->registered_buffers() << " registered buffers, "
                  << uring->cq_overflows() << " cq overflows (zerocopy "
                  << (uring->zerocopy_active() ? "active" : "inactive")
                  << ")\n";
      }
      if (churn) std::cout << "  churn     " << churn_ops << " control ops\n";
      if (injector != nullptr) {
        std::cout << "  faults    " << injector->ingress_drops() << " drops, "
                  << injector->ingress_dups() << " dups, "
                  << injector->ingress_delays() << " delays, "
                  << injector->pool_rejects() << " pool rejects, "
                  << injector->stalls_entered() << " stalls, "
                  << injector->iface_transitions() << " iface transitions\n";
      }
      if (supervisor != nullptr) {
        std::cout << "  supervise " << supervisor->transitions()
                  << " link transitions, " << supervisor->restarts_succeeded()
                  << "/" << supervisor->restarts_attempted()
                  << " restarts, clustering "
                  << supervisor->clustering_checks() << " checks / "
                  << supervisor->clustering_violations() << " violations\n";
      }
      if (adapt != nullptr) {
        std::cout << "  adapt     " << adapt->updates() << " updates, "
                  << adapt->retunes() << " retunes (shed_bytes="
                  << runtime.shed_bytes() << ", "
                  << adapt->shed_engages() << " engages), droop "
                  << adapt->droop_enters() << " enters / "
                  << adapt->droop_exits() << " exits\n";
      }
      if (pooled) {
        std::cout << "  pool      " << pool.acquired << " acquired / "
                  << pool.released << " released (" << pool.outstanding
                  << " outstanding), " << pool.misses << " misses, "
                  << pool.cross_thread_returns << " cross-thread returns ("
                  << pool.overflow_returns << " overflowed), " << pool.slabs
                  << " slabs\n";
      }
      std::cout << "  latency   p50 " << stats.latency_p50_ns / 1e3
                << " us, p90 " << stats.latency_p90_ns / 1e3 << " us, p99 "
                << stats.latency_p99_ns / 1e3 << " us, p99.9 "
                << stats.latency_p999_ns / 1e3 << " us (mean "
                << stats.latency_mean_ns / 1e3 << " us, n="
                << stats.latency_count << ")\n";
      if (const telemetry::StageTracer* tracer = runtime.stage_tracer()) {
        const auto p99_us = [tracer](telemetry::Stage stage) {
          return tracer->stage_merged(stage).quantile(0.99) / 1e3;
        };
        std::cout << "  stages    1/" << tracer->sample_every() << " sampled: "
                  << tracer->completed() << " completed, " << tracer->lost()
                  << " lost, " << tracer->dropped() << " dropped | p99 ring "
                  << p99_us(telemetry::Stage::kRing) << " us, queue "
                  << p99_us(telemetry::Stage::kQueue) << " us, egress "
                  << p99_us(telemetry::Stage::kEgress) << " us\n";
      }
      if (slo != nullptr) {
        const std::uint64_t now =
            static_cast<std::uint64_t>(runtime.now_ns());
        for (std::size_t i = 0; i < slo->specs().size(); ++i) {
          std::cout << "  slo       " << slo->specs()[i].class_name
                    << " p99<"
                    << static_cast<double>(slo->specs()[i].p99_target_ns) / 1e6
                    << "ms: " << slo->violations(i) << "/" << slo->samples(i)
                    << " violations, burn short " << slo->short_burn(i, now)
                    << " / long " << slo->long_burn(i, now) << "\n";
        }
      }
      if (!flight_dump.empty()) {
        std::cout << "  flight    " << flight->events_logged()
                  << " events, " << flight->dumps() << " dump(s) -> "
                  << flight_dump << "\n";
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
