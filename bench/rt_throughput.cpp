// rt_throughput: sweep the real-time runtime's worker count and record
// packets/s plus enqueue->dequeue latency percentiles into BENCH_rt.json.
//
//   rt_throughput [--duration S] [--out FILE]
//
// Three sweeps, all over 8 unpaced interfaces with one producer thread:
//   1. workers in {1, 2, 4, 8} (shards = workers, the scaling
//      configuration) at 256 and 1024 flows, each cell twice: telemetry
//      off and on (a live MetricsRegistry with the full runtime +
//      per-shard scheduler instrumentation, no tracing).  The on/off pps
//      ratio is the metrics hot-path overhead.
//   2. fan-in batch size in {128 .. 2048} at the single-worker cell --
//      how RuntimeOptions::fanin_batch trades shard-lock/wakeup
//      amortization against burstiness.
//   3. payload mode none/pooled at the single-worker cell -- the cost of
//      carrying real 1000-byte payloads from the frame pool (pool counters
//      included for the pooled cell).
//   4. latency attribution at the single-worker cell: stage tracing off
//      vs the default 1-in-64 sampling.  The pps ratio is the tracing
//      hot-path overhead (budget: >= 0.95), and the traced cell reports
//      the per-stage breakdown the tracer exists to produce.
//   5. slo burn: the 2x-overload cell with a deliberately tight p99
//      objective bound to every class; sustained overload must push the
//      burn rate above 1 (the paging threshold).
// NOTE: results depend on the host's core count; the JSON records
// std::thread::hardware_concurrency() so a reader can tell a 1-core CI
// box (where workers time-slice one core and pps cannot scale) from a
// real multicore run.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fault/adapt.hpp"
#include "fault/supervisor.hpp"
#include "io/udp_backend.hpp"
#include "io/uring_backend.hpp"
#include "io/wire.hpp"
#include "runtime/load_generator.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/stage_latency.hpp"
#include "util/indexed_name.hpp"
#include "util/json.hpp"
#include "util/latency_histogram.hpp"

namespace {

using midrr::PacketPoolStats;
using PayloadMode = midrr::rt::LoadGeneratorOptions::PayloadMode;

struct StageQuantiles {
  double p50_ns = 0;
  double p99_ns = 0;
};

struct Cell {
  std::size_t flows;
  std::size_t workers;
  bool telemetry = false;
  std::size_t fanin_batch = 0;  // 0 = RuntimeOptions default
  PayloadMode payload = PayloadMode::kNone;
  std::uint32_t stage_sample = 0;  // 0 = tracing off
  double pps = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  std::uint64_t dequeued = 0;
  double duration_s = 0;
  PacketPoolStats pool{};
  // Tracer accounting + per-stage breakdown (stage_sample > 0 only);
  // quantiles are over the per-iface grids merged into one.
  std::uint64_t trace_started = 0;
  std::uint64_t trace_completed = 0;
  std::uint64_t trace_lost = 0;
  std::uint64_t trace_dropped = 0;
  StageQuantiles stages[midrr::telemetry::kStageCount]{};
  StageQuantiles e2e{};
  double reconciliation_error = 0;
};

const char* payload_name(PayloadMode mode) {
  return mode == PayloadMode::kPooled ? "pooled" : "none";
}

Cell run_cell(std::size_t flows, std::size_t workers, double duration_s,
              bool telemetry, std::size_t fanin_batch = 0,
              PayloadMode payload = PayloadMode::kNone,
              std::uint32_t stage_sample = 0) {
  using namespace midrr;
  using namespace midrr::rt;

  constexpr std::size_t kIfaces = 8;
  // Outlives the runtime: registered callbacks point into runtime state.
  midrr::telemetry::MetricsRegistry registry;
  RuntimeOptions options;
  options.workers = workers;
  options.shards = workers;  // the scaling configuration
  options.producers = 1;
  options.max_flows = flows;
  if (fanin_batch != 0) options.fanin_batch = fanin_batch;
  if (telemetry) options.metrics = &registry;
  options.stage_sample_every = stage_sample;

  Runtime runtime(options);
  for (std::size_t j = 0; j < kIfaces; ++j) {
    runtime.add_interface(indexed_name("if", j));
  }
  for (std::size_t i = 0; i < flows; ++i) {
    RtFlowSpec spec;
    spec.willing.push_back(static_cast<IfaceId>(i % kIfaces));
    spec.willing.push_back(static_cast<IfaceId>((i + 1) % kIfaces));
    runtime.control().add_flow(spec);
  }

  runtime.start();
  LoadGeneratorOptions load;
  load.producers = 1;
  load.packet_bytes = 1000;
  load.payload = payload;
  LoadGenerator generator(runtime, load);

  const auto t0 = std::chrono::steady_clock::now();
  generator.start();
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  generator.stop();
  runtime.stop();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const RuntimeStats stats = runtime.stats();
  Cell cell;
  cell.flows = flows;
  cell.workers = workers;
  cell.telemetry = telemetry;
  cell.fanin_batch = fanin_batch;
  cell.payload = payload;
  cell.stage_sample = stage_sample;
  cell.dequeued = stats.dequeued;
  cell.duration_s = elapsed;
  cell.pps = static_cast<double>(stats.dequeued) / elapsed;
  cell.p50_ns = stats.latency_p50_ns;
  cell.p99_ns = stats.latency_p99_ns;
  cell.pool = generator.pool_stats();
  if (const telemetry::StageTracer* tracer = runtime.stage_tracer()) {
    cell.trace_started = tracer->started();
    cell.trace_completed = tracer->completed();
    cell.trace_lost = tracer->lost();
    cell.trace_dropped = tracer->dropped();
    cell.reconciliation_error = tracer->reconciliation_error();
    for (std::size_t s = 0; s < telemetry::kStageCount; ++s) {
      const LatencySnapshot merged =
          tracer->stage_merged(static_cast<telemetry::Stage>(s));
      cell.stages[s].p50_ns = merged.quantile(0.5);
      cell.stages[s].p99_ns = merged.quantile(0.99);
    }
    const LatencySnapshot merged_e2e = tracer->e2e_merged();
    cell.e2e.p50_ns = merged_e2e.quantile(0.5);
    cell.e2e.p99_ns = merged_e2e.quantile(0.99);
  }
  return cell;
}

// Overload cell: one paced interface, equal flows, the generator offering a
// fixed multiple of capacity.  Records the Jain fairness index of per-flow
// goodput over the settled window -- the number the shedding watermark is
// supposed to protect -- plus where the excess went.
struct OverloadCell {
  std::uint64_t shed_bytes = 0;
  double overload = 0;
  double jain = 0;
  double utilization = 0;
  std::uint64_t shed_drops = 0;
  std::uint64_t tail_drops = 0;
  double duration_s = 0;
};

OverloadCell run_overload_cell(std::uint64_t shed_bytes, double overload,
                               double duration_s) {
  using namespace midrr;
  using namespace midrr::rt;

  constexpr std::size_t kFlows = 8;
  const double capacity_bps = 200e6;
  RuntimeOptions options;
  options.shed_bytes = shed_bytes;
  options.max_flows = kFlows;
  Runtime runtime(options);
  runtime.add_interface("if0", RateProfile(capacity_bps));
  std::vector<FlowId> flows;
  for (std::size_t i = 0; i < kFlows; ++i) {
    RtFlowSpec spec;
    spec.willing.push_back(0);
    spec.name = indexed_name("f", i);
    flows.push_back(runtime.control().add_flow(spec));
  }
  runtime.start();
  LoadGeneratorOptions load;
  load.packet_bytes = 1000;
  load.rate_pps = overload * capacity_bps / (8.0 * 1000.0);
  LoadGenerator generator(runtime, load);
  generator.start();

  // Warm up 25% of the budget, measure goodput over the rest.
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s / 4));
  std::vector<std::uint64_t> before;
  before.reserve(kFlows);
  for (const FlowId f : flows) before.push_back(runtime.sent_bytes(f));
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(
      std::chrono::duration<double>(duration_s * 3 / 4));
  double sum = 0, sq = 0, total = 0;
  for (std::size_t i = 0; i < kFlows; ++i) {
    const double x =
        static_cast<double>(runtime.sent_bytes(flows[i]) - before[i]);
    sum += x;
    sq += x * x;
    total += x;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  generator.stop();
  runtime.stop();

  const RuntimeStats stats = runtime.stats();
  OverloadCell cell;
  cell.shed_bytes = shed_bytes;
  cell.overload = overload;
  cell.jain = sq > 0 ? sum * sum / (static_cast<double>(kFlows) * sq) : 1.0;
  cell.utilization = total * 8.0 / elapsed / capacity_bps;
  cell.shed_drops = stats.shed_drops;
  cell.tail_drops = stats.tail_drops;
  cell.duration_s = elapsed;
  return cell;
}

// Adaptive-shedding cell: the same 2x-overloaded topology, but instead of
// a fixed watermark the operator states a p99 objective and the closed
// loop (supervisor probes -> AdaptiveController -> shed watermark) derives
// shed_bytes live from the measured drain rate.  Reports the watermark the
// loop converged to, the windowed p99 it measured, and the same Jain /
// utilization numbers as the fixed-watermark cells for comparison.
struct AdaptiveCell {
  std::uint64_t target_p99_ns = 0;
  double overload = 0;
  double jain = 0;
  double utilization = 0;
  std::uint64_t final_shed_bytes = 0;
  double windowed_p99_ns = 0;
  double correction = 0;
  std::uint64_t retunes = 0;
  std::uint64_t shed_engages = 0;
  std::uint64_t shed_drops = 0;
  std::uint64_t tail_drops = 0;
  double duration_s = 0;
};

AdaptiveCell run_adaptive_cell(std::uint64_t target_p99_ns, double overload,
                               double duration_s) {
  using namespace midrr;
  using namespace midrr::rt;

  constexpr std::size_t kFlows = 8;
  const double capacity_bps = 200e6;
  RuntimeOptions options;
  options.max_flows = kFlows;
  options.stage_sample_every = 64;  // the loop's windowed p99 source
  Runtime runtime(options);
  runtime.add_interface("if0", RateProfile(capacity_bps));
  std::vector<FlowId> flows;
  for (std::size_t i = 0; i < kFlows; ++i) {
    RtFlowSpec spec;
    spec.willing.push_back(0);
    spec.name = indexed_name("f", i);
    flows.push_back(runtime.control().add_flow(spec));
  }
  runtime.start();

  fault::Supervisor supervisor(runtime, fault::SupervisorOptions{}, &runtime);
  fault::AdaptOptions aopts;
  aopts.target_p99_ns = static_cast<SimDuration>(target_p99_ns);
  fault::AdaptiveController adapt(runtime, aopts);
  runtime.set_capacity_overlay(&adapt);
  supervisor.set_adaptive(&adapt);
  supervisor.start();

  LoadGeneratorOptions load;
  load.packet_bytes = 1000;
  load.rate_pps = overload * capacity_bps / (8.0 * 1000.0);
  LoadGenerator generator(runtime, load);
  generator.start();

  // Warm up 25% of the budget (lets the controller seed its drain EWMA
  // and converge), measure goodput over the rest.
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s / 4));
  std::vector<std::uint64_t> before;
  before.reserve(kFlows);
  for (const FlowId f : flows) before.push_back(runtime.sent_bytes(f));
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(
      std::chrono::duration<double>(duration_s * 3 / 4));
  double sum = 0, sq = 0, total = 0;
  for (std::size_t i = 0; i < kFlows; ++i) {
    const double x =
        static_cast<double>(runtime.sent_bytes(flows[i]) - before[i]);
    sum += x;
    sq += x * x;
    total += x;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  generator.stop();
  supervisor.stop();
  runtime.stop();

  const RuntimeStats stats = runtime.stats();
  AdaptiveCell cell;
  cell.target_p99_ns = target_p99_ns;
  cell.overload = overload;
  cell.jain = sq > 0 ? sum * sum / (static_cast<double>(kFlows) * sq) : 1.0;
  cell.utilization = total * 8.0 / elapsed / capacity_bps;
  cell.final_shed_bytes = runtime.shed_bytes();
  cell.windowed_p99_ns = adapt.windowed_p99_ns();
  cell.correction = adapt.correction();
  cell.retunes = adapt.retunes();
  cell.shed_engages = adapt.shed_engages();
  cell.shed_drops = stats.shed_drops;
  cell.tail_drops = stats.tail_drops;
  cell.duration_s = elapsed;
  return cell;
}

// SLO burn cell: the 2x-overloaded paced topology with a deliberately
// tight p99 objective bound to every class.  Under sustained overload the
// queues hold packets for tens of milliseconds, so nearly every sampled
// packet violates the target and the burn rate -- violating fraction over
// the 1% error budget -- must land well above 1 (the paging threshold).
// This is the end-to-end validation that tracer -> SLO plumbing fires
// under real load, not just in unit tests.
struct SloCell {
  std::uint64_t target_ns = 0;
  double overload = 0;
  std::uint64_t samples = 0;
  std::uint64_t violations = 0;
  double burn_short = 0;
  double burn_long = 0;
  double duration_s = 0;
};

SloCell run_slo_cell(std::uint64_t target_ns, double overload,
                     double duration_s) {
  using namespace midrr;
  using namespace midrr::rt;

  constexpr std::size_t kFlows = 8;
  const double capacity_bps = 200e6;
  telemetry::SloEngine slo({{"bench", target_ns}}, kFlows);
  RuntimeOptions options;
  options.max_flows = kFlows;
  options.stage_sample_every = 64;
  options.slo = &slo;
  Runtime runtime(options);
  runtime.add_interface("if0", RateProfile(capacity_bps));
  for (std::size_t i = 0; i < kFlows; ++i) {
    RtFlowSpec spec;
    spec.willing.push_back(0);
    spec.name = indexed_name("f", i);
    runtime.control().add_flow(spec);
  }
  {
    // Bind every interned class to the one declared objective, the same
    // way midrr_rt binds after registration and before start().
    auto reader = runtime.control().reader();
    const auto guard = reader.lock();
    for (const ClassId id : guard->live) slo.bind_class(id, "bench");
  }
  runtime.start();
  LoadGeneratorOptions load;
  load.packet_bytes = 1000;
  load.rate_pps = overload * capacity_bps / (8.0 * 1000.0);
  LoadGenerator generator(runtime, load);
  const auto t0 = std::chrono::steady_clock::now();
  generator.start();
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  generator.stop();
  const std::uint64_t now = static_cast<std::uint64_t>(runtime.now_ns());
  runtime.stop();

  SloCell cell;
  cell.target_ns = target_ns;
  cell.overload = overload;
  cell.samples = slo.samples(0);
  cell.violations = slo.violations(0);
  cell.burn_short = slo.short_burn(0, now);
  cell.burn_long = slo.long_burn(0, now);
  cell.duration_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return cell;
}

// Egress cell: the same unpaced 4-iface / 64-flow topology drained into
// either the sim sink or real UDP sockets over loopback (destination
// ports nobody listens on -- the kernel pays the full loopback delivery
// path and then drops, which is exactly the sendmmsg cost we want to
// meter without a receiver skewing the box).  The udp cells sweep
// UdpBackendOptions::max_batch to show syscall amortization: batch 1 is
// one sendmmsg per packet, 256 is the deep-burst limit.  HONESTY NOTE:
// loopback is not NIC-bound -- these numbers bound per-syscall and
// serialization overhead, not wire throughput; a real NIC adds driver
// rings, IRQ moderation, and line-rate ceilings the loopback path
// never sees.
struct EgressCell {
  const char* backend = "sim";
  std::size_t max_batch = 0;  // 0 = not applicable (sim/uring)
  double pps = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  std::uint64_t sent = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t requeued = 0;
  std::uint64_t io_drops = 0;
  std::uint64_t peak_inflight = 0;  // uring: max sampled in-flight depth
  std::uint64_t fixed_sends = 0;    // uring: zero-copy registered-buffer sends
  std::uint64_t fallback_sends = 0; // uring: copying sendmsg sends
  double duration_s = 0;
};

// kUring meters the SEND_ZC registered-buffer path; kUringCopy forces the
// sendmsg-over-uring fallback (zerocopy=false).  On loopback the kernel
// copies either way, so the copy cell isolates what SEND_ZC's second CQE
// (buffer-release notification) costs when zero-copy cannot pay off.
enum class EgressKind { kSim, kUdp, kUring, kUringCopy };

EgressCell run_egress_cell(EgressKind kind, std::size_t max_batch,
                           double duration_s) {
  using namespace midrr;
  using namespace midrr::rt;

  constexpr std::size_t kIfaces = 4;
  constexpr std::size_t kFlows = 64;
  RuntimeOptions options;
  options.workers = 2;
  options.shards = 2;
  options.producers = 1;
  options.max_flows = kFlows;
  // Deep dequeue bursts (4000 packets at 1000 B) so the PER-CALL caps --
  // sendmmsg's max_batch vs one io_uring submit for the whole burst --
  // are what bound syscall amortization, not the dequeue window itself.
  // Identical across every cell of the sweep; only the backend varies.
  options.burst_bytes = 4 * 1024 * 1024;
  std::unique_ptr<io::EgressBackend> backend;
  io::UringBackend* uring = nullptr;
  if (kind == EgressKind::kUdp) {
    io::UdpBackendOptions uopts;
    uopts.base_port = 19800;  // unbound on purpose; see the note above
    uopts.max_batch = max_batch;
    backend = std::make_unique<io::UdpBackend>(uopts);
    options.egress = backend.get();
  } else if (kind == EgressKind::kUring || kind == EgressKind::kUringCopy) {
    io::UringBackendOptions uopts;
    uopts.base_port = 19800;
    uopts.sq_entries = 4096;     // one submit swallows a whole deep burst
    uopts.inflight_limit = 8192;
    uopts.zerocopy = kind == EgressKind::kUring;
    // Doorbell coalescing: let SQEs from several bursts share one
    // io_uring_enter.  This is the knob the cell sweeps against sendmmsg's
    // max_batch -- both bound how many packets one syscall can carry.  32
    // quiet polls of headroom means the half-SQ threshold (2048 SQEs),
    // not the idle trigger, is what usually rings the doorbell.
    uopts.submit_coalesce_polls = 32;
    auto owned = std::make_unique<io::UringBackend>(uopts);
    uring = owned.get();
    backend = std::move(owned);
    options.egress = backend.get();
  }
  Runtime runtime(options);
  for (std::size_t j = 0; j < kIfaces; ++j) {
    runtime.add_interface(indexed_name("if", j));
  }
  for (std::size_t i = 0; i < kFlows; ++i) {
    RtFlowSpec spec;
    spec.willing.push_back(static_cast<IfaceId>(i % kIfaces));
    spec.willing.push_back(static_cast<IfaceId>((i + 1) % kIfaces));
    runtime.control().add_flow(spec);
  }
  runtime.start();
  LoadGeneratorOptions load;
  load.producers = 1;
  load.packet_bytes = 1000;
  load.payload = PayloadMode::kPooled;  // real bytes on the wire
  if (uring != nullptr) {
    // Slab-resident payloads with wire headroom: the cell meters the
    // registered-buffer zero-copy path, not the copying fallback.
    load.frame_headroom = io::kWireScratchBytes;
    load.pool.precarve = true;
    load.pool.max_slabs = 32;  // 16k slots >> inflight_limit
  }
  LoadGenerator generator(runtime, load);
  if (kind == EgressKind::kUring) {  // copy cell: fallback path on purpose
    for (std::size_t p = 0; p < load.producers; ++p) {
      if (const net::FramePool* pool = generator.frame_pool(p)) {
        uring->register_frame_pool(*pool);
      }
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  generator.start();
  // Sample in-flight depth while the load runs (uring only; the gauge is
  // scrape-rate safe) instead of sleeping blind.
  std::uint64_t peak_inflight = 0;
  const auto deadline = t0 + std::chrono::duration<double>(duration_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (uring != nullptr) {
      std::uint64_t inflight = 0;
      for (std::size_t j = 0; j < kIfaces; ++j) {
        inflight += uring->inflight_packets(static_cast<IfaceId>(j));
      }
      peak_inflight = std::max(peak_inflight, inflight);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  generator.stop();
  runtime.stop();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const RuntimeStats stats = runtime.stats();
  EgressCell cell;
  cell.backend = kind == EgressKind::kSim         ? "sim"
                 : kind == EgressKind::kUdp       ? "udp"
                 : kind == EgressKind::kUring     ? "uring"
                                                  : "uring-copy";
  cell.max_batch = kind == EgressKind::kUdp ? max_batch : 0;
  cell.sent = stats.sent;
  cell.syscalls = stats.io_syscalls;
  cell.requeued = stats.io_requeued;
  cell.io_drops = stats.io_drops;
  cell.peak_inflight = peak_inflight;
  if (uring != nullptr) {
    for (std::size_t j = 0; j < kIfaces; ++j) {
      cell.fixed_sends += uring->fixed_sends(static_cast<IfaceId>(j));
      cell.fallback_sends += uring->fallback_sends(static_cast<IfaceId>(j));
    }
  }
  cell.duration_s = elapsed;
  cell.pps = static_cast<double>(stats.sent) / elapsed;
  cell.p50_ns = stats.latency_p50_ns;
  cell.p99_ns = stats.latency_p99_ns;
  return cell;
}

// Million-flow scale cell: flows register in classes of `flows_per_class`
// (one ClassSpec, one publish per batch), so the snapshot the control
// plane publishes never grows with flows.  Two sweep cells use the SAME
// class count (1000) at 100x different flow counts, and a third holds 10x
// the classes (10k, at 10 flows per class); a one-member publish copies
// one pointer per class block plus the block it touches, so its latency
// must come out ~equal across all three -- the two ratios are the numbers
// CI bounds.  RSS is read from
// /proc/self/statm before registration, after it, and after the load
// phase: rss_bytes_per_flow is the marginal footprint of a registered flow
// (directory slot, queue, class membership), and loaded_rss_bytes_per_flow
// adds what the flows grew while the load generator visited every one of
// them (queue rings, ring links), not the process baseline.
struct ScaleCell {
  std::size_t flows = 0;
  std::size_t flows_per_class = 0;
  std::size_t classes = 0;
  double register_s = 0;
  long long rss_delta_bytes = 0;
  double rss_bytes_per_flow = 0;
  double loaded_rss_bytes_per_flow = 0;
  double publish_p50_ns = 0;
  double pps = 0;
  std::uint64_t dequeued = 0;
  double duration_s = 0;
};

long long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long long pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<long long>(sysconf(_SC_PAGESIZE));
}

ScaleCell run_scale_cell(std::size_t flows, std::size_t flows_per_class,
                         double duration_s) {
  using namespace midrr;
  using namespace midrr::rt;

  constexpr std::size_t kIfaces = 4;
  RuntimeOptions options;
  options.workers = 1;
  options.shards = 1;
  options.producers = 1;
  options.max_flows = flows + 128;  // headroom for the publish probes
  options.policy = Policy::kHierMiDrr;

  Runtime runtime(options);
  for (std::size_t j = 0; j < kIfaces; ++j) {
    runtime.add_interface(indexed_name("if", j));
  }

  ScaleCell cell;
  cell.flows = flows;
  cell.flows_per_class = flows_per_class;

  const long long rss0 = resident_bytes();
  const auto reg0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < flows; i += flows_per_class) {
    const std::size_t batch = std::min(flows_per_class, flows - i);
    const std::size_t group = i / flows_per_class;
    ClassSpec spec;
    spec.name = indexed_name("c", group);
    spec.willing.push_back(static_cast<IfaceId>(group % kIfaces));
    spec.willing.push_back(static_cast<IfaceId>((group + 1) % kIfaces));
    // Classes intern by (weight, willing, queue capacity); a per-group
    // capacity keeps the groups from collapsing into 4 willing-pairs.
    spec.queue_capacity_bytes = 512 * 1024 + group;
    runtime.control().add_members(spec, batch);
  }
  cell.register_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - reg0)
          .count();
  cell.rss_delta_bytes = resident_bytes() - rss0;
  cell.rss_bytes_per_flow =
      static_cast<double>(cell.rss_delta_bytes) / static_cast<double>(flows);
  cell.classes = runtime.control().class_count();

  // Publish latency for a one-member delta against the fully loaded
  // table: join an existing class (no new snapshot entry), then leave.
  ClassSpec probe;
  probe.name = "c0";
  probe.willing.push_back(0);
  probe.willing.push_back(1);
  std::vector<double> lat_ns;
  for (int i = 0; i < 33; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const FlowId f = runtime.control().add_members(probe, 1);
    lat_ns.push_back(std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    runtime.control().remove_member(f);
  }
  std::sort(lat_ns.begin(), lat_ns.end());
  cell.publish_p50_ns = lat_ns[lat_ns.size() / 2];

  runtime.start();
  LoadGeneratorOptions load;
  load.producers = 1;
  load.packet_bytes = 1000;
  LoadGenerator generator(runtime, load);
  const auto t0 = std::chrono::steady_clock::now();
  generator.start();
  std::this_thread::sleep_for(std::chrono::duration<double>(duration_s));
  generator.stop();
  runtime.stop();
  cell.duration_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  cell.loaded_rss_bytes_per_flow =
      static_cast<double>(resident_bytes() - rss0) / static_cast<double>(flows);
  const RuntimeStats stats = runtime.stats();
  cell.dequeued = stats.dequeued;
  cell.pps = static_cast<double>(stats.dequeued) / cell.duration_s;
  return cell;
}

void emit_cell_common(midrr::JsonWriter& json, const Cell& c) {
  json.field("pps", c.pps).field("dequeued", c.dequeued)
      .field("duration_s", c.duration_s).field("latency_p50_ns", c.p50_ns)
      .field("latency_p99_ns", c.p99_ns);
}

double pkts_per_syscall(const EgressCell& c) {
  return c.syscalls > 0
             ? static_cast<double>(c.sent) / static_cast<double>(c.syscalls)
             : 0;
}

}  // namespace

int main(int argc, char** argv) {
  double duration_s = 2.0;
  std::string out_path = "BENCH_rt.json";
  bool scale_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--scale-only") scale_only = true;
    else if (key == "--duration" && i + 1 < argc)
      duration_s = std::stod(argv[++i]);
    else if (key == "--out" && i + 1 < argc) out_path = argv[++i];
    else {
      std::cerr << "usage: rt_throughput [--duration S] [--out FILE] "
                   "[--scale-only]\n";
      return 2;
    }
  }

  const std::vector<std::size_t> flow_counts = scale_only
                                                   ? std::vector<std::size_t>{}
                                                   : std::vector<std::size_t>{
                                                         256, 1024};
  const std::vector<std::size_t> worker_counts = {1, 2, 4, 8};

  std::vector<Cell> cells;
  for (const std::size_t flows : flow_counts) {
    for (const std::size_t workers : worker_counts) {
      for (const bool telemetry : {false, true}) {
        std::cerr << "rt_throughput: " << flows << " flows, " << workers
                  << " workers, telemetry " << (telemetry ? "on" : "off")
                  << "..." << std::flush;
        const Cell cell = run_cell(flows, workers, duration_s, telemetry);
        std::cerr << " " << cell.pps / 1e6 << " Mpps, p50 "
                  << cell.p50_ns / 1e3 << " us, p99 " << cell.p99_ns / 1e3
                  << " us\n";
        cells.push_back(cell);
      }
    }
  }

  // Fan-in batch sweep: single worker, 256 flows, telemetry off.
  const std::vector<std::size_t> batch_sizes =
      scale_only ? std::vector<std::size_t>{}
                 : std::vector<std::size_t>{128, 256, 512, 1024, 2048};
  std::vector<Cell> batch_cells;
  for (const std::size_t batch : batch_sizes) {
    std::cerr << "rt_throughput: fanin_batch " << batch << "..." << std::flush;
    const Cell cell = run_cell(256, 1, duration_s, false, batch);
    std::cerr << " " << cell.pps / 1e6 << " Mpps, p99 " << cell.p99_ns / 1e3
              << " us\n";
    batch_cells.push_back(cell);
  }

  // Payload sweep: what real payload bytes cost, and the pool's share.
  std::vector<Cell> payload_cells;
  if (!scale_only) {
    for (const PayloadMode mode : {PayloadMode::kNone, PayloadMode::kPooled}) {
      std::cerr << "rt_throughput: payload " << payload_name(mode) << "..."
                << std::flush;
      const Cell cell = run_cell(256, 1, duration_s, false, 0, mode);
      std::cerr << " " << cell.pps / 1e6 << " Mpps\n";
      payload_cells.push_back(cell);
    }
  }

  // Latency attribution: the single-worker cell with stage tracing off
  // vs the default 1-in-64 sampling.  The pps ratio is the tracing
  // overhead (budget >= 0.95); the traced cell carries the per-stage
  // breakdown so the bench output doubles as a worked example.
  std::vector<Cell> attribution_cells;
  if (!scale_only) {
    for (const std::uint32_t sample : {0u, 64u}) {
      std::cerr << "rt_throughput: stage_sample " << sample << "..."
                << std::flush;
      const Cell cell = run_cell(256, 1, duration_s, false, 0,
                                 PayloadMode::kNone, sample);
      std::cerr << " " << cell.pps / 1e6 << " Mpps";
      if (sample > 0) {
        std::cerr << ", " << cell.trace_completed << " samples, e2e p99 "
                  << cell.e2e.p99_ns / 1e3 << " us";
      }
      std::cerr << "\n";
      attribution_cells.push_back(cell);
    }
  }

  // SLO burn under sustained 2x overload: a 5 ms p99 objective against
  // ~20 ms queue residence must burn far above 1 on both windows.
  std::vector<SloCell> slo_cells;
  if (!scale_only) {
    std::cerr << "rt_throughput: slo burn, 2x overload, p99 target 5 ms..."
              << std::flush;
    slo_cells.push_back(run_slo_cell(5'000'000, 2.0, duration_s));
    std::cerr << " burn short " << slo_cells.back().burn_short << " / long "
              << slo_cells.back().burn_long << " ("
              << slo_cells.back().violations << "/"
              << slo_cells.back().samples << " violations)\n";
  }

  // Overload shedding: the same 2x-overloaded cell with the fan-in
  // watermark off and on.  "Off" still has per-flow queue caps (tail
  // drops); "on" sheds weight-aware at fan-in and must hold Jain >= 0.9.
  std::vector<OverloadCell> overload_cells;
  if (!scale_only) {
    for (const std::uint64_t shed :
         {std::uint64_t{0}, std::uint64_t{262144}}) {
      std::cerr << "rt_throughput: 2x overload, shed_bytes " << shed << "..."
                << std::flush;
      const OverloadCell cell = run_overload_cell(shed, 2.0, duration_s);
      std::cerr << " jain " << cell.jain << ", utilization "
                << cell.utilization << "\n";
      overload_cells.push_back(cell);
    }
  }

  // Adaptive shedding: same overload, but the watermark is derived live
  // from measured drain rate + a 5 ms p99 objective instead of a fixed
  // byte count.  Comparable Jain / utilization to the fixed cells above.
  std::vector<AdaptiveCell> adaptive_cells;
  if (!scale_only) {
    std::cerr << "rt_throughput: 2x overload, adaptive shed (target p99 5 "
                 "ms)..."
              << std::flush;
    const AdaptiveCell cell = run_adaptive_cell(5'000'000, 2.0, duration_s);
    std::cerr << " jain " << cell.jain << ", utilization " << cell.utilization
              << ", shed_bytes -> " << cell.final_shed_bytes << " ("
              << cell.retunes << " retunes)\n";
    adaptive_cells.push_back(cell);
  }

  // Egress backend sweep: sim sink vs real UDP sockets over loopback,
  // with the udp cells sweeping the sendmmsg batch cap.
  std::vector<EgressCell> egress_cells;
  if (!scale_only) {
    egress_cells.push_back(run_egress_cell(EgressKind::kSim, 0, duration_s));
    std::cerr << "rt_throughput: egress sim... "
              << egress_cells.back().pps / 1e6 << " Mpps\n";
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{32}, std::size_t{256}}) {
      std::cerr << "rt_throughput: egress udp, batch " << batch << "..."
                << std::flush;
      const EgressCell cell =
          run_egress_cell(EgressKind::kUdp, batch, duration_s);
      std::cerr << " " << cell.pps / 1e6 << " Mpps, "
                << pkts_per_syscall(cell) << " pkts/syscall\n";
      egress_cells.push_back(cell);
    }
    // io_uring cell: same topology and burst depth, one submit per burst.
    // Skipped VISIBLY when the build or kernel lacks io_uring -- a silent
    // skip would read as "not faster" instead of "not measured".
    if (!midrr::io::uring_supported()) {
      std::cerr << "rt_throughput: egress uring SKIPPED (built without "
                   "-DMIDRR_WITH_URING=ON)\n";
    } else if (int probe_errno = 0;
               !midrr::io::uring_runtime_available(&probe_errno)) {
      std::cerr << "rt_throughput: egress uring SKIPPED (kernel denies "
                   "io_uring_setup: "
                << std::strerror(probe_errno) << ")\n";
    } else {
      for (const EgressKind kind :
           {EgressKind::kUring, EgressKind::kUringCopy}) {
        const char* label =
            kind == EgressKind::kUring ? "uring" : "uring-copy";
        std::cerr << "rt_throughput: egress " << label << "..." << std::flush;
        const EgressCell cell = run_egress_cell(kind, 0, duration_s);
        std::cerr << " " << cell.pps / 1e6 << " Mpps, "
                  << pkts_per_syscall(cell) << " pkts/syscall, peak inflight "
                  << cell.peak_inflight
                  << ", " << cell.fixed_sends << " zero-copy / "
                  << cell.fallback_sends << " fallback sends\n";
        egress_cells.push_back(cell);
      }
    }
  }

  // Class-aggregation scale sweep: 1000 classes at 10k and 1M flows, and
  // 10k classes at 100k flows.  Registration batches by class, the runtime
  // schedules hmidrr, and the publish probe measures a one-member delta
  // against the loaded table.
  std::vector<ScaleCell> scale_cells;
  for (const auto& cfg : std::vector<std::pair<std::size_t, std::size_t>>{
           {10'000, 10}, {100'000, 10}, {1'000'000, 1'000}}) {
    std::cerr << "rt_throughput: scale " << cfg.first << " flows / "
              << cfg.second << " per class..." << std::flush;
    const ScaleCell cell =
        run_scale_cell(cfg.first, cfg.second, std::min(duration_s, 2.0));
    std::cerr << " " << cell.classes << " classes, register "
              << cell.register_s << " s, publish p50 "
              << cell.publish_p50_ns / 1e3 << " us, rss/flow "
              << cell.rss_bytes_per_flow << " B registered, "
              << cell.loaded_rss_bytes_per_flow << " B loaded, "
              << cell.pps / 1e6
              << " Mpps\n";
    scale_cells.push_back(cell);
  }

  midrr::JsonWriter json;
  json.begin_object().field("bench", "rt_throughput").field("ifaces", 8)
      .field("producers", 1).field("packet_bytes", 1000)
      .field("shards", "= workers")
      .field("hardware_concurrency", std::thread::hardware_concurrency())
      .field("note",
             "pps scaling across workers requires as many free cores; on a "
             "1-core host the sweep measures overhead, not speedup")
      .key("cells").begin_array();
  for (const Cell& c : cells) {
    json.begin_object().field("flows", c.flows).field("workers", c.workers)
        .field("telemetry", c.telemetry);
    emit_cell_common(json, c);
    json.end_object();
  }
  // Adjacent off/on pairs share a configuration; their ratio isolates the
  // metrics hot-path cost (relaxed atomic bumps in the observer + workers).
  json.end_array().key("telemetry_overhead").begin_array();
  for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
    const Cell& off = cells[i];
    const Cell& on = cells[i + 1];
    if (off.telemetry || !on.telemetry) continue;  // defensive: expect pairs
    json.begin_object().field("flows", off.flows).field("workers", off.workers)
        .field("pps_off", off.pps).field("pps_on", on.pps)
        .field("on_over_off", off.pps > 0 ? on.pps / off.pps : 0)
        .end_object();
  }
  json.end_array().key("fanin_batch_sweep").begin_array();
  for (const Cell& c : batch_cells) {
    json.begin_object().field("fanin_batch", c.fanin_batch);
    emit_cell_common(json, c);
    json.end_object();
  }
  json.end_array().key("payload_sweep").begin_array();
  for (const Cell& c : payload_cells) {
    json.begin_object().field("payload", payload_name(c.payload));
    emit_cell_common(json, c);
    if (c.payload == PayloadMode::kPooled) write_json(json.key("pool"), c.pool);
    json.end_object();
  }
  // Tracing off vs 1-in-64 at the same configuration; traced_over_base is
  // the number the <= 5% overhead budget bounds in CI.
  json.end_array().key("latency_attribution");
  if (attribution_cells.size() == 2) {
    const Cell& base = attribution_cells[0];
    const Cell& traced = attribution_cells[1];
    json.begin_object().field("sample_every", traced.stage_sample)
        .field("pps_base", base.pps).field("pps_traced", traced.pps)
        .field("traced_over_base", base.pps > 0 ? traced.pps / base.pps : 0)
        .key("trace").begin_object().field("started", traced.trace_started)
        .field("completed", traced.trace_completed)
        .field("lost", traced.trace_lost)
        .field("dropped", traced.trace_dropped).end_object()
        .field("reconciliation_error", traced.reconciliation_error)
        .key("stages").begin_array();
    for (std::size_t s = 0; s < midrr::telemetry::kStageCount; ++s) {
      json.begin_object()
          .field("stage", midrr::telemetry::to_string(
                              static_cast<midrr::telemetry::Stage>(s)))
          .field("p50_ns", traced.stages[s].p50_ns)
          .field("p99_ns", traced.stages[s].p99_ns).end_object();
    }
    json.end_array().key("e2e").begin_object()
        .field("p50_ns", traced.e2e.p50_ns).field("p99_ns", traced.e2e.p99_ns)
        .end_object().end_object();
  } else {
    json.null();
  }
  json.key("slo_burn");
  if (!slo_cells.empty()) {
    const SloCell& c = slo_cells.front();
    json.begin_object().field("target_p99_ns", c.target_ns)
        .field("overload", c.overload).field("samples", c.samples)
        .field("violations", c.violations).field("burn_short", c.burn_short)
        .field("burn_long", c.burn_long).field("duration_s", c.duration_s)
        .end_object();
  } else {
    json.null();
  }
  json.key("overload_shedding").begin_array();
  for (const OverloadCell& c : overload_cells) {
    json.begin_object().field("shed_bytes", c.shed_bytes)
        .field("overload", c.overload).field("jain", c.jain)
        .field("utilization", c.utilization)
        .field("shed_drops", c.shed_drops).field("tail_drops", c.tail_drops)
        .field("duration_s", c.duration_s).end_object();
  }
  json.end_array().key("adaptive_shedding");
  if (!adaptive_cells.empty()) {
    const AdaptiveCell& c = adaptive_cells.front();
    json.begin_object().field("target_p99_ns", c.target_p99_ns)
        .field("overload", c.overload).field("jain", c.jain)
        .field("utilization", c.utilization)
        .field("final_shed_bytes", c.final_shed_bytes)
        .field("windowed_p99_ns", c.windowed_p99_ns)
        .field("correction", c.correction).field("retunes", c.retunes)
        .field("shed_engages", c.shed_engages)
        .field("shed_drops", c.shed_drops).field("tail_drops", c.tail_drops)
        .field("duration_s", c.duration_s).end_object();
  } else {
    json.null();
  }
  // Sim vs loopback-UDP egress.  The note travels with the data because
  // these cells are easy to misread as a NIC throughput claim.
  json.field("egress_sweep_note",
             "loopback is not NIC-bound: udp and uring cells meter "
             "serialization overhead and syscall amortization (sendmmsg "
             "max_batch vs coalesced io_uring submits), not wire throughput; "
             "SEND_ZC on loopback always copies kernel-side (zero-copy cannot "
             "pay off here, and the per-packet notification CQE plus "
             "completion-driven double handling cost a single-core host some "
             "pps vs sendmmsg), so uring-copy (sendmsg fallback, one CQE per "
             "packet) isolates the notification cost")
      .key("egress_sweep").begin_array();
  for (const EgressCell& c : egress_cells) {
    json.begin_object().field("backend", c.backend);
    if (c.max_batch != 0) json.field("max_batch", c.max_batch);
    json.field("pps", c.pps).field("sent", c.sent)
        .field("syscalls", c.syscalls)
        .field("pkts_per_syscall", pkts_per_syscall(c))
        .field("io_requeued", c.requeued).field("io_drops", c.io_drops);
    if (std::string(c.backend).rfind("uring", 0) == 0) {
      json.field("peak_inflight", c.peak_inflight)
          .field("fixed_sends", c.fixed_sends)
          .field("fallback_sends", c.fallback_sends);
    }
    json.field("latency_p50_ns", c.p50_ns).field("latency_p99_ns", c.p99_ns)
        .field("duration_s", c.duration_s).end_object();
  }
  // Equal class counts at 100x different flow counts, and 10x the classes
  // at equal flows per class: the two publish-latency ratios are the
  // evidence that a delta's cost tracks neither flows nor classes.  CI
  // bounds both ratios and the per-flow resident bytes, registered and
  // loaded.
  json.end_array().key("scale_sweep").begin_array();
  for (const ScaleCell& c : scale_cells) {
    json.begin_object().field("flows", c.flows)
        .field("flows_per_class", c.flows_per_class)
        .field("classes", c.classes).field("register_s", c.register_s)
        .field("rss_delta_bytes", c.rss_delta_bytes)
        .field("rss_bytes_per_flow", c.rss_bytes_per_flow)
        .field("loaded_rss_bytes_per_flow", c.loaded_rss_bytes_per_flow)
        .field("publish_p50_ns", c.publish_p50_ns).field("pps", c.pps)
        .field("dequeued", c.dequeued).field("duration_s", c.duration_s)
        .end_object();
  }
  // Publish p50 of the cell with `flows` over the 10k-flow, 1000-class
  // cell's; 0 when either cell is missing.
  std::map<std::size_t, double> publish_ns;  // by flow count
  for (const ScaleCell& c : scale_cells) publish_ns[c.flows] = c.publish_p50_ns;
  const auto publish_ratio = [&publish_ns](std::size_t flows) {
    const double base = publish_ns[10'000];
    return base > 0 ? publish_ns[flows] / base : 0.0;
  };
  json.end_array()
      .field("scale_publish_ratio", publish_ratio(1'000'000))
      .field("scale_class_publish_ratio", publish_ratio(100'000))
      .end_object();

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str() << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
