// End-to-end fault tolerance against a live Runtime: injected ingress
// faults with exact loss accounting, pool exhaustion, backpressure and
// weight-aware overload shedding, watchdog-driven worker restarts, the
// remove-during-drain straggler contract, quarantine semantics, and the
// headline kill -> flap -> revive chaos run with a Supervisor closing the
// loop.  Every test asserts the conservation identity at quiescence:
//
//   offered  == dequeued + fanin_drops + tail_drops + shed_drops
//               + straggler_drops
//   dequeued == sent + io_drops + io_pending   (egress split; under the
//               sim backend used here sent == dequeued and the rest are 0)
//
// i.e. any packet the runtime accepted is either delivered or shows up in
// exactly one named drop counter -- zero silent loss, even mid-chaos.
// test_io_e2e.cpp re-runs the headline chaos plan with the UDP backend,
// where the egress split carries real socket outcomes.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "fairness/maxmin.hpp"
#include "fault/adapt.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fault/recorder.hpp"
#include "fault/supervisor.hpp"
#include "runtime/load_generator.hpp"
#include "runtime/runtime.hpp"
#include "util/indexed_name.hpp"
#include "util/time.hpp"

namespace midrr::rt {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::LinkState;
using fault::Supervisor;
using fault::SupervisorOptions;

// The post-recovery rate check is a wall-clock throughput claim; under a
// sanitizer the whole process runs 2-15x slow and measurement windows
// catch pacer burst boundaries, so only the conservation/supervision
// invariants stay strict there and the rate tolerance widens.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr double kRateTolerance = 0.40;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr double kRateTolerance = 0.40;
#else
constexpr double kRateTolerance = 0.15;
#endif
#else
constexpr double kRateTolerance = 0.15;
#endif

/// Polls `done` until it returns true or `seconds` elapse.
bool wait_for(double seconds, const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

std::uint64_t accounted(const RuntimeStats& s) {
  return s.dequeued + s.fanin_drops + s.tail_drops + s.shed_drops +
         s.straggler_drops;
}

double jain(const std::vector<double>& xs) {
  double sum = 0.0, sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sq += x * x;
  }
  return sq > 0.0 ? sum * sum / (static_cast<double>(xs.size()) * sq) : 1.0;
}

// --- Injected ingress faults ----------------------------------------------

TEST(FaultE2E, InjectedDropsAreInjectorCountedNeverOffered) {
  FaultInjector injector(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 0, "kind": "ingress_drop", "probability": 1.0,
       "duration_ms": 600000}]})"));
  RuntimeOptions options;
  options.fault = &injector;
  Runtime runtime(options);
  runtime.add_interface("if0");
  const FlowId f = runtime.control().add_flow({.willing = {0}});
  runtime.start();
  {
    IngressPort port = runtime.port(0);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(port.offer(f, 1000)) << "the producer believes it sent";
    }
    EXPECT_EQ(port.offered(), 0u) << "nothing actually entered a ring";
  }
  runtime.stop();
  EXPECT_EQ(injector.ingress_drops(), 100u);
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.offered, 0u);
  EXPECT_EQ(stats.dequeued, 0u);
}

TEST(FaultE2E, InjectedDupsDeliverBothCopies) {
  FaultInjector injector(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 0, "kind": "ingress_dup", "probability": 1.0,
       "duration_ms": 600000}]})"));
  RuntimeOptions options;
  options.fault = &injector;
  Runtime runtime(options);
  runtime.add_interface("if0");
  const FlowId f = runtime.control().add_flow(
      {.willing = {0}, .queue_capacity_bytes = 0});
  runtime.start();
  {
    IngressPort port = runtime.port(0);
    for (int i = 0; i < 50; ++i) ASSERT_TRUE(port.offer(f, 1000));
    EXPECT_EQ(port.offered(), 100u) << "each offer landed twice";
  }
  ASSERT_TRUE(wait_for(5.0, [&] { return runtime.stats().dequeued >= 100; }));
  runtime.stop();
  EXPECT_EQ(injector.ingress_dups(), 50u);
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.offered, 100u);
  EXPECT_EQ(stats.dequeued, 100u);
  EXPECT_EQ(runtime.sent_bytes(f), 100'000u);
}

TEST(FaultE2E, InjectedDelaysDeliverEventuallyWithNoLoss) {
  FaultInjector injector(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 0, "kind": "ingress_delay", "probability": 1.0,
       "delay_ms": 50, "duration_ms": 600000}]})"));
  RuntimeOptions options;
  options.fault = &injector;
  Runtime runtime(options);
  runtime.add_interface("if0");
  const FlowId f = runtime.control().add_flow(
      {.willing = {0}, .queue_capacity_bytes = 0});
  runtime.start();
  {
    IngressPort port = runtime.port(0);
    for (int i = 0; i < 40; ++i) ASSERT_TRUE(port.offer(f, 1000));
    // Held packets are flushed as their delay expires on later offers, and
    // force-flushed when the port dies -- either way nothing is lost.
  }
  ASSERT_TRUE(wait_for(5.0, [&] { return runtime.stats().dequeued >= 40; }));
  runtime.stop();
  EXPECT_EQ(injector.ingress_delays(), 40u);
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.offered, 40u);
  EXPECT_EQ(stats.dequeued, 40u);
}

TEST(FaultE2E, PoolExhaustionStopsTheGeneratorCold) {
  FaultInjector injector(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 0, "kind": "pool_exhaust", "duration_ms": 600000}]})"));
  RuntimeOptions options;
  options.fault = &injector;
  Runtime runtime(options);
  runtime.add_interface("if0");
  runtime.control().add_flow({.willing = {0}});
  runtime.start();
  LoadGeneratorOptions load;
  load.packet_bytes = 1000;
  LoadGenerator generator(runtime, load);
  generator.start();
  ASSERT_TRUE(wait_for(5.0, [&] { return injector.pool_rejects() > 100; }));
  generator.stop();
  runtime.stop();
  EXPECT_EQ(runtime.stats().offered, 0u)
      << "every acquire failed inside the exhaustion window";
  EXPECT_EQ(generator.offered(), 0u);
  EXPECT_GE(generator.rejected(), injector.pool_rejects());
}

// --- Overload control ------------------------------------------------------

TEST(FaultE2E, BackpressureWatermarkRefusesOffersUnderBacklog) {
  RuntimeOptions options;
  options.backpressure_bytes = 20'000;
  Runtime runtime(options);
  runtime.add_interface("if0", RateProfile(8e5));  // 100 bytes/ms: a trickle
  const FlowId f = runtime.control().add_flow(
      {.willing = {0}, .queue_capacity_bytes = 0});
  runtime.start();
  IngressPort port = runtime.port(0);
  // Keep offering until the shard's backlog crosses the watermark and the
  // port refuses us.  The pacing sleep lets fan-in move ring contents into
  // the scheduler, where they count against the watermark.
  bool rejected = false;
  for (int i = 0; i < 2000 && !rejected; ++i) {
    rejected = !port.offer(f, 1000);
    if ((i & 0xf) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  EXPECT_TRUE(rejected) << "offers past the watermark must be refused";
  port.flush_counters();
  runtime.stop();
  EXPECT_GT(runtime.stats().backpressure_rejects, 0u);
}

TEST(FaultE2E, OverloadSheddingKeepsJainHighUnderTwoXLoad) {
  RuntimeOptions options;
  options.shed_bytes = 128 * 1024;
  Runtime runtime(options);
  runtime.add_interface("if0", RateProfile(mbps(20)));
  std::vector<FlowId> flows;
  for (int i = 0; i < 4; ++i) {
    flows.push_back(runtime.control().add_flow(
        {.willing = {0}, .name = indexed_name("f", i)}));
  }
  runtime.start();
  LoadGeneratorOptions load;
  load.packet_bytes = 1000;  // unthrottled: far past 2x the link rate
  LoadGenerator generator(runtime, load);
  generator.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // warm up
  std::vector<std::uint64_t> before;
  for (const FlowId f : flows) before.push_back(runtime.sent_bytes(f));
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  std::vector<double> rates;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    rates.push_back(
        static_cast<double>(runtime.sent_bytes(flows[i]) - before[i]));
  }
  generator.stop();
  runtime.stop();
  EXPECT_GT(runtime.stats().shed_drops, 0u)
      << "the watermark must have engaged under 2x+ overload";
  EXPECT_GE(jain(rates), 0.9) << "shedding is weight-aware, so equal flows "
                                 "keep near-equal goodput";
}

// --- Straggler & quarantine contracts -------------------------------------

TEST(FaultE2E, RemoveDuringDrainDeliversOrCountsEveryPacket) {
  RuntimeOptions options;
  Runtime runtime(options);
  runtime.add_interface("if0", RateProfile(8e5));  // slow enough to backlog
  const FlowId f = runtime.control().add_flow(
      {.willing = {0}, .queue_capacity_bytes = 0});
  runtime.start();
  {
    IngressPort port = runtime.port(0);
    for (int i = 0; i < 300; ++i) ASSERT_TRUE(port.offer(f, 1000));
  }
  // Let the drain get properly underway, then yank the flow mid-flight.
  ASSERT_TRUE(wait_for(5.0, [&] {
    const RuntimeStats s = runtime.stats();
    return s.enqueued >= 200 && s.dequeued >= 10;
  }));
  runtime.control().remove_flow(f);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  runtime.stop();
  const RuntimeStats stats = runtime.stats();
  EXPECT_GT(stats.straggler_drops, 0u)
      << "packets queued in the scheduler at removal are counted losses";
  EXPECT_EQ(stats.offered, accounted(stats))
      << "delivered or counted, never silently gone";
  EXPECT_EQ(stats.tail_drops, 0u);
  EXPECT_EQ(stats.shed_drops, 0u);
}

TEST(FaultE2E, QuarantinedFlowOffersAreRejectedAndCounted) {
  Runtime runtime(RuntimeOptions{});
  runtime.add_interface("if0");
  const FlowId f = runtime.control().add_flow({.willing = {0}});
  runtime.start();
  IngressPort port = runtime.port(0);
  ASSERT_TRUE(port.offer(f, 1000));
  // Let the first packet drain before the kill -- otherwise it would be
  // discarded as a straggler by the re-steer, which is a different test.
  ASSERT_TRUE(wait_for(5.0, [&] { return runtime.stats().dequeued >= 1; }));
  // The flow's only interface goes administratively dead: preferences are
  // kept, shards dropped, and every offer is refused WITH a count.
  runtime.control().set_iface_down(0, true);
  EXPECT_FALSE(port.offer(f, 1000));
  EXPECT_FALSE(port.offer(f, 1000));
  runtime.control().set_iface_down(0, false);
  EXPECT_TRUE(port.offer(f, 1000)) << "revive re-steers the flow back";
  port.flush_counters();
  ASSERT_TRUE(wait_for(5.0, [&] { return runtime.stats().dequeued >= 2; }));
  runtime.stop();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.quarantine_rejects, 2u);
  EXPECT_GE(stats.ring_rejects, 2u) << "quarantine rejects are rejects too";
  EXPECT_EQ(stats.offered, 2u);
}

// --- Watchdog restart ------------------------------------------------------

TEST(FaultE2E, WatchdogRestartsAStalledWorkerWithoutLosingPackets) {
  FaultInjector injector(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 0, "kind": "worker_stall", "worker": 0,
       "duration_ms": 30000}]})"));
  RuntimeOptions options;
  options.fault = &injector;
  Runtime runtime(options);
  runtime.add_interface("if0");
  const FlowId f = runtime.control().add_flow(
      {.willing = {0}, .queue_capacity_bytes = 0});
  runtime.start();

  SupervisorOptions sup_options;
  sup_options.probe_interval_ns = 2 * kMillisecond;
  sup_options.worker_stall_probes = 3;
  sup_options.replay_clustering = false;
  Supervisor supervisor(runtime, sup_options);
  supervisor.start();

  // The lone worker is parked at the injector's safe point from its first
  // loop iteration; only a successful restart lets anything drain.
  std::uint64_t sent = 0;
  {
    IngressPort port = runtime.port(0);
    for (int i = 0; i < 200; ++i) {
      if (port.offer(f, 1000)) ++sent;
    }
  }
  ASSERT_TRUE(wait_for(10.0, [&] { return supervisor.restarts_succeeded() >= 1; }))
      << "the watchdog must supersede the parked thread";
  ASSERT_TRUE(wait_for(10.0, [&] { return runtime.stats().dequeued >= sent; }))
      << "the replacement thread owns the shard and drains it";
  supervisor.stop();
  runtime.stop();
  const RuntimeStats stats = runtime.stats();
  EXPECT_GE(stats.worker_restarts, 1u);
  EXPECT_EQ(stats.dequeued, sent);
  EXPECT_EQ(stats.offered, accounted(stats));
  EXPECT_EQ(injector.stalls_entered(), 1u)
      << "the replacement must not re-enter the window it was spawned for";
}

// --- The headline chaos run: kill -> flap -> revive ------------------------

TEST(FaultE2E, KillFlapReviveConservesPacketsAndRecoversFairness) {
  FaultInjector injector(FaultPlan::parse_json(R"({"seed": 11, "events": [
      {"at_ms": 300,  "kind": "iface_down", "iface": 1},
      {"at_ms": 900,  "kind": "iface_up",   "iface": 1},
      {"at_ms": 1200, "kind": "iface_flap", "iface": 1,
       "period_ms": 60, "duty": 0.5, "duration_ms": 300}]})"));
  RuntimeOptions options;
  options.workers = 2;
  options.shards = 1;  // exact paper semantics across both interfaces
  options.fault = &injector;
  // Deep buckets: on an oversubscribed host a drain thread can be starved
  // for hundreds of milliseconds; with the default 256 KiB depth the
  // bucket caps and link capacity is silently lost, skewing the rate
  // check below.  One full second of the fastest link fits in 4 MiB, so
  // any starvation inside the pacer's catch-up clamp costs nothing.
  options.pacer_depth_bytes = 4 * 1024 * 1024;
  Runtime runtime(options);
  // Symmetric capacities keep the optimum in a single uniform cluster
  // (level 20 for all three flows), which is the regime where Theorem 2
  // guarantees miDRR reaches the max-min allocation exactly -- with
  // asymmetric links the spanning flow "b" legitimately siphons some of
  // "c"'s interface and the reference check would measure the known
  // miDRR-vs-optimal gap instead of recovery.
  runtime.add_interface("if0", RateProfile(mbps(30)));
  runtime.add_interface("if1", RateProfile(mbps(30)));
  const FlowId a = runtime.control().add_flow({.willing = {0}, .name = "a"});
  const FlowId b =
      runtime.control().add_flow({.willing = {0, 1}, .name = "b"});
  const FlowId c = runtime.control().add_flow({.willing = {1}, .name = "c"});
  runtime.start();

  // Probe slowly enough that a worker starved by an oversubscribed host
  // (single-core CI running tests in parallel) is not mistaken for a dead
  // link: a false kill needs 80 ms of continuous drain silence, while the
  // injected 600 ms outage is still detected well inside its window.
  SupervisorOptions sup_options;
  sup_options.probe_interval_ns = 10 * kMillisecond;
  sup_options.dead_after_probes = 8;
  sup_options.healthy_after_probes = 3;
  Supervisor supervisor(runtime, sup_options, &runtime);
  supervisor.start();

  LoadGeneratorOptions load;
  load.packet_bytes = 1000;
  LoadGenerator generator(runtime, load);
  generator.start();

  // Ride through the kill window: the supervisor must notice the silent
  // link and quarantine "c" (its whole Pi row is dead), so its offers are
  // rejected-with-count instead of disappearing into a dead queue.
  ASSERT_TRUE(wait_for(10.0, [&] {
    return supervisor.link_state(1) == LinkState::kDead;
  })) << "silence against backlog must be detected";
  EXPECT_TRUE(runtime.control().iface_down(1));
  ASSERT_TRUE(
      wait_for(10.0, [&] { return runtime.stats().quarantine_rejects > 0; }));

  // Ride through the revive and the flap storm; hysteresis must eventually
  // settle the link back to healthy and un-quarantine "c".
  ASSERT_TRUE(wait_for(15.0, [&] {
    return runtime.now_ns() > 1600 * kMillisecond &&
           supervisor.link_state(1) == LinkState::kHealthy &&
           !runtime.control().iface_down(1);
  })) << "token motion after the flap must revive the link";

  // Post-recovery: measure against the weighted max-min reference on the
  // full (recovered) topology: a = b = c = 20 Mb/s, with b drawing
  // 10 Mb/s from each interface.
  fair::MaxMinInput input;
  input.capacities_bps = {mbps(30), mbps(30)};
  input.weights = {1.0, 1.0, 1.0};
  input.willing = {{true, false}, {true, true}, {false, true}};
  const auto reference = fair::solve_max_min(input);

  // The rate check is wall-clock sensitive: on an oversubscribed host
  // (single-core CI, parallel ctest) one window can catch a scheduler
  // time-slice artifact or a spurious supervisor transition, so take up
  // to five windows, discard any window dirtied by a link-state change,
  // and keep the last.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // settle
  std::vector<double> measured;
  for (int attempt = 0; attempt < 5; ++attempt) {
    const std::uint64_t transitions_before = supervisor.transitions();
    const std::vector<std::uint64_t> before = {runtime.sent_bytes(a),
                                               runtime.sent_bytes(b),
                                               runtime.sent_bytes(c)};
    const SimTime t0 = runtime.now_ns();
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
    const SimTime t1 = runtime.now_ns();
    measured = {rate_bps(runtime.sent_bytes(a) - before[0], t1 - t0),
                rate_bps(runtime.sent_bytes(b) - before[1], t1 - t0),
                rate_bps(runtime.sent_bytes(c) - before[2], t1 - t0)};
    if (supervisor.transitions() != transitions_before ||
        supervisor.link_state(1) != LinkState::kHealthy ||
        runtime.control().iface_down(1)) {
      continue;  // window dirtied by a (possibly spurious) link event
    }
    bool all_near = true;
    for (std::size_t i = 0; i < measured.size(); ++i) {
      if (std::abs(measured[i] - reference.rates_bps[i]) >
          reference.rates_bps[i] * kRateTolerance) {
        all_near = false;
      }
    }
    if (all_near) break;
  }

  generator.stop();
  // Quiescence: every accepted packet must drain or land in a counter.
  ASSERT_TRUE(wait_for(10.0, [&] {
    const RuntimeStats s = runtime.stats();
    return s.offered == accounted(s);
  })) << "conservation identity must close once ingress stops";
  supervisor.stop();
  runtime.stop();

  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.offered, accounted(stats)) << "zero silent packet loss";
  EXPECT_EQ(stats.dequeued, stats.sent + stats.io_drops + stats.io_pending)
      << "the egress split must also close (sim: sent == dequeued)";
  EXPECT_GE(supervisor.transitions(), 2u) << "at least kill and revive";
  EXPECT_GT(stats.quarantine_rejects, 0u);
  EXPECT_GT(stats.straggler_drops + stats.fanin_drops, 0u)
      << "the kill re-steer discards the dead queue's backlog, counted";
  EXPECT_GE(supervisor.clustering_checks(), 1u);
  EXPECT_EQ(supervisor.clustering_violations(), 0u)
      << supervisor.last_clustering_verdict();

  for (std::size_t i = 0; i < measured.size(); ++i) {
    const double want = reference.rates_bps[i];
    EXPECT_NEAR(measured[i], want, want * kRateTolerance)
        << "flow " << i << " measured " << to_mbps(measured[i])
        << " Mb/s post-recovery, reference " << to_mbps(want) << " Mb/s";
  }
}

// --- The closed loop: measured capacity, adaptive shedding, recording -----

TEST(AdaptE2E, DrainMeasurementTracksThePacerScaleNotTheConfig) {
  // A 50% capacity droop injected at the pacer (`set_rate_scale`) while
  // iface_configured_bps keeps reporting the profile rate: the supervisor's
  // window measurement must see the SCALED drain, push the controller's
  // drift ratio toward 0.5, and enter a droop -- without ever declaring the
  // link dead (it still moves bytes).
  FaultInjector injector(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 200, "kind": "iface_scale", "iface": 0, "scale": 0.5,
       "duration_ms": 600000}]})"));
  RuntimeOptions options;
  options.fault = &injector;
  options.backpressure_bytes = 256 * 1024;  // bound memory; keep backlog
  Runtime runtime(options);
  runtime.add_interface("if0", RateProfile(mbps(20)));
  runtime.control().add_flow({.willing = {0}, .name = "f"});

  fault::AdaptiveController adapt(runtime, fault::AdaptOptions{});
  runtime.set_capacity_overlay(&adapt);
  runtime.start();

  SupervisorOptions sup_options;
  sup_options.probe_interval_ns = 10 * kMillisecond;
  sup_options.dead_after_probes = 8;
  sup_options.replay_clustering = false;
  Supervisor supervisor(runtime, sup_options);
  supervisor.set_adaptive(&adapt);
  supervisor.start();

  LoadGeneratorOptions load;
  load.packet_bytes = 1000;
  LoadGenerator generator(runtime, load);
  generator.start();

  ASSERT_TRUE(wait_for(15.0, [&] { return adapt.drooped(0); }))
      << "three backlogged sub-0.70 windows must enter a droop";
  std::this_thread::sleep_for(std::chrono::milliseconds(300));  // EWMA settle
  EXPECT_NEAR(adapt.drift_ratio(0), 0.5, 0.15)
      << "the estimate tracks the scaled pacer, not the configured rate";
  EXPECT_EQ(supervisor.link_state(0), LinkState::kHealthy)
      << "a drooped link still moves bytes: degraded capacity is not death";
  EXPECT_NEAR(adapt.effective_capacity_bps(0, mbps(20)),
              adapt.drift_ratio(0) * mbps(20), 1.0)
      << "fairness inputs re-lower to measured capacity while drooped";
  EXPECT_GE(adapt.droop_enters(), 1u);

  generator.stop();
  ASSERT_TRUE(wait_for(10.0, [&] {
    const RuntimeStats s = runtime.stats();
    return s.offered == accounted(s);
  }));
  supervisor.stop();
  runtime.stop();
}

TEST(AdaptE2E, ClosedLoopHoldsP99AndFairnessThroughAnUnscriptedDroop) {
  // The acceptance run: 2x+ overload with an unscripted 50% capacity droop
  // on one of two interfaces.  The closed loop must (a) derive a shed
  // watermark that holds traced p99 near the stated target, (b) re-lower
  // fairness shares to measured capacity (Jain stays high on symmetric
  // flows), and (c) record the whole incident as a FaultPlan that replays
  // through the injector with the conservation identity exact and the same
  // supervisor verdict sequence.
  constexpr SimDuration kTarget = 20 * kMillisecond;
  FaultInjector injector(FaultPlan::parse_json(R"({"seed": 3, "events": [
      {"at_ms": 600, "kind": "iface_scale", "iface": 1, "scale": 0.5,
       "duration_ms": 2500}]})"));
  RuntimeOptions options;
  options.fault = &injector;
  options.stage_sample_every = 1;           // the p99 the loop steers by
  options.backpressure_bytes = 4 * 1024 * 1024;  // far above the watermark:
                                                 // shedding is the control
  Runtime runtime(options);
  runtime.add_interface("if0", RateProfile(mbps(20)));
  runtime.add_interface("if1", RateProfile(mbps(20)));
  std::vector<FlowId> flows;
  for (int i = 0; i < 4; ++i) {
    flows.push_back(runtime.control().add_flow(
        {.willing = {0, 1}, .name = indexed_name("f", i)}));
  }

  fault::FaultPlanRecorder recorder(3);
  fault::AdaptOptions aopts;
  aopts.target_p99_ns = kTarget;
  fault::AdaptiveController adapt(runtime, aopts);
  adapt.set_recorder(&recorder);
  runtime.set_capacity_overlay(&adapt);
  runtime.start();

  SupervisorOptions sup_options;
  sup_options.probe_interval_ns = 10 * kMillisecond;
  sup_options.dead_after_probes = 8;
  sup_options.healthy_after_probes = 3;
  Supervisor supervisor(runtime, sup_options, &runtime);
  supervisor.set_adaptive(&adapt);
  supervisor.set_recorder(&recorder);
  supervisor.start();

  LoadGeneratorOptions load;
  load.packet_bytes = 1000;  // unthrottled: far past 2x the link rates
  LoadGenerator generator(runtime, load);
  generator.start();

  // The droop is unscripted from the supervisor's point of view: it must
  // be DISCOVERED from the drain measurement.
  ASSERT_TRUE(wait_for(15.0, [&] { return adapt.drooped(1); }))
      << "the capacity droop must be discovered, not configured";
  EXPECT_EQ(supervisor.link_state(1), LinkState::kHealthy);
  ASSERT_TRUE(wait_for(10.0, [&] { return runtime.stats().shed_drops > 0; }))
      << "the derived watermark must engage under 2x overload";

  // Steady state inside the droop window: p99 near target, Jain high.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));  // settle
  std::vector<std::uint64_t> before;
  for (const FlowId f : flows) before.push_back(runtime.sent_bytes(f));
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  std::vector<double> rates;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    rates.push_back(
        static_cast<double>(runtime.sent_bytes(flows[i]) - before[i]));
  }
  EXPECT_GE(jain(rates), 0.95)
      << "weight-aware shedding on re-lowered shares keeps symmetric flows "
         "symmetric";
  const double p99 = adapt.windowed_p99_ns();
  const double leeway = kRateTolerance > 0.2 ? 4.0 : 2.0;  // sanitizers
  EXPECT_GT(p99, 0.0) << "the tracer window must be thick enough to judge";
  EXPECT_LE(p99, leeway * static_cast<double>(kTarget))
      << "the correction loop holds traced p99 near the stated objective";
  EXPECT_NEAR(adapt.drift_ratio(1), 0.5, 0.15);

  generator.stop();
  ASSERT_TRUE(wait_for(10.0, [&] {
    const RuntimeStats s = runtime.stats();
    return s.offered == accounted(s);
  })) << "conservation identity must close once ingress stops";
  supervisor.stop();
  adapt.finalize(runtime.now_ns());
  runtime.stop();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.offered, accounted(stats));
  EXPECT_GT(stats.shed_drops, 0u);

  // The incident became a script: canonical, replayable, deterministic.
  const FaultPlan recorded = recorder.plan();
  const std::string canonical = recorded.to_json();
  EXPECT_EQ(FaultPlan::parse_json(canonical).to_json(), canonical);
  bool saw_droop_episode = false;
  for (const auto& event : recorded.events) {
    if (event.kind == fault::FaultKind::kIfaceScale && event.iface == 1) {
      saw_droop_episode = true;
      EXPECT_GE(event.scale, 0.2);
      EXPECT_LE(event.scale, 0.75);
    }
  }
  EXPECT_TRUE(saw_droop_episode)
      << "the recorder must hold the observed droop as an iface_scale event";

  // Replay the recorded plan against a fresh runtime: same verdicts, exact
  // conservation.  (The CI chaos gate runs the richer kill-laden variant.)
  FaultInjector replay(FaultPlan::parse_json(canonical));
  RuntimeOptions ropts;
  ropts.fault = &replay;
  ropts.stage_sample_every = 1;
  ropts.backpressure_bytes = 4 * 1024 * 1024;
  Runtime rerun(ropts);
  rerun.add_interface("if0", RateProfile(mbps(20)));
  rerun.add_interface("if1", RateProfile(mbps(20)));
  for (int i = 0; i < 4; ++i) {
    rerun.control().add_flow(
        {.willing = {0, 1}, .name = indexed_name("f", i)});
  }
  fault::AdaptiveController replay_adapt(rerun, aopts);
  rerun.set_capacity_overlay(&replay_adapt);
  rerun.start();
  Supervisor replay_sup(rerun, sup_options, &rerun);
  replay_sup.set_adaptive(&replay_adapt);
  replay_sup.start();
  LoadGenerator replay_gen(rerun, load);
  replay_gen.start();
  const SimTime horizon = recorded.horizon_ns();
  ASSERT_TRUE(wait_for(20.0, [&] { return rerun.now_ns() > horizon; }));
  replay_gen.stop();
  ASSERT_TRUE(wait_for(10.0, [&] {
    const RuntimeStats s = rerun.stats();
    return s.offered == accounted(s);
  })) << "the replayed incident must conserve packets exactly";
  replay_sup.stop();
  rerun.stop();
  const RuntimeStats replay_stats = rerun.stats();
  EXPECT_EQ(replay_stats.offered, accounted(replay_stats));
  EXPECT_EQ(replay_sup.verdict_sequence(), supervisor.verdict_sequence())
      << "record -> replay must walk the same terminal verdict sequence";
}

}  // namespace
}  // namespace midrr::rt
