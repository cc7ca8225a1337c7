// Fault layer: FaultPlan schema validation, injector timeline
// compilation (down/up/flap/scale overlays), the stall/restart safe-point
// protocol, deterministic ingress sampling, pool-exhaust windows, and the
// Supervisor's link/worker state machines driven through a mock
// SupervisedRuntime (no threads, fully deterministic probes).  The
// end-to-end chaos runs against a live Runtime live in test_fault_e2e.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/adapt.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fault/recorder.hpp"
#include "fault/supervisor.hpp"
#include "telemetry/fairness_drift.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prometheus.hpp"
#include "util/latency_histogram.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace midrr {
namespace {

using fault::AdaptiveController;
using fault::AdaptOptions;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultPlanRecorder;
using fault::IngressAction;
using fault::LinkState;
using fault::Supervisor;
using fault::SupervisorOptions;

// --- FaultPlan parsing & validation ---------------------------------------

constexpr const char* kEveryKindPlan = R"({
  "seed": 42,
  "events": [
    {"at_ms": 2000, "kind": "iface_up",   "iface": 1},
    {"at_ms": 500,  "kind": "iface_down", "iface": 1},
    {"at_ms": 900,  "kind": "iface_flap", "iface": 1,
     "period_ms": 100, "duty": 0.25, "duration_ms": 600},
    {"at_ms": 300,  "kind": "iface_scale", "iface": 0, "scale": 0.25,
     "duration_ms": 400},
    {"at_ms": 400,  "kind": "worker_stall", "worker": 3,
     "duration_ms": 250},
    {"at_ms": 100,  "kind": "ingress_drop", "probability": 0.01,
     "duration_ms": 1000},
    {"at_ms": 100,  "kind": "ingress_dup", "probability": 0.5,
     "duration_ms": 1000},
    {"at_ms": 100,  "kind": "ingress_delay", "probability": 0.02,
     "delay_ms": 5, "duration_ms": 1000},
    {"at_ms": 600,  "kind": "pool_exhaust", "duration_ms": 200}
  ]
})";

TEST(FaultPlanParse, ParsesEveryKindAndSortsByTime) {
  const FaultPlan plan = FaultPlan::parse_json(kEveryKindPlan);
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.events.size(), 9u);
  for (std::size_t i = 1; i < plan.events.size(); ++i) {
    EXPECT_LE(plan.events[i - 1].at_ns, plan.events[i].at_ns);
  }
  const fault::FaultEvent& flap = plan.events[7];  // 900 ms
  EXPECT_EQ(flap.kind, FaultKind::kIfaceFlap);
  EXPECT_EQ(flap.iface, 1u);
  EXPECT_EQ(flap.period_ns, 100 * kMillisecond);
  EXPECT_DOUBLE_EQ(flap.duty, 0.25);
  EXPECT_EQ(flap.duration_ns, 600 * kMillisecond);
  const fault::FaultEvent& delay = plan.events[2];  // one of the 100 ms trio
  EXPECT_EQ(delay.kind, FaultKind::kIngressDelay);
  EXPECT_EQ(delay.delay_ns, 5 * kMillisecond);
  EXPECT_DOUBLE_EQ(delay.probability, 0.02);
  // A finite plan's horizon is the last instant any event is active.
  EXPECT_EQ(plan.horizon_ns(), 2 * kSecond);
}

TEST(FaultPlanParse, OpenEndedDownMakesTheHorizonUnbounded) {
  const FaultPlan plan = FaultPlan::parse_json(
      R"({"events": [{"at_ms": 100, "kind": "iface_down", "iface": 0}]})");
  EXPECT_EQ(plan.horizon_ns(), kSimTimeMax);
}

TEST(FaultPlanParse, RejectsSchemaViolationsLoudly) {
  const auto rejects = [](const char* text) {
    EXPECT_THROW(FaultPlan::parse_json(text), std::runtime_error) << text;
  };
  rejects(R"({"events": [{"at_ms": 1, "kind": "iface_melt", "iface": 0}]})");
  // A typo'd field must fail, not silently default.
  rejects(R"({"events": [{"at_ms": 1, "kind": "pool_exhaust",
              "duraton_ms": 5}]})");
  // Fields from OTHER kinds are unknown for this kind.
  rejects(R"({"events": [{"at_ms": 1, "kind": "iface_down", "iface": 0,
              "scale": 0.5}]})");
  rejects(R"({"events": [{"at_ms": 1, "kind": "iface_flap", "iface": 0,
              "duration_ms": 10}]})");  // missing period_ms
  rejects(R"({"events": [{"at_ms": -1, "kind": "iface_down", "iface": 0}]})");
  rejects(R"({"events": [{"at_ms": 1, "kind": "ingress_drop",
              "probability": 1.5, "duration_ms": 10}]})");
  rejects(R"({"events": [{"at_ms": 1, "kind": "iface_flap", "iface": 0,
              "period_ms": 10, "duration_ms": 10, "duty": 1.0}]})");
  rejects(R"({"events": [{"at_ms": 1, "kind": "iface_scale", "iface": 0,
              "scale": 2.0, "duration_ms": 10}]})");
  // Out-of-range numbers: a cast would overflow, or the value would not
  // survive the canonical round trip.
  rejects(R"({"events": [{"at_ms": 1e300, "kind": "iface_down",
              "iface": 0}]})");
  rejects(R"({"events": [{"at_ms": 1, "kind": "iface_down",
              "iface": 1e20}]})");
  rejects(R"({"events": [{"at_ms": 1, "kind": "pool_exhaust",
              "duration_ms": 1e-300}]})");  // rounds to 0 ns
  rejects(R"({"seed": 1e30, "events": []})");
  rejects(R"({"seed": 1.5, "events": []})");
  rejects(R"({"seeds": 1, "events": []})");  // unknown top-level key
  rejects(R"({"seed": 1})");                 // missing events
}

// --- FaultPlan canonical serialization ------------------------------------

TEST(FaultPlanJson, RoundTripIsByteIdenticalForEveryKind) {
  // kEveryKindPlan covers every fault class the chaos CI plan uses (all 9
  // kinds).  Canonical form is a fixpoint: parse(to_json()).to_json() must
  // be byte-identical, per kind, with events stably time-sorted.
  const FaultPlan plan = FaultPlan::parse_json(kEveryKindPlan);
  const std::string canonical = plan.to_json();
  const FaultPlan reparsed = FaultPlan::parse_json(canonical);
  EXPECT_EQ(reparsed.to_json(), canonical);
  ASSERT_EQ(reparsed.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(reparsed.events[i].kind, plan.events[i].kind) << i;
    EXPECT_EQ(reparsed.events[i].at_ns, plan.events[i].at_ns) << i;
    EXPECT_EQ(reparsed.events[i].duration_ns, plan.events[i].duration_ns)
        << i;
  }
  EXPECT_EQ(reparsed.seed, 42u);
  // Integral millisecond timestamps print as integers, so a hand-written
  // plan's "at_ms": 500 survives the round trip as 500.
  EXPECT_NE(canonical.find("\"at_ms\":500"), std::string::npos);
  EXPECT_EQ(canonical.find(".000000"), std::string::npos);
}

TEST(FaultPlanJson, FractionalMillisecondsSurviveTheRoundTrip) {
  const FaultPlan plan = FaultPlan::parse_json(R"({"events": [
      {"at_ms": 0.25, "kind": "iface_scale", "iface": 0, "scale": 0.125,
       "duration_ms": 1.5}]})");
  EXPECT_EQ(plan.events[0].at_ns, 250 * kMicrosecond);
  EXPECT_EQ(plan.events[0].duration_ns, 1500 * kMicrosecond);
  const std::string canonical = plan.to_json();
  EXPECT_EQ(FaultPlan::parse_json(canonical).to_json(), canonical);
  EXPECT_NE(canonical.find("\"at_ms\":0.25"), std::string::npos);
}

TEST(FaultPlanJson, ObservedNotesRoundTripAndStayReplayInert) {
  const char* text = R"({
    "seed": 3,
    "events": [{"at_ms": 100, "kind": "iface_down", "iface": 0}],
    "observed": [
      {"at_ms": 250, "note": "shed engaged watermark_bytes=8192"},
      {"at_ms": 120, "note": "second \"quoted\" note"}
    ]
  })";
  const FaultPlan plan = FaultPlan::parse_json(text);
  ASSERT_EQ(plan.observed.size(), 2u);
  // Stable-sorted by time, like events.
  EXPECT_EQ(plan.observed[0].at_ns, 120 * kMillisecond);
  EXPECT_EQ(plan.observed[1].note, "shed engaged watermark_bytes=8192");
  const std::string canonical = plan.to_json();
  const FaultPlan reparsed = FaultPlan::parse_json(canonical);
  EXPECT_EQ(reparsed.to_json(), canonical);
  ASSERT_EQ(reparsed.observed.size(), 2u);
  EXPECT_EQ(reparsed.observed[1].note, "shed engaged watermark_bytes=8192");
  // Replay-inert: the injector compiles the same timeline with or without
  // the annotations.
  FaultInjector inj(plan);
  inj.attach(1, 1);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(0, 200 * kMillisecond), 0.0);
  // Unknown fields inside an observed entry fail loudly, like events.
  EXPECT_THROW(FaultPlan::parse_json(
                   R"({"events": [], "observed": [
                       {"at_ms": 1, "note": "x", "extra": 2}]})"),
               std::runtime_error);
  EXPECT_THROW(FaultPlan::parse_json(
                   R"({"events": [], "observed": [{"at_ms": -1,
                       "note": "x"}]})"),
               std::runtime_error);
}

// --- FaultPlanRecorder ----------------------------------------------------

TEST(FaultRecorder, RecordedTransitionsReplayThroughAnInjector) {
  FaultPlanRecorder rec(7);
  rec.record_link_dead(1, 500 * kMillisecond);
  rec.record_link_revived(1, 900 * kMillisecond);
  rec.record_iface_scale(0, 300 * kMillisecond, 700 * kMillisecond, 0.5);
  rec.record_worker_stall(2, 100 * kMillisecond, 250 * kMillisecond);
  rec.note(600 * kMillisecond, "shed engaged watermark_bytes=4096");
  EXPECT_EQ(rec.event_count(), 4u);
  EXPECT_EQ(rec.note_count(), 1u);

  const FaultPlan plan = rec.plan();
  EXPECT_EQ(plan.seed, 7u);
  const std::string canonical = plan.to_json();
  EXPECT_EQ(FaultPlan::parse_json(canonical).to_json(), canonical)
      << "a recorded incident is itself a canonical plan";

  // The recorded plan drives an injector: the dead window is a scale-0
  // step, the droop a 0.5 overlay, both bounded exactly as observed.
  FaultInjector inj(FaultPlan::parse_json(canonical));
  inj.attach(2, 3);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(1, 600 * kMillisecond), 0.0);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(1, 1000 * kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(0, 400 * kMillisecond), 0.5);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(0, 800 * kMillisecond), 1.0);
}

TEST(FaultRecorder, SubMillisecondEpisodesWidenToTheSchemaMinimum) {
  FaultPlanRecorder rec;
  rec.record_iface_scale(0, 100 * kMillisecond, 100 * kMillisecond, 0.4);
  rec.record_worker_stall(0, 0, 10);  // 10 ns observed freeze window
  const FaultPlan plan = rec.plan();
  ASSERT_EQ(plan.events.size(), 2u);
  for (const auto& event : plan.events) {
    EXPECT_GE(event.duration_ns, kMillisecond);
  }
  const std::string canonical = plan.to_json();
  EXPECT_EQ(FaultPlan::parse_json(canonical).to_json(), canonical);
}

// --- Injector: capacity timelines -----------------------------------------

TEST(FaultInjector, DownUpCompilesToAStepTimeline) {
  FaultInjector inj(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 500,  "kind": "iface_down", "iface": 1},
      {"at_ms": 2000, "kind": "iface_up",   "iface": 1}]})"));
  inj.attach(2, 1);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(1, 500 * kMillisecond - 1), 1.0);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(1, 500 * kMillisecond), 0.0);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(1, kSecond), 0.0);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(1, 2 * kSecond), 1.0);
  // The untouched interface never leaves 1.0.
  EXPECT_EQ(inj.iface_timeline(0).size(), 1u);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(0, kSecond), 1.0);
}

TEST(FaultInjector, CursorWalkMatchesTheSnapshotForm) {
  FaultInjector inj(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 100, "kind": "iface_scale", "iface": 0, "scale": 0.5,
       "duration_ms": 200},
      {"at_ms": 400, "kind": "iface_down", "iface": 0},
      {"at_ms": 700, "kind": "iface_up", "iface": 0},
      {"at_ms": 800, "kind": "iface_flap", "iface": 0,
       "period_ms": 40, "duty": 0.5, "duration_ms": 200}]})"));
  inj.attach(1, 1);
  std::size_t cursor = 0;
  for (SimTime t = 0; t <= 1200 * kMillisecond; t += kMillisecond) {
    ASSERT_DOUBLE_EQ(inj.iface_scale(0, t, cursor), inj.iface_scale_at(0, t))
        << "at t = " << t;
  }
}

TEST(FaultInjector, FlapIsASquareWaveWithTheRequestedDuty) {
  FaultInjector inj(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 1000, "kind": "iface_flap", "iface": 0,
       "period_ms": 100, "duty": 0.5, "duration_ms": 400}]})"));
  inj.attach(1, 1);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(0, 1020 * kMillisecond), 1.0);  // up half
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(0, 1070 * kMillisecond), 0.0);  // down
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(0, 1120 * kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(0, 1170 * kMillisecond), 0.0);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(0, 1400 * kMillisecond), 1.0)
      << "flap over, base state restored";
}

TEST(FaultInjector, IfaceUpCancelsARunningOverlay) {
  FaultInjector inj(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 300, "kind": "iface_scale", "iface": 0, "scale": 0.25,
       "duration_ms": 1000},
      {"at_ms": 600, "kind": "iface_up", "iface": 0}]})"));
  inj.attach(1, 1);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(0, 400 * kMillisecond), 0.25);
  EXPECT_DOUBLE_EQ(inj.iface_scale_at(0, 700 * kMillisecond), 1.0)
      << "iface_up truncates the scale window";
}

TEST(FaultInjector, AttachValidatesTargetsAgainstTheTopology) {
  {
    FaultInjector inj(FaultPlan::parse_json(
        R"({"events": [{"at_ms": 1, "kind": "iface_down", "iface": 5}]})"));
    EXPECT_THROW(inj.attach(2, 1), std::runtime_error);
  }
  {
    FaultInjector inj(FaultPlan::parse_json(
        R"({"events": [{"at_ms": 1, "kind": "worker_stall", "worker": 2,
            "duration_ms": 10}]})"));
    EXPECT_THROW(inj.attach(2, 2), std::runtime_error);
  }
  {
    FaultInjector inj(FaultPlan::parse_json(R"({"events": []})"));
    inj.attach(1, 1);
    EXPECT_THROW(inj.attach(1, 1), std::runtime_error) << "attached twice";
  }
}

// --- Injector: ingress sampling & pool windows ----------------------------

TEST(FaultInjector, IngressSamplingIsDeterministicPerProducer) {
  const char* text = R"({"seed": 9, "events": [
      {"at_ms": 0, "kind": "ingress_drop", "probability": 0.3,
       "duration_ms": 1000},
      {"at_ms": 0, "kind": "ingress_delay", "probability": 0.3,
       "delay_ms": 7, "duration_ms": 1000}]})";
  FaultInjector a(FaultPlan::parse_json(text));
  FaultInjector b(FaultPlan::parse_json(text));
  a.attach(1, 1);
  b.attach(1, 1);
  Rng rng_a = a.fork_ingress_rng(0);
  Rng rng_b = b.fork_ingress_rng(0);
  Rng rng_other = a.fork_ingress_rng(1);
  bool producers_diverged = false;
  for (int i = 0; i < 256; ++i) {
    const SimTime now = i * kMillisecond;
    SimDuration d_a = 0, d_b = 0, d_o = 0;
    const IngressAction act_a = a.sample_ingress(now, rng_a, d_a);
    const IngressAction act_b = b.sample_ingress(now, rng_b, d_b);
    ASSERT_EQ(act_a, act_b) << "same plan + producer must replay identically";
    ASSERT_EQ(d_a, d_b);
    if (act_a == IngressAction::kDelay) {
      EXPECT_EQ(d_a, 7 * kMillisecond);
    }
    if (a.sample_ingress(now, rng_other, d_o) != act_b) {
      producers_diverged = true;
    }
  }
  EXPECT_TRUE(producers_diverged) << "producer streams must be independent";
  EXPECT_GT(a.ingress_drops(), 0u);
  EXPECT_GT(a.ingress_delays(), 0u);
}

TEST(FaultInjector, SamplingOutsideEveryWindowIsANoOp) {
  FaultInjector inj(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 100, "kind": "ingress_drop", "probability": 1.0,
       "duration_ms": 100}]})"));
  inj.attach(1, 1);
  EXPECT_TRUE(inj.has_ingress_faults());
  Rng rng = inj.fork_ingress_rng(0);
  SimDuration delay = 0;
  EXPECT_EQ(inj.sample_ingress(99 * kMillisecond, rng, delay),
            IngressAction::kNone);
  EXPECT_EQ(inj.sample_ingress(200 * kMillisecond, rng, delay),
            IngressAction::kNone);
  EXPECT_EQ(inj.sample_ingress(150 * kMillisecond, rng, delay),
            IngressAction::kDrop);
  EXPECT_EQ(inj.ingress_drops(), 1u);
}

TEST(FaultInjector, PoolExhaustWindowGatesAcquires) {
  FaultInjector inj(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 600, "kind": "pool_exhaust", "duration_ms": 200}]})"));
  inj.attach(1, 1);
  EXPECT_TRUE(inj.has_pool_faults());
  EXPECT_FALSE(inj.pool_exhausted(599 * kMillisecond));
  EXPECT_TRUE(inj.pool_exhausted(600 * kMillisecond));
  EXPECT_TRUE(inj.pool_exhausted(799 * kMillisecond));
  EXPECT_FALSE(inj.pool_exhausted(800 * kMillisecond));
  inj.note_pool_reject();
  inj.note_pool_reject();
  EXPECT_EQ(inj.pool_rejects(), 2u);
}

// --- Injector: stall / restart safe-point protocol ------------------------

/// Waits (bounded) until `worker` is provably parked at the safe point.
bool wait_for_stall(const FaultInjector& inj, std::uint32_t worker) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (inj.worker_in_stall(worker)) return true;
    std::this_thread::yield();
  }
  return false;
}

TEST(FaultInjector, StallWindowExpiresBackIntoTheLoop) {
  FaultInjector inj(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 0, "kind": "worker_stall", "worker": 0,
       "duration_ms": 30}]})"));
  inj.attach(1, 1);
  std::atomic<std::uint64_t> generation{0};
  EXPECT_EQ(inj.maybe_stall(0, kMillisecond, generation, 0),
            FaultInjector::StallOutcome::kResumed)
      << "parks for the remaining ~29 ms, then resumes naturally";
  EXPECT_EQ(inj.maybe_stall(0, 31 * kMillisecond, generation, 0),
            FaultInjector::StallOutcome::kNotStalled)
      << "window expired; cursor moves past it";
  EXPECT_EQ(inj.stalls_entered(), 1u);
}

TEST(FaultInjector, RestartSupersedesAParkedWorkerExactlyOnce) {
  FaultInjector inj(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 0, "kind": "worker_stall", "worker": 0,
       "duration_ms": 60000}]})"));
  inj.attach(1, 2);
  std::atomic<std::uint64_t> gen0{0};
  std::atomic<std::uint64_t> gen1{0};
  std::atomic<int> outcome{-1};
  std::thread parked([&] {
    outcome.store(static_cast<int>(inj.maybe_stall(0, kMillisecond, gen0, 0)),
                  std::memory_order_release);
  });
  ASSERT_TRUE(wait_for_stall(inj, 0));
  // A worker NOT at the safe point cannot be restarted.
  EXPECT_FALSE(inj.begin_restart(1, gen1));
  EXPECT_EQ(gen1.load(), 0u);
  // The parked one can: generation bumps, the thread exits superseded.
  EXPECT_TRUE(inj.begin_restart(0, gen0));
  parked.join();
  EXPECT_EQ(outcome.load(std::memory_order_acquire),
            static_cast<int>(FaultInjector::StallOutcome::kSuperseded));
  EXPECT_EQ(gen0.load(), 1u);
  // The replacement must not re-enter the very window its predecessor was
  // killed out of (the restart advanced the slot's cursor past it).
  EXPECT_EQ(inj.maybe_stall(0, 2 * kMillisecond, gen0, 1),
            FaultInjector::StallOutcome::kNotStalled);
}

TEST(FaultInjector, ReleaseAllUnparksForShutdown) {
  FaultInjector inj(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 0, "kind": "worker_stall", "worker": 0,
       "duration_ms": 60000}]})"));
  inj.attach(1, 1);
  std::atomic<std::uint64_t> generation{0};
  std::atomic<int> outcome{-1};
  std::thread parked([&] {
    outcome.store(static_cast<int>(
                      inj.maybe_stall(0, kMillisecond, generation, 0)),
                  std::memory_order_release);
  });
  ASSERT_TRUE(wait_for_stall(inj, 0));
  inj.release_all();
  parked.join();
  EXPECT_EQ(outcome.load(std::memory_order_acquire),
            static_cast<int>(FaultInjector::StallOutcome::kResumed));
  EXPECT_EQ(generation.load(), 0u) << "shutdown is not a restart";
}

// --- Supervisor (mock runtime; probes driven by hand) ---------------------

class MockRuntime : public fault::SupervisedRuntime {
 public:
  struct Link {
    std::string name;
    std::uint64_t sent_bytes = 0;
    double configured_bps = 8e6;
    double tokens = 0.0;
    std::uint64_t backlog = 0;
    std::uint64_t send_errors = 0;  ///< cumulative egress hard errors
    bool down = false;  ///< last actuation received
  };

  std::vector<Link> links;
  std::vector<std::uint64_t> heartbeats;
  SimTime now = 0;
  bool restart_result = false;
  std::vector<std::uint32_t> restart_calls;
  std::vector<std::pair<IfaceId, bool>> down_calls;

  std::size_t iface_count() const override { return links.size(); }
  std::size_t worker_count() const override { return heartbeats.size(); }
  SimTime now_ns() const override { return now; }
  std::string iface_name(IfaceId iface) const override {
    return links[iface].name;
  }
  std::uint64_t iface_sent_bytes(IfaceId iface) const override {
    return links[iface].sent_bytes;
  }
  double iface_configured_bps(IfaceId iface, SimTime) const override {
    return links[iface].configured_bps;
  }
  double iface_tokens(IfaceId iface) const override {
    return links[iface].tokens;
  }
  std::uint64_t iface_backlog_bytes(IfaceId iface) const override {
    return links[iface].backlog;
  }
  std::uint64_t worker_heartbeat(std::uint32_t worker) const override {
    return heartbeats[worker];
  }
  std::uint64_t iface_send_errors(IfaceId iface) const override {
    return links[iface].send_errors;
  }
  void set_iface_down(IfaceId iface, bool down) override {
    links[iface].down = down;
    down_calls.emplace_back(iface, down);
  }
  bool restart_worker(std::uint32_t worker) override {
    restart_calls.push_back(worker);
    return restart_result;
  }
};

SupervisorOptions fast_options() {
  SupervisorOptions options;
  options.probe_interval_ns = kMillisecond;
  options.dead_after_probes = 3;
  options.healthy_after_probes = 2;
  options.worker_stall_probes = 4;
  options.replay_clustering = false;
  return options;
}

/// Advances the mock clock one probe interval and probes once.
void tick(MockRuntime& rt, Supervisor& sup) {
  rt.now += kMillisecond;
  sup.probe();
}

TEST(Supervisor, SilentLinkWithBacklogDiesAfterHysteresis) {
  MockRuntime rt;
  rt.links.push_back({.name = "wifi", .backlog = 10'000});
  rt.heartbeats = {0};
  Supervisor sup(rt, fast_options());
  sup.probe();  // baseline: no verdict from a zero-length window
  EXPECT_EQ(sup.link_state(0), LinkState::kHealthy);

  tick(rt, sup);  // silent probe 1 -> suspect
  EXPECT_EQ(sup.link_state(0), LinkState::kSuspect);
  EXPECT_TRUE(sup.any_degraded());
  EXPECT_TRUE(rt.down_calls.empty());
  tick(rt, sup);  // 2
  EXPECT_EQ(sup.link_state(0), LinkState::kSuspect);
  tick(rt, sup);  // 3 -> dead, one actuation
  EXPECT_EQ(sup.link_state(0), LinkState::kDead);
  ASSERT_EQ(rt.down_calls.size(), 1u);
  EXPECT_EQ(rt.down_calls[0], (std::pair<IfaceId, bool>{0, true}));
  tick(rt, sup);  // stays dead without re-actuating
  EXPECT_EQ(rt.down_calls.size(), 1u);
  EXPECT_GE(sup.transitions(), 2u);  // healthy->suspect, suspect->dead
}

TEST(Supervisor, ProgressResetsTheDeathCountdown) {
  MockRuntime rt;
  rt.links.push_back({.name = "wifi", .backlog = 10'000});
  rt.heartbeats = {0};
  Supervisor sup(rt, fast_options());
  sup.probe();
  tick(rt, sup);
  tick(rt, sup);  // two silent probes: one short of dead
  EXPECT_EQ(sup.link_state(0), LinkState::kSuspect);
  rt.links[0].sent_bytes += 100'000;  // healthy drain resumes
  tick(rt, sup);
  EXPECT_EQ(sup.link_state(0), LinkState::kHealthy);
  for (int i = 0; i < 2; ++i) tick(rt, sup);  // silence again: not dead yet
  EXPECT_EQ(sup.link_state(0), LinkState::kSuspect)
      << "the countdown restarted from zero";
  EXPECT_TRUE(rt.down_calls.empty());
}

TEST(Supervisor, SustainedSendErrorsMarkTheLinkSuspectNotDead) {
  // The egress-error path: the pacer moves bytes every window (the link
  // is NOT silent), but the socket keeps reporting new hard transmit
  // failures.  Two consecutive erroring windows (send_error_probes) mark
  // the link suspect; it must never be killed on errors alone, and it
  // recovers through the usual hysteresis once the counter stops moving.
  MockRuntime rt;
  rt.links.push_back({.name = "wifi"});
  rt.heartbeats = {0};
  Supervisor sup(rt, fast_options());  // send_error_probes = 2 (default)
  sup.probe();                         // baseline
  const auto advance = [&](bool erroring) {
    rt.links[0].sent_bytes += 100'000;  // healthy drain: never silent
    if (erroring) rt.links[0].send_errors += 3;
    tick(rt, sup);
  };
  advance(true);  // one erroring window: not yet sustained
  EXPECT_EQ(sup.link_state(0), LinkState::kHealthy);
  advance(true);  // two consecutive -> suspect
  EXPECT_EQ(sup.link_state(0), LinkState::kSuspect);
  EXPECT_TRUE(sup.any_degraded());
  for (int i = 0; i < 4; ++i) advance(true);  // errors persist
  EXPECT_EQ(sup.link_state(0), LinkState::kSuspect)
      << "erroring links are degraded, never killed";
  EXPECT_TRUE(rt.down_calls.empty());
  advance(false);  // counter stops moving: streak resets, link recovers
  EXPECT_EQ(sup.link_state(0), LinkState::kHealthy);
  EXPECT_FALSE(sup.any_degraded());
}

TEST(Supervisor, TokenMotionRevivesADeadLink) {
  MockRuntime rt;
  rt.links.push_back({.name = "wifi", .backlog = 10'000});
  rt.heartbeats = {0};
  Supervisor sup(rt, fast_options());
  sup.probe();
  for (int i = 0; i < 3; ++i) tick(rt, sup);
  ASSERT_EQ(sup.link_state(0), LinkState::kDead);
  // Dead links carry no traffic (their flows were re-steered away), so a
  // refilling token bucket is the recovery signal.
  rt.links[0].tokens = 2000.0;  // past revive_tokens (one MTU)
  tick(rt, sup);                // good probe 1 of 2
  EXPECT_EQ(sup.link_state(0), LinkState::kDead);
  tick(rt, sup);  // 2 -> revived
  EXPECT_EQ(sup.link_state(0), LinkState::kHealthy);
  ASSERT_EQ(rt.down_calls.size(), 2u);
  EXPECT_EQ(rt.down_calls.back(), (std::pair<IfaceId, bool>{0, false}));
}

TEST(Supervisor, FlappingTokensDoNotRevive) {
  MockRuntime rt;
  rt.links.push_back({.name = "wifi", .backlog = 10'000});
  rt.heartbeats = {0};
  Supervisor sup(rt, fast_options());
  sup.probe();
  for (int i = 0; i < 3; ++i) tick(rt, sup);
  ASSERT_EQ(sup.link_state(0), LinkState::kDead);
  // One good probe, then the radio dies again: hysteresis holds the
  // verdict, so the control plane never sees the blip.
  rt.links[0].tokens = 2000.0;
  tick(rt, sup);
  rt.links[0].tokens = 0.0;
  for (int i = 0; i < 8; ++i) tick(rt, sup);
  EXPECT_EQ(sup.link_state(0), LinkState::kDead);
  EXPECT_EQ(rt.down_calls.size(), 1u) << "exactly the original kill";
}

TEST(Supervisor, DegradedLinkIsFlaggedButNeverKilled) {
  MockRuntime rt;
  // Configured 80 Mb/s; moves ~8 KB per 1 ms probe = 64 Mb/s... make it
  // crawl instead: 100 bytes per probe = 0.8 Mb/s = 1% of configured.
  rt.links.push_back({.name = "lte", .configured_bps = 80e6,
                      .backlog = 50'000});
  rt.heartbeats = {0};
  Supervisor sup(rt, fast_options());
  sup.probe();
  for (int i = 0; i < 10; ++i) {
    rt.links[0].sent_bytes += 100;
    tick(rt, sup);
    EXPECT_EQ(sup.link_state(0), LinkState::kSuspect)
        << "slow-but-alive: killing it would strictly reduce capacity";
  }
  EXPECT_TRUE(rt.down_calls.empty());
  // Full-rate drain clears the flag (10 KB per ms = 80 Mb/s).
  rt.links[0].sent_bytes += 10'000;
  tick(rt, sup);
  EXPECT_EQ(sup.link_state(0), LinkState::kHealthy);
}

TEST(Supervisor, UnpacedAndIdleLinksAreNeverJudged) {
  MockRuntime rt;
  rt.links.push_back({.name = "unpaced", .configured_bps = 0.0,
                      .backlog = 10'000});
  rt.links.push_back({.name = "idle", .configured_bps = 8e6, .backlog = 0});
  rt.heartbeats = {0};
  Supervisor sup(rt, fast_options());
  sup.probe();
  for (int i = 0; i < 10; ++i) tick(rt, sup);
  EXPECT_EQ(sup.link_state(0), LinkState::kHealthy)
      << "no configured rate means no 'should be moving' baseline";
  EXPECT_EQ(sup.link_state(1), LinkState::kHealthy)
      << "an idle link (no backlog) is not silent, just unused";
  EXPECT_TRUE(rt.down_calls.empty());
}

TEST(Supervisor, FrozenHeartbeatTriggersOneRestartPerThreshold) {
  MockRuntime rt;
  rt.links.push_back({.name = "if0"});
  rt.heartbeats = {0, 0};  // both frozen from the start
  rt.restart_result = true;
  SupervisorOptions options = fast_options();
  options.worker_stall_probes = 3;
  Supervisor sup(rt, options);
  for (int i = 0; i < 3; ++i) {
    rt.now += kMillisecond;
    sup.probe();
  }
  EXPECT_EQ(sup.restarts_attempted(), 2u) << "one per frozen worker";
  EXPECT_EQ(sup.restarts_succeeded(), 2u);
  EXPECT_EQ(rt.restart_calls.size(), 2u);
  // A live heartbeat resets the countdown: bump one worker, freeze probes.
  rt.heartbeats[0] = 8;
  for (int i = 0; i < 3; ++i) {
    rt.now += kMillisecond;
    sup.probe();
  }
  EXPECT_EQ(sup.restarts_attempted(), 3u)
      << "only the still-frozen worker earns a second attempt";
}

TEST(Supervisor, RefusedRestartsAreCountedNotRetriedBlindly) {
  MockRuntime rt;
  rt.links.push_back({.name = "if0"});
  rt.heartbeats = {0};
  rt.restart_result = false;  // "not at the safe point"
  SupervisorOptions options = fast_options();
  options.worker_stall_probes = 2;
  Supervisor sup(rt, options);
  for (int i = 0; i < 4; ++i) {
    rt.now += kMillisecond;
    sup.probe();
  }
  EXPECT_EQ(sup.restarts_attempted(), 2u);
  EXPECT_EQ(sup.restarts_refused(), 2u);
  EXPECT_EQ(sup.restarts_succeeded(), 0u);
  const auto log = sup.log();
  EXPECT_FALSE(log.empty());
}

// --- Supervisor: Theorem-2 replay on survivors ----------------------------

class StaticFairness : public telemetry::FairnessSource {
 public:
  telemetry::FairnessSample sample;
  telemetry::FairnessSample fairness_sample() override { return sample; }
};

TEST(Supervisor, ReplaysClusteringOnTheSurvivingInterfaceSet) {
  MockRuntime rt;
  rt.links.push_back({.name = "if0", .configured_bps = 10e6});
  rt.links.push_back({.name = "if1", .configured_bps = 5e6,
                      .backlog = 10'000});
  rt.heartbeats = {0};

  StaticFairness fairness;
  fairness.sample.capacities_bps = {10e6, 5e6};
  fairness.sample.iface_sent_bytes = {0, 0};
  telemetry::FairnessFlowSample both;
  both.id = 0;
  both.name = "both";
  both.willing = {true, true};
  telemetry::FairnessFlowSample pinned;
  pinned.id = 1;
  pinned.name = "pinned";
  pinned.willing = {false, true};
  fairness.sample.flows = {both, pinned};

  SupervisorOptions options = fast_options();
  options.replay_clustering = true;
  Supervisor sup(rt, options, &fairness);
  sup.probe();
  // Keep if0 visibly healthy while if1 goes silent.
  for (int i = 0; i < 3; ++i) {
    rt.links[0].sent_bytes += 10'000;
    tick(rt, sup);
  }
  ASSERT_EQ(sup.link_state(1), LinkState::kDead);
  // The kill triggered one replay: "pinned" has no surviving willing
  // interface (quarantined, excluded), "both" gets all of if0 -- a
  // consistent single-interface max-min instance.
  EXPECT_EQ(sup.clustering_checks(), 1u);
  EXPECT_EQ(sup.clustering_violations(), 0u);
  EXPECT_EQ(sup.last_clustering_verdict(), "");
  const auto log = sup.log();
  bool saw_consistent = false;
  for (const auto& entry : log) {
    if (entry.what.find("clustering consistent") != std::string::npos) {
      saw_consistent = true;
    }
  }
  EXPECT_TRUE(saw_consistent);
}

// --- AdaptiveController (probes driven by hand) ---------------------------

/// MockRuntime plus the overload-control seams the adaptive loop drives.
class AdaptMockRuntime : public MockRuntime {
 public:
  std::uint64_t shed = 0;
  std::vector<std::uint64_t> set_shed_calls;
  std::uint32_t shards = 1;
  std::vector<std::uint32_t> shard_of;  ///< per-iface; empty = all shard 0
  bool has_tracer = false;
  LatencySnapshot e2e;  ///< cumulative bucket counts

  std::size_t shard_count() const override { return shards; }
  std::uint32_t iface_shard(IfaceId iface) const override {
    return iface < shard_of.size() ? shard_of[iface] : 0;
  }
  bool sample_e2e_buckets(LatencySnapshot& out) const override {
    if (!has_tracer) return false;
    out = e2e;
    return true;
  }
  std::uint64_t shed_bytes() const override { return shed; }
  void set_shed_bytes(std::uint64_t bytes) override {
    shed = bytes;
    set_shed_calls.push_back(bytes);
  }
};

/// alpha = 1 makes the EWMA track the latest window exactly, so hysteresis
/// arithmetic in the tests stays integral.
AdaptOptions unit_options() {
  AdaptOptions options;
  options.ewma_alpha = 1.0;
  return options;
}

TEST(AdaptiveController, DroopEntersAndExitsThroughHysteresis) {
  AdaptMockRuntime rt;
  rt.links.push_back({.name = "lte", .configured_bps = 8e6,
                      .backlog = 10'000});
  AdaptiveController adapt(rt, unit_options());
  const std::vector<LinkState> healthy = {LinkState::kHealthy};

  // Two low windows: inside the entry streak, capacity still believed.
  adapt.on_probe(kMillisecond, 1e-3, {4e6}, healthy);
  adapt.on_probe(2 * kMillisecond, 1e-3, {4e6}, healthy);
  EXPECT_FALSE(adapt.drooped(0));
  EXPECT_DOUBLE_EQ(adapt.effective_capacity_bps(0, 8e6), 8e6);
  EXPECT_DOUBLE_EQ(adapt.drift_ratio(0), 0.5);

  // Third consecutive low window crosses droop_enter_probes.
  adapt.on_probe(3 * kMillisecond, 1e-3, {4e6}, healthy);
  EXPECT_TRUE(adapt.drooped(0));
  EXPECT_EQ(adapt.droop_enters(), 1u);
  EXPECT_DOUBLE_EQ(adapt.effective_capacity_bps(0, 8e6), 4e6)
      << "fairness should believe the measured capacity while drooped";

  // Recovery: two high windows hold the droop, the third clears it.
  adapt.on_probe(4 * kMillisecond, 1e-3, {8e6}, healthy);
  adapt.on_probe(5 * kMillisecond, 1e-3, {8e6}, healthy);
  EXPECT_TRUE(adapt.drooped(0));
  adapt.on_probe(6 * kMillisecond, 1e-3, {8e6}, healthy);
  EXPECT_FALSE(adapt.drooped(0));
  EXPECT_EQ(adapt.droop_exits(), 1u);
  EXPECT_DOUBLE_EQ(adapt.effective_capacity_bps(0, 8e6), 8e6);
}

TEST(AdaptiveController, IdleAndMidBandWindowsBreakTheEntryStreak) {
  AdaptMockRuntime rt;
  rt.links.push_back({.name = "lte", .configured_bps = 8e6,
                      .backlog = 10'000});
  AdaptiveController adapt(rt, unit_options());
  const std::vector<LinkState> healthy = {LinkState::kHealthy};
  adapt.on_probe(kMillisecond, 1e-3, {4e6}, healthy);
  adapt.on_probe(2 * kMillisecond, 1e-3, {4e6}, healthy);
  // An idle window (no backlog) is not capacity evidence: streak resets.
  rt.links[0].backlog = 0;
  adapt.on_probe(3 * kMillisecond, 1e-3, {0.0}, healthy);
  rt.links[0].backlog = 10'000;
  adapt.on_probe(4 * kMillisecond, 1e-3, {4e6}, healthy);
  adapt.on_probe(5 * kMillisecond, 1e-3, {4e6}, healthy);
  EXPECT_FALSE(adapt.drooped(0)) << "the idle window reset the countdown";
  // A window inside the hysteresis band (0.70..0.90) also resets it.
  adapt.on_probe(6 * kMillisecond, 1e-3, {6.4e6}, healthy);  // ratio 0.8
  adapt.on_probe(7 * kMillisecond, 1e-3, {4e6}, healthy);
  adapt.on_probe(8 * kMillisecond, 1e-3, {4e6}, healthy);
  EXPECT_FALSE(adapt.drooped(0));
  adapt.on_probe(9 * kMillisecond, 1e-3, {4e6}, healthy);
  EXPECT_TRUE(adapt.drooped(0));
}

TEST(AdaptiveController, DeadLinksAreTopologyNotDrift) {
  AdaptMockRuntime rt;
  rt.links.push_back({.name = "a", .configured_bps = 8e6, .backlog = 5'000});
  rt.links.push_back({.name = "b", .configured_bps = 8e6, .backlog = 5'000});
  FaultPlanRecorder rec;
  AdaptiveController adapt(rt, unit_options());
  adapt.set_recorder(&rec);
  const std::vector<LinkState> healthy = {LinkState::kHealthy,
                                          LinkState::kHealthy};
  for (int i = 1; i <= 3; ++i) {
    adapt.on_probe(i * kMillisecond, 1e-3, {4e6, 4e6}, healthy);
  }
  ASSERT_TRUE(adapt.drooped(0));
  ASSERT_TRUE(adapt.drooped(1));
  // Link 1 dies: its open droop closes into the recorder (episodes must
  // not overlap the recorded iface_down window on replay).
  adapt.on_probe(4 * kMillisecond, 1e-3, {4e6, 0.0},
                 {LinkState::kHealthy, LinkState::kDead});
  EXPECT_TRUE(adapt.drooped(0));
  EXPECT_FALSE(adapt.drooped(1));
  EXPECT_EQ(rec.event_count(), 1u);
  // finalize() closes the remaining episode at shutdown.
  adapt.finalize(10 * kMillisecond);
  EXPECT_FALSE(adapt.drooped(0));
  const FaultPlan plan = rec.plan();
  ASSERT_EQ(plan.events.size(), 2u);
  for (const auto& event : plan.events) {
    EXPECT_EQ(event.kind, FaultKind::kIfaceScale);
    EXPECT_DOUBLE_EQ(event.scale, 0.5)
        << "the episode records its lowest measured drift ratio";
  }
  const std::string canonical = plan.to_json();
  EXPECT_EQ(FaultPlan::parse_json(canonical).to_json(), canonical);
}

TEST(AdaptiveController, WatermarkFollowsLittlesLawOnTheSlowestShard) {
  AdaptMockRuntime rt;
  rt.links.push_back({.name = "a", .configured_bps = 8e6, .backlog = 1'000});
  rt.links.push_back({.name = "b", .configured_bps = 16e6, .backlog = 1'000});
  rt.shards = 2;
  rt.shard_of = {0, 1};
  AdaptOptions options = unit_options();
  options.target_p99_ns = 10 * kMillisecond;
  AdaptiveController adapt(rt, options);
  const std::vector<LinkState> healthy = {LinkState::kHealthy,
                                          LinkState::kHealthy};
  // No tracer wired: the correction stays at 1, so the watermark is the
  // pure Little's-law bound of the slowest shard: 8e6/8 * 10 ms = 10 kB.
  adapt.on_probe(kMillisecond, 1e-3, {8e6, 16e6}, healthy);
  EXPECT_EQ(rt.shed, 10'000u);
  EXPECT_EQ(adapt.current_shed_bytes(), 10'000u);
  EXPECT_DOUBLE_EQ(adapt.correction(), 1.0);
  EXPECT_FALSE(adapt.shed_active()) << "backlog sits below the watermark";

  // The slow shard droops to 4 Mb/s: the watermark halves with it.
  adapt.on_probe(2 * kMillisecond, 1e-3, {4e6, 16e6}, healthy);
  EXPECT_EQ(rt.shed, 5'000u);

  // A dead slow link leaves the fast shard as the binding one.
  adapt.on_probe(3 * kMillisecond, 1e-3, {0.0, 16e6},
                 {LinkState::kDead, LinkState::kHealthy});
  EXPECT_EQ(rt.shed, 20'000u);

  // Floor clamp: a millisecond-scale target cannot shed everything.
  adapt.set_target_p99_ns(kMillisecond / 1000);  // 1 us
  adapt.on_probe(4 * kMillisecond, 1e-3, {8e6, 16e6}, healthy);
  EXPECT_EQ(rt.shed, options.shed_floor_bytes);
  EXPECT_EQ(adapt.retunes(), 1u);

  // Target 0 disarms the shedding half without touching the watermark.
  adapt.set_target_p99_ns(0);
  const std::uint64_t before = rt.shed;
  adapt.on_probe(5 * kMillisecond, 1e-3, {8e6, 16e6}, healthy);
  EXPECT_EQ(rt.shed, before);
  EXPECT_FALSE(adapt.shed_active());
}

TEST(AdaptiveController, ShedEngageEdgesAreRecordedWithTheWatermark) {
  AdaptMockRuntime rt;
  rt.links.push_back({.name = "a", .configured_bps = 8e6,
                      .backlog = 50'000});
  FaultPlanRecorder rec;
  AdaptOptions options = unit_options();
  options.target_p99_ns = 10 * kMillisecond;
  AdaptiveController adapt(rt, options);
  adapt.set_recorder(&rec);
  const std::vector<LinkState> healthy = {LinkState::kHealthy};
  // Backlog 50 kB >= watermark 10 kB: shedding arms, one engage edge.
  adapt.on_probe(kMillisecond, 1e-3, {8e6}, healthy);
  EXPECT_TRUE(adapt.shed_active());
  EXPECT_EQ(adapt.shed_engages(), 1u);
  adapt.on_probe(2 * kMillisecond, 1e-3, {8e6}, healthy);
  EXPECT_EQ(adapt.shed_engages(), 1u) << "edge-triggered, not per probe";
  rt.links[0].backlog = 1'000;
  adapt.on_probe(3 * kMillisecond, 1e-3, {8e6}, healthy);
  EXPECT_FALSE(adapt.shed_active());
  EXPECT_EQ(rec.note_count(), 2u) << "engage and disengage annotations";
  const FaultPlan plan = rec.plan();
  ASSERT_EQ(plan.observed.size(), 2u);
  EXPECT_NE(plan.observed[0].note.find("shed engaged watermark_bytes=10000"),
            std::string::npos)
      << plan.observed[0].note;
}

TEST(AdaptiveController, WindowedP99DrivesTheMultiplicativeCorrection) {
  AdaptMockRuntime rt;
  rt.links.push_back({.name = "a", .configured_bps = 8e6, .backlog = 1'000});
  rt.has_tracer = true;
  AdaptOptions options = unit_options();
  options.target_p99_ns = 10 * kMillisecond;
  AdaptiveController adapt(rt, options);
  const std::vector<LinkState> healthy = {LinkState::kHealthy};

  // Window 1: 100 samples at ~1 ms, an order of magnitude under target.
  // The correction rises by exactly exp(gain * 1) (the log error clamps).
  rt.e2e.counts[LatencyHistogram::index_of(kMillisecond)] = 100;
  adapt.on_probe(kMillisecond, 1e-3, {8e6}, healthy);
  EXPECT_GT(adapt.windowed_p99_ns(), 0.0);
  EXPECT_LT(adapt.windowed_p99_ns(), 2.0 * kMillisecond);
  const double risen = adapt.correction();
  EXPECT_NEAR(risen, std::exp(options.gain), 1e-9);

  // Window 2: no new samples -- too thin to judge, correction held.
  adapt.on_probe(2 * kMillisecond, 1e-3, {8e6}, healthy);
  EXPECT_DOUBLE_EQ(adapt.correction(), risen);

  // Window 3: 100 fresh samples at ~100 ms, far above target: backs off.
  rt.e2e.counts[LatencyHistogram::index_of(100 * kMillisecond)] += 100;
  adapt.on_probe(3 * kMillisecond, 1e-3, {8e6}, healthy);
  EXPECT_LT(adapt.correction(), risen);
  EXPECT_GT(adapt.windowed_p99_ns(), 10.0 * kMillisecond);
}

// --- Supervisor feeds the controller + verdict sequence -------------------

TEST(Supervisor, MeasuredDrainFeedsDriftNotConfiguredCapacity) {
  // The probe window measures what the link actually moved.  A link
  // draining at half its configured rate must push the controller's drift
  // ratio toward 0.5 -- the estimate tracks the measured rate, never the
  // configured one (that is the entire point of re-lowering).
  AdaptMockRuntime rt;
  rt.links.push_back({.name = "lte", .configured_bps = 8e6,
                      .backlog = 50'000});
  rt.heartbeats = {0};
  Supervisor sup(rt, fast_options());
  AdaptOptions options = unit_options();
  AdaptiveController adapt(rt, options);
  sup.set_adaptive(&adapt);
  sup.probe();  // baseline window (zero-length: controller not fed)
  for (int i = 0; i < 4; ++i) {
    // 500 bytes per 1 ms probe window = 4 Mb/s against 8 Mb/s configured.
    rt.links[0].sent_bytes += 500;
    tick(rt, sup);
  }
  EXPECT_NEAR(adapt.drift_ratio(0), 0.5, 1e-9);
  EXPECT_TRUE(adapt.drooped(0)) << "three sub-0.70 windows entered a droop";
  EXPECT_EQ(adapt.updates(), 4u);
}

TEST(Supervisor, VerdictSequenceAndRecorderMirrorTerminalTransitions) {
  MockRuntime rt;
  rt.links.push_back({.name = "wifi", .backlog = 10'000});
  rt.heartbeats = {0};
  FaultPlanRecorder rec(5);
  SupervisorOptions options = fast_options();
  // The mock's heartbeat never moves; keep the worker watchdog out of the
  // recorded plan so only the link edges land in it.
  options.worker_stall_probes = 1000;
  Supervisor sup(rt, options);
  sup.set_recorder(&rec);
  sup.probe();
  for (int i = 0; i < 3; ++i) tick(rt, sup);
  ASSERT_EQ(sup.link_state(0), LinkState::kDead);
  EXPECT_EQ(sup.verdict_sequence(),
            (std::vector<std::string>{"wifi:dead"}));
  rt.links[0].tokens = 2000.0;
  tick(rt, sup);
  tick(rt, sup);  // healthy_after_probes = 2
  ASSERT_EQ(sup.link_state(0), LinkState::kHealthy);
  EXPECT_EQ(sup.verdict_sequence(),
            (std::vector<std::string>{"wifi:dead", "wifi:revived"}));
  // The recorder holds the same two edges as a replayable plan.
  const FaultPlan plan = rec.plan();
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kIfaceDown);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kIfaceUp);
  EXPECT_LT(plan.events[0].at_ns, plan.events[1].at_ns);
  EXPECT_EQ(plan.seed, 5u);
  const std::string canonical = plan.to_json();
  EXPECT_EQ(FaultPlan::parse_json(canonical).to_json(), canonical);
}

// --- Metrics registration (names only; scrape correctness lives in the
// telemetry suite) ---------------------------------------------------------

TEST(FaultTelemetry, InjectorAndSupervisorSeriesAppearInTheRegistry) {
  FaultInjector inj(FaultPlan::parse_json(R"({"events": [
      {"at_ms": 0, "kind": "ingress_drop", "probability": 1.0,
       "duration_ms": 10}]})"));
  inj.attach(1, 1);
  MockRuntime rt;
  rt.links.push_back({.name = "if0"});
  rt.heartbeats = {0};
  Supervisor sup(rt, fast_options());

  AdaptiveController adapt(rt, AdaptOptions{});

  telemetry::MetricsRegistry registry;
  inj.register_metrics(registry);
  sup.register_metrics(registry);
  adapt.register_metrics(registry);
  const std::string text = telemetry::render_prometheus(registry);
  for (const char* name :
       {"midrr_fault_ingress_total", "midrr_fault_pool_rejects_total",
        "midrr_fault_worker_stalls_total",
        "midrr_fault_iface_transitions_total",
        "midrr_supervisor_link_state",
        "midrr_supervisor_link_transitions_total",
        "midrr_supervisor_worker_restarts_total",
        "midrr_supervisor_clustering_checks_total",
        "midrr_supervisor_clustering_violations_total",
        "midrr_adapt_shed_bytes", "midrr_adapt_target_p99_ns",
        "midrr_adapt_windowed_p99_ns", "midrr_adapt_correction",
        "midrr_adapt_shedding_active", "midrr_adapt_updates_total",
        "midrr_adapt_retunes_total", "midrr_adapt_droop_events_total",
        "midrr_supervisor_capacity_drift_ratio"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace midrr
