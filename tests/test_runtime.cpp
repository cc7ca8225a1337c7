// Real-time runtime: pacer and latency-histogram units, lifecycle edges,
// and the end-to-end fairness smoke -- a static 4-flow x 2-interface
// scenario drained by real worker threads must land each flow's rate
// within 10% of the weighted max-min reference from fairness/maxmin.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "fairness/maxmin.hpp"
#include "runtime/load_generator.hpp"
#include "runtime/pacer.hpp"
#include "runtime/runtime.hpp"
#include "util/assert.hpp"
#include "util/latency_histogram.hpp"

namespace midrr::rt {
namespace {

// --- TokenBucketPacer -----------------------------------------------------

TEST(Pacer, UnlimitedAlwaysGrantsDepth) {
  TokenBucketPacer pacer(4096);
  EXPECT_TRUE(pacer.unlimited());
  EXPECT_EQ(pacer.budget_bytes(0), 4096u);
  pacer.consume(1 << 20);  // overshoot is forgiven instantly
  EXPECT_EQ(pacer.budget_bytes(1), 4096u);
}

TEST(Pacer, RefillsByIntegratingTheProfile) {
  // 8 Mb/s = 1 byte per microsecond; depth 2000 bytes.
  TokenBucketPacer pacer(RateProfile(8e6), 2000);
  EXPECT_EQ(pacer.budget_bytes(0), 0u);
  EXPECT_EQ(pacer.budget_bytes(1000 * kMicrosecond), 1000u);
  pacer.consume(1000);
  EXPECT_EQ(pacer.budget_bytes(1000 * kMicrosecond), 0u);
  // Idle accrual caps at the depth.
  EXPECT_EQ(pacer.budget_bytes(kSecond), 2000u);
}

TEST(Pacer, OvershootIsPaidBackBeforeNewBudget) {
  TokenBucketPacer pacer(RateProfile(8e6), 10000);
  EXPECT_EQ(pacer.budget_bytes(1000 * kMicrosecond), 1000u);
  pacer.consume(1500);  // 500-byte overshoot (last packet didn't fit)
  EXPECT_EQ(pacer.budget_bytes(1000 * kMicrosecond), 0u);
  EXPECT_EQ(pacer.budget_bytes(1400 * kMicrosecond), 0u) << "still in debt";
  EXPECT_EQ(pacer.budget_bytes(1600 * kMicrosecond), 100u);
}

TEST(Pacer, DownLinkGrantsNothingUntilTheProfileRecovers) {
  TokenBucketPacer pacer(
      RateProfile::steps({{0, 0.0}, {kSecond, 8e6}}), 10000);
  EXPECT_EQ(pacer.budget_bytes(kSecond / 2), 0u);
  EXPECT_GT(pacer.ns_until_bytes(1, kSecond / 2), 0);
  EXPECT_EQ(pacer.budget_bytes(kSecond + 1000 * kMicrosecond), 1000u);
}

// --- Pacer clock anomalies ------------------------------------------------
// The runtime clock is steady, but restarted workers and suspended VMs can
// hand the pacer timestamps that jump either way.  The contract: a backward
// step re-anchors without minting credit, and a forward jump is clamped so
// at most one second of catch-up budget materializes.

TEST(Pacer, BackwardClockReanchorsWithoutCredit) {
  TokenBucketPacer pacer(RateProfile(8e6), 2000);  // 1 byte per microsecond
  EXPECT_EQ(pacer.budget_bytes(1000 * kMicrosecond), 1000u);
  pacer.consume(1000);
  // Time "rewinds" 500us: no budget appears, and no debt is invented.
  EXPECT_EQ(pacer.budget_bytes(500 * kMicrosecond), 0u);
  // The rewound instant is the new anchor: elapsed time is priced from
  // there, so the 500us that already paid out does not pay out again.
  EXPECT_EQ(pacer.budget_bytes(1500 * kMicrosecond), 1000u);
}

TEST(Pacer, HugeForwardJumpIsClampedToOneSecondOfCatchup) {
  // Depth deliberately larger than an hour of accrual would be, so the
  // clamp (not the bucket cap) is what bounds the grant.
  TokenBucketPacer pacer(RateProfile(8e6), 10'000'000);
  const SimTime hour = 3600 * kSecond;
  EXPECT_EQ(pacer.budget_bytes(hour), 1'000'000u)
      << "exactly one second of 8 Mb/s, not an hour of it";
}

TEST(Pacer, RateScalePricesElapsedTimeAtTheOldScale) {
  TokenBucketPacer pacer(RateProfile(8e6), 10000);
  // [0, 1000us) accrues at full rate even though the scale change is only
  // applied at t = 1000us; [1000us, 2000us) accrues at half rate.
  pacer.set_rate_scale(0.5, 1000 * kMicrosecond);
  EXPECT_EQ(pacer.budget_bytes(2000 * kMicrosecond), 1500u);
  EXPECT_DOUBLE_EQ(pacer.rate_scale(), 0.5);
  EXPECT_THROW(pacer.set_rate_scale(1.5, 0), PreconditionError);
  EXPECT_THROW(pacer.set_rate_scale(-0.1, 0), PreconditionError);
}

// --- LatencyHistogram -----------------------------------------------------

TEST(LatencyHistogram, QuantilesWithinLogBucketError) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(h.mean_ns(), 5000.5, 1.0);
  // Bucket width is <= 12.5% of the value (64 octaves x 8 sub-buckets).
  EXPECT_NEAR(h.quantile(0.5), 5000, 5000 * 0.125 + 1);
  EXPECT_NEAR(h.quantile(0.99), 9900, 9900 * 0.125 + 1);
  EXPECT_NEAR(h.quantile(0.0), 1, 1);
  EXPECT_NEAR(h.quantile(1.0), 10000, 10000 * 0.125 + 1);
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  h.record(0);
  h.record(3);
  h.record(7);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 3.0);
  EXPECT_EQ(h.quantile(1.0), 7.0);
}

TEST(LatencyHistogram, MergeAccumulates) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 100; ++i) a.record(100);
  for (int i = 0; i < 100; ++i) b.record(10000);
  LatencySnapshot merged;
  merged.add(a);
  merged.add(b);
  EXPECT_EQ(merged.count(), 200u);
  EXPECT_LT(merged.quantile(0.25), 120);
  EXPECT_GT(merged.quantile(0.75), 9000);
}

// --- Runtime lifecycle edges ---------------------------------------------

TEST(Runtime, RejectsBadConfigurations) {
  RuntimeOptions bad;
  bad.workers = 0;
  EXPECT_THROW(Runtime{bad}, PreconditionError);
  bad = {};
  bad.policy = Policy::kOracle;
  EXPECT_THROW(Runtime{bad}, PreconditionError);
  RuntimeOptions ok;
  Runtime runtime(ok);
  EXPECT_THROW(runtime.start(), PreconditionError) << "no interfaces";
  EXPECT_THROW(runtime.port(0), PreconditionError) << "not started";
}

TEST(Runtime, TopologyFreezesAtControlPlaneCreation) {
  Runtime runtime(RuntimeOptions{});
  runtime.add_interface("if0");
  runtime.control();
  EXPECT_THROW(runtime.add_interface("late"), PreconditionError);
}

TEST(Runtime, StartStopIsCleanAndIdempotent) {
  RuntimeOptions options;
  options.workers = 2;
  options.shards = 2;
  Runtime runtime(options);
  runtime.add_interface("if0");
  runtime.add_interface("if1");
  runtime.start();
  EXPECT_TRUE(runtime.running());
  runtime.stop();
  EXPECT_FALSE(runtime.running());
  runtime.stop();  // second stop is a no-op
  EXPECT_THROW(runtime.start(), PreconditionError) << "no restart support";
}

TEST(Runtime, PacketsFlowEndToEnd) {
  RuntimeOptions options;
  options.workers = 2;
  Runtime runtime(options);
  runtime.add_interface("if0");
  runtime.add_interface("if1");
  RtFlowSpec spec;
  spec.willing = {0, 1};
  spec.queue_capacity_bytes = 0;  // unbounded: the offers burst in faster
                                  // than one time-sliced core can drain
  const FlowId f = runtime.control().add_flow(spec);
  runtime.start();
  IngressPort port = runtime.port(0);
  std::uint64_t accepted = 0;
  for (int i = 0; i < 1000; ++i) {
    if (port.offer(f, 1000)) ++accepted;
  }
  // Unpaced interfaces: everything offered must drain promptly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (runtime.stats().dequeued < accepted &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  runtime.stop();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.dequeued, accepted);
  EXPECT_EQ(stats.dequeued_bytes, accepted * 1000u);
  EXPECT_EQ(runtime.sent_bytes(f), accepted * 1000u);
  EXPECT_EQ(stats.latency_count, accepted);
  EXPECT_GT(stats.latency_p50_ns, 0.0);
  EXPECT_LE(stats.latency_p50_ns, stats.latency_p99_ns);
  EXPECT_EQ(stats.fanin_drops, 0u);
  EXPECT_EQ(stats.tail_drops, 0u);
}

TEST(Runtime, OfferToUnknownFlowIsRejectedNotFatal) {
  Runtime runtime(RuntimeOptions{});
  runtime.add_interface("if0");
  runtime.start();
  IngressPort port = runtime.port(0);
  EXPECT_FALSE(port.offer(7, 1000));
  EXPECT_EQ(port.rejected(), 1u);
  runtime.stop();
}

TEST(Runtime, RemoveFlowDropsStragglersAtFanIn) {
  // Packets sitting in an ingress ring when their flow is removed must be
  // dropped by the fan-in stage (counted), never enqueued or crashed on.
  Runtime runtime(RuntimeOptions{});
  runtime.add_interface("if0", RateProfile(8e6));  // slow: packets pile up
  RtFlowSpec spec;
  spec.willing = {0};
  const FlowId f = runtime.control().add_flow(spec);
  runtime.start();
  {
    // Scoped: ~IngressPort flushes the port's batched offered/reject
    // counters into the runtime totals before we read stats() below.
    IngressPort port = runtime.port(0);
    for (int i = 0; i < 200; ++i) port.offer(f, 1000);
  }
  runtime.control().remove_flow(f);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  runtime.stop();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.enqueued + stats.fanin_drops, stats.offered);
}

// --- End-to-end fairness against the max-min reference -------------------

TEST(RuntimeFairness, StaticScenarioWithinTenPercentOfMaxMin) {
  // 4 flows x 2 paced interfaces; the classic two-cluster instance:
  //   a: {if0}, b: {if0}, c: {if0, if1}, d: {if1}
  //   caps: if0 = 30 Mb/s, if1 = 3 Mb/s
  // Weighted max-min (all weights 1): c shifts entirely onto if0, so
  // a = b = c = 10 Mb/s and d = 3 Mb/s -- a naive per-interface split
  // would starve d or under-serve c, so this discriminates the policy.
  const double cap0 = mbps(30);
  const double cap1 = mbps(3);

  fair::MaxMinInput input;
  input.capacities_bps = {cap0, cap1};
  input.weights = {1.0, 1.0, 1.0, 1.0};
  input.willing = {{true, false}, {true, false}, {true, true}, {false, true}};
  const auto reference = fair::solve_max_min(input);

  RuntimeOptions options;
  options.workers = 2;
  options.shards = 1;  // exact paper semantics (coupled interfaces)
  Runtime runtime(options);
  runtime.add_interface("if0", RateProfile(cap0));
  runtime.add_interface("if1", RateProfile(cap1));
  std::vector<FlowId> flows;
  flows.push_back(runtime.control().add_flow({.willing = {0}, .name = "a"}));
  flows.push_back(runtime.control().add_flow({.willing = {0}, .name = "b"}));
  flows.push_back(
      runtime.control().add_flow({.willing = {0, 1}, .name = "c"}));
  flows.push_back(runtime.control().add_flow({.willing = {1}, .name = "d"}));

  runtime.start();
  LoadGeneratorOptions load;
  load.packet_bytes = 1000;
  LoadGenerator generator(runtime, load);
  generator.start();

  // Warm up until queues are backlogged and the DRR rotation is steady,
  // then measure over a fixed window.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  std::vector<std::uint64_t> before;
  for (const FlowId f : flows) before.push_back(runtime.sent_bytes(f));
  const SimTime t0 = runtime.now_ns();
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  const SimTime t1 = runtime.now_ns();
  std::vector<double> measured_bps;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const std::uint64_t delta = runtime.sent_bytes(flows[i]) - before[i];
    measured_bps.push_back(rate_bps(delta, t1 - t0));
  }
  generator.stop();
  runtime.stop();

  for (std::size_t i = 0; i < flows.size(); ++i) {
    const double want = reference.rates_bps[i];
    EXPECT_NEAR(measured_bps[i], want, want * 0.10)
        << "flow " << i << " measured " << to_mbps(measured_bps[i])
        << " Mb/s, reference " << to_mbps(want) << " Mb/s";
  }
}

// --- Concurrency smoke (the TSan target) ----------------------------------

TEST(RuntimeStress, ChurnUnderLoadStaysConsistent) {
  // Multi-worker, multi-shard, multi-producer run with continuous
  // control-plane churn.  The assertions are bookkeeping identities; under
  // TSan this test is the race detector's main course.
  RuntimeOptions options;
  options.workers = 4;
  options.shards = 2;
  options.producers = 2;
  options.max_flows = 256;
  Runtime runtime(options);
  for (int j = 0; j < 4; ++j) {
    runtime.add_interface("if" + std::to_string(j));
  }
  std::vector<FlowId> base;
  for (int i = 0; i < 8; ++i) {
    RtFlowSpec spec;
    spec.willing = {static_cast<IfaceId>(i % 4),
                    static_cast<IfaceId>((i + 1) % 4)};
    base.push_back(runtime.control().add_flow(spec));
  }
  runtime.start();

  LoadGeneratorOptions load;
  load.producers = 2;
  load.packet_bytes = 500;
  LoadGenerator generator(runtime, load);
  generator.start();

  auto& control = runtime.control();
  std::vector<FlowId> churned;
  for (int i = 0; i < 60; ++i) {
    RtFlowSpec spec;
    spec.willing = {static_cast<IfaceId>(i % 4)};
    const FlowId f = control.add_flow(spec);
    control.set_weight(f, 1.0 + (i % 3));
    control.set_willing(f, static_cast<IfaceId>((i + 2) % 4), true);
    control.set_willing(f, static_cast<IfaceId>(i % 4), false);
    churned.push_back(f);
    if (churned.size() > 6) {
      control.remove_flow(churned.front());
      churned.erase(churned.begin());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  generator.stop();
  runtime.stop();
  const RuntimeStats stats = runtime.stats();
  EXPECT_GT(stats.dequeued, 0u);
  EXPECT_LE(stats.dequeued, stats.enqueued);
  EXPECT_EQ(stats.offered, generator.offered());
  EXPECT_LE(stats.enqueued + stats.fanin_drops + stats.tail_drops,
            stats.offered);
  EXPECT_EQ(stats.latency_count, stats.dequeued);
  std::uint64_t iface_total = 0;
  for (IfaceId j = 0; j < runtime.iface_count(); ++j) {
    iface_total += runtime.iface_sent_packets(j);
  }
  EXPECT_EQ(iface_total, stats.dequeued);
}

TEST(RuntimeStress, PooledPayloadChurnRecyclesEveryBuffer) {
  // The zero-allocation data path under churn: producers draw frames from
  // per-producer pools, workers drop the last reference on their own
  // threads (cross-thread recycling through the MPSC return ring), and
  // flows come and go so frames are also dropped at fan-in and on
  // shutdown.  After teardown the pools must balance to the buffer:
  // acquired == released, nothing outstanding.  Under TSan this covers
  // the pool's full concurrent surface.
  RuntimeOptions options;
  options.workers = 2;
  options.shards = 2;
  options.producers = 2;
  options.max_flows = 128;
  Runtime runtime(options);
  for (int j = 0; j < 4; ++j) {
    runtime.add_interface("if" + std::to_string(j));
  }
  std::vector<FlowId> base;
  for (int i = 0; i < 8; ++i) {
    RtFlowSpec spec;
    spec.willing = {static_cast<IfaceId>(i % 4),
                    static_cast<IfaceId>((i + 1) % 4)};
    base.push_back(runtime.control().add_flow(spec));
  }
  runtime.start();

  LoadGeneratorOptions load;
  load.producers = 2;
  load.packet_bytes = 500;
  load.payload = LoadGeneratorOptions::PayloadMode::kPooled;
  load.pool.buffer_bytes = 512;
  load.pool.slab_slots = 256;
  LoadGenerator generator(runtime, load);
  generator.start();

  auto& control = runtime.control();
  std::vector<FlowId> churned;
  for (int i = 0; i < 40; ++i) {
    RtFlowSpec spec;
    spec.willing = {static_cast<IfaceId>(i % 4)};
    churned.push_back(control.add_flow(spec));
    if (churned.size() > 4) {
      control.remove_flow(churned.front());
      churned.erase(churned.begin());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  generator.stop();
  // Unpaced interfaces: wait for the backlog to drain so every queued
  // frame has dropped its slot before we audit the books (frames still
  // queued at stop() would otherwise hold slots until ~Runtime, after the
  // generator -- and its stats -- are gone).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const RuntimeStats s = runtime.stats();
    // Dequeue is not terminal any more: the egress split (dequeued ==
    // sent + io_drops, i.e. no packets parked in a requeue stash) is part
    // of quiescence.  Under the default sim backend sent == dequeued.
    if (s.offered == s.enqueued + s.fanin_drops &&
        s.enqueued == s.dequeued + s.tail_drops &&
        s.dequeued == s.sent + s.io_drops &&
        generator.pool_stats().outstanding == 0) {
      break;
    }
    std::this_thread::yield();
  }
  runtime.stop();
  const PacketPoolStats pool = generator.pool_stats();
  EXPECT_GT(pool.acquired, 0u);
  EXPECT_EQ(pool.acquired, pool.released);
  EXPECT_EQ(pool.outstanding, 0u);
  const RuntimeStats stats = runtime.stats();
  EXPECT_GT(stats.dequeued, 0u);
  EXPECT_EQ(stats.offered, generator.offered());
}

}  // namespace
}  // namespace midrr::rt
