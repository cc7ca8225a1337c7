// Unit tests for flow queues and traffic sources.
#include <gtest/gtest.h>

#include "flow/queue.hpp"
#include "flow/source.hpp"

namespace midrr {
namespace {

TEST(FlowQueue, FifoAndByteAccounting) {
  FlowQueue q;
  q.enqueue(Packet(0, 100, 0));
  q.enqueue(Packet(0, 200, 1));
  EXPECT_EQ(q.backlog_bytes(), 300u);
  EXPECT_EQ(q.backlog_packets(), 2u);
  EXPECT_EQ(q.head_size(), std::optional<std::uint32_t>(100));
  auto p = q.dequeue();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->seq, 0u);
  EXPECT_EQ(q.backlog_bytes(), 200u);
  q.dequeue();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_FALSE(q.head_size().has_value());
}

TEST(FlowQueue, CapacityTailDrop) {
  FlowQueue q(250);
  EXPECT_TRUE(q.enqueue(Packet(0, 100)));
  EXPECT_TRUE(q.enqueue(Packet(0, 100)));
  EXPECT_FALSE(q.enqueue(Packet(0, 100)));  // would exceed 250
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  EXPECT_EQ(q.stats().dropped_bytes, 100u);
  EXPECT_EQ(q.backlog_bytes(), 200u);
}

TEST(FlowQueue, StatsTrackService) {
  FlowQueue q;
  q.enqueue(Packet(0, 500));
  q.enqueue(Packet(0, 300));
  q.dequeue();
  EXPECT_EQ(q.stats().enqueued_packets, 2u);
  EXPECT_EQ(q.stats().enqueued_bytes, 800u);
  EXPECT_EQ(q.stats().dequeued_packets, 1u);
  EXPECT_EQ(q.stats().dequeued_bytes, 500u);
}

TEST(FlowQueue, RejectsZeroSizePacket) {
  FlowQueue q;
  EXPECT_THROW(q.enqueue(Packet(0, 0)), PreconditionError);
}

TEST(SizeDistribution, FixedUniformBimodal) {
  Rng rng(1);
  auto fixed = SizeDistribution::fixed(1500);
  EXPECT_EQ(fixed.sample(rng), 1500u);
  EXPECT_EQ(fixed.max_size(), 1500u);

  auto uni = SizeDistribution::uniform(100, 200);
  for (int i = 0; i < 100; ++i) {
    const auto s = uni.sample(rng);
    EXPECT_GE(s, 100u);
    EXPECT_LE(s, 200u);
  }

  auto bi = SizeDistribution::bimodal(40, 1500, 0.5);
  int small = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto s = bi.sample(rng);
    EXPECT_TRUE(s == 40u || s == 1500u);
    if (s == 40u) ++small;
  }
  EXPECT_NEAR(small, 500, 60);
}

TEST(BackloggedSource, KeepsDepthAndRefills) {
  Rng rng(1);
  BackloggedSource src(SizeDistribution::fixed(1000), 0, 4);
  const auto initial = src.on_start(rng);
  EXPECT_EQ(initial.size(), 4u);
  const auto refill = src.on_dequeue(1000, rng);
  ASSERT_TRUE(refill.has_value());
  EXPECT_EQ(*refill, 1000u);
  EXPECT_FALSE(src.exhausted());
}

TEST(BackloggedSource, VolumeBoundedEndsExactly) {
  Rng rng(1);
  BackloggedSource src(SizeDistribution::fixed(1000), 3500, 2);
  std::uint64_t total = 0;
  for (const auto s : src.on_start(rng)) total += s;
  while (!src.exhausted()) {
    const auto more = src.on_dequeue(1000, rng);
    if (!more) break;
    total += *more;
  }
  EXPECT_EQ(total, 3500u);  // final packet clipped to 500
  EXPECT_TRUE(src.exhausted());
  EXPECT_FALSE(src.on_dequeue(500, rng).has_value());
}

TEST(CbrSource, SpacingMatchesRate) {
  Rng rng(1);
  CbrSource src(1e6, 1000);  // 8 ms per 1000-byte packet
  const auto first = src.next_arrival(rng);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->gap, 0);
  const auto second = src.next_arrival(rng);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->gap, 8 * kMillisecond);
}

TEST(CbrSource, VolumeBounded) {
  Rng rng(1);
  CbrSource src(1e6, 1000, 2500);
  int n = 0;
  while (src.next_arrival(rng)) ++n;
  EXPECT_EQ(n, 3);  // 3000 >= 2500 after the third
  EXPECT_TRUE(src.exhausted());
}

TEST(PoissonSource, MeanRateApproximatelyCorrect) {
  Rng rng(5);
  PoissonSource src(1e6, SizeDistribution::fixed(1250));
  double total_gap_seconds = 0.0;
  std::uint64_t total_bytes = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto e = src.next_arrival(rng);
    ASSERT_TRUE(e.has_value());
    total_gap_seconds += to_seconds(e->gap);
    total_bytes += e->size_bytes;
  }
  const double rate = static_cast<double>(total_bytes) * 8.0 / total_gap_seconds;
  EXPECT_NEAR(rate / 1e6, 1.0, 0.05);
}

TEST(OnOffSource, ProducesBurstsAndSilences) {
  Rng rng(9);
  OnOffSource src(1e6, 1000, 0.1, 0.5);
  const SimDuration cbr_gap = 8 * kMillisecond;
  int long_gaps = 0;
  int arrivals = 2000;
  for (int i = 0; i < arrivals; ++i) {
    const auto e = src.next_arrival(rng);
    ASSERT_TRUE(e.has_value());
    if (e->gap > 2 * cbr_gap) ++long_gaps;
  }
  // Bursts average 100 ms = ~12 packets, so roughly arrivals/13 silences.
  EXPECT_GT(long_gaps, 20);
  EXPECT_LT(long_gaps, arrivals / 2);
}

}  // namespace
}  // namespace midrr
