// Unit tests for the discrete-event simulator, rate profiles and link
// transmitters.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/link.hpp"
#include "sim/rate_profile.hpp"
#include "sim/simulator.hpp"

namespace midrr {
namespace {

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule_in(5, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 45);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), PreconditionError);
  EXPECT_THROW(sim.schedule_in(-1, [] {}), PreconditionError);
}

TEST(RateProfile, ConstantRate) {
  RateProfile p(mbps(5));
  EXPECT_DOUBLE_EQ(p.rate_at(0), 5e6);
  EXPECT_DOUBLE_EQ(p.rate_at(100 * kSecond), 5e6);
  EXPECT_EQ(p.next_change_after(0), kSimTimeMax);
}

TEST(RateProfile, Steps) {
  auto p = RateProfile::steps({{0, 1e6}, {10 * kSecond, 2e6},
                               {20 * kSecond, 0.0}});
  EXPECT_DOUBLE_EQ(p.rate_at(0), 1e6);
  EXPECT_DOUBLE_EQ(p.rate_at(10 * kSecond - 1), 1e6);
  EXPECT_DOUBLE_EQ(p.rate_at(10 * kSecond), 2e6);
  EXPECT_DOUBLE_EQ(p.rate_at(25 * kSecond), 0.0);
  EXPECT_EQ(p.next_change_after(0), 10 * kSecond);
  EXPECT_EQ(p.next_change_after(10 * kSecond), 20 * kSecond);
  EXPECT_EQ(p.next_change_after(20 * kSecond), kSimTimeMax);
  EXPECT_DOUBLE_EQ(p.peak_rate(), 2e6);
}

TEST(RateProfile, ValidationErrors) {
  EXPECT_THROW(RateProfile::steps({}), PreconditionError);
  EXPECT_THROW(RateProfile::steps({{5, 1e6}}), PreconditionError);
  EXPECT_THROW(RateProfile::steps({{0, 1e6}, {0, 2e6}}), PreconditionError);
  EXPECT_THROW(RateProfile(-1.0), PreconditionError);
}

TEST(LinkTransmitter, TransmitsAtLineRate) {
  Simulator sim;
  int remaining = 10;
  std::vector<SimTime> departures;
  LinkTransmitter link(
      sim, 0, RateProfile(1e6),
      [&](IfaceId, SimTime) -> std::optional<Packet> {
        if (remaining == 0) return std::nullopt;
        --remaining;
        return Packet(0, 1000);
      },
      [&](IfaceId, const Packet&, SimTime at) { departures.push_back(at); });
  link.notify_backlog();
  sim.run();
  // 1000 B at 1 Mb/s = 8 ms per packet; 10 packets back to back.
  ASSERT_EQ(departures.size(), 10u);
  EXPECT_EQ(departures.front(), 8 * kMillisecond);
  EXPECT_EQ(departures.back(), 80 * kMillisecond);
  EXPECT_EQ(link.bytes_sent(), 10'000u);
  EXPECT_EQ(link.busy_time(), 80 * kMillisecond);
}

TEST(LinkTransmitter, DownLinkWaitsForProfileChange) {
  Simulator sim;
  int remaining = 1;
  std::vector<SimTime> departures;
  auto profile = RateProfile::steps({{0, 0.0}, {kSecond, 1e6}});
  LinkTransmitter link(
      sim, 0, profile,
      [&](IfaceId, SimTime) -> std::optional<Packet> {
        if (remaining == 0) return std::nullopt;
        --remaining;
        return Packet(0, 1000);
      },
      [&](IfaceId, const Packet&, SimTime at) { departures.push_back(at); });
  link.notify_backlog();
  sim.run();
  ASSERT_EQ(departures.size(), 1u);
  EXPECT_EQ(departures.front(), kSecond + 8 * kMillisecond);
}

TEST(LinkTransmitter, DisabledLinkSendsNothing) {
  Simulator sim;
  bool asked = false;
  LinkTransmitter link(
      sim, 0, RateProfile(1e6),
      [&](IfaceId, SimTime) -> std::optional<Packet> {
        asked = true;
        return std::nullopt;
      },
      nullptr);
  link.set_enabled(false);
  link.notify_backlog();
  sim.run();
  EXPECT_FALSE(asked);
  EXPECT_EQ(link.packets_sent(), 0u);
}

TEST(LinkTransmitter, ReenableResumesService) {
  Simulator sim;
  int remaining = 2;
  LinkTransmitter link(
      sim, 0, RateProfile(1e6),
      [&](IfaceId, SimTime) -> std::optional<Packet> {
        if (remaining == 0) return std::nullopt;
        --remaining;
        return Packet(0, 1000);
      },
      nullptr);
  link.set_enabled(false);
  link.notify_backlog();
  sim.run();
  EXPECT_EQ(link.packets_sent(), 0u);
  link.set_enabled(true);  // kicks the transmitter
  sim.run();
  EXPECT_EQ(link.packets_sent(), 2u);
}

TEST(LinkTransmitter, ProviderPulledLazily) {
  // The provider must only be asked when the link can actually send,
  // and exactly once per transmission slot.
  Simulator sim;
  int pulls = 0;
  int remaining = 3;
  LinkTransmitter link(
      sim, 0, RateProfile(1e6),
      [&](IfaceId, SimTime) -> std::optional<Packet> {
        ++pulls;
        if (remaining == 0) return std::nullopt;
        --remaining;
        return Packet(0, 1000);
      },
      nullptr);
  link.notify_backlog();
  // Repeated notifications while busy must not trigger extra pulls.
  link.notify_backlog();
  link.notify_backlog();
  sim.run();
  EXPECT_EQ(pulls, 4);  // 3 packets + 1 final empty pull
}

TEST(LinkTransmitter, DepartureCallbackMayRestartTheLink) {
  // A departure callback may start the link's next transmission itself;
  // the packet it was handed must outlive that restart.
  Simulator sim;
  std::uint64_t next_seq = 0;
  std::vector<std::pair<FlowId, std::uint64_t>> departed;
  LinkTransmitter* self = nullptr;
  LinkTransmitter link(
      sim, 0, RateProfile(1e6),
      [&](IfaceId, SimTime) -> std::optional<Packet> {
        if (next_seq == 3) return std::nullopt;
        const std::uint64_t seq = next_seq++;
        return Packet(static_cast<FlowId>(10 + seq), 1000, seq);
      },
      [&](IfaceId, const Packet& packet, SimTime) {
        self->notify_backlog();
        EXPECT_EQ(self->busy(), packet.seq < 2);  // the restart took
        departed.emplace_back(packet.flow, packet.seq);
      });
  self = &link;
  link.notify_backlog();
  sim.run();
  EXPECT_EQ(departed, (std::vector<std::pair<FlowId, std::uint64_t>>{
                          {10, 0}, {11, 1}, {12, 2}}));
}


TEST(RateProfile, GilbertElliottChannel) {
  const auto p = RateProfile::gilbert_elliott(
      mbps(10), mbps(1), 2 * kSecond, 500 * kMillisecond, 60 * kSecond, 7);
  // Starts in the GOOD state, alternates, and only ever takes the two
  // configured rates.
  EXPECT_DOUBLE_EQ(p.rate_at(0), 10e6);
  int good_samples = 0;
  int bad_samples = 0;
  for (SimTime t = 0; t < 60 * kSecond; t += 100 * kMillisecond) {
    const double r = p.rate_at(t);
    EXPECT_TRUE(r == 10e6 || r == 1e6);
    (r == 10e6 ? good_samples : bad_samples)++;
  }
  // Mean sojourns 2 s vs 0.5 s -> roughly 80/20 time split.
  EXPECT_GT(good_samples, 2 * bad_samples);
  EXPECT_GT(bad_samples, 20);
  // Deterministic per seed.
  const auto q = RateProfile::gilbert_elliott(
      mbps(10), mbps(1), 2 * kSecond, 500 * kMillisecond, 60 * kSecond, 7);
  EXPECT_EQ(p.points().size(), q.points().size());
  const auto r2 = RateProfile::gilbert_elliott(
      mbps(10), mbps(1), 2 * kSecond, 500 * kMillisecond, 60 * kSecond, 8);
  EXPECT_NE(p.points().size(), r2.points().size());
}

TEST(RateProfile, GilbertElliottDrivesScheduler) {
  // End to end: a flow on a fading link tracks the channel.
  const auto channel = RateProfile::gilbert_elliott(
      mbps(8), 0.0, kSecond, 300 * kMillisecond, 30 * kSecond, 3);
  Simulator sim;
  int remaining = 100000;
  std::uint64_t sent = 0;
  LinkTransmitter link(
      sim, 0, channel,
      [&](IfaceId, SimTime) -> std::optional<Packet> {
        if (remaining == 0) return std::nullopt;
        --remaining;
        return Packet(0, 1500);
      },
      [&](IfaceId, const Packet& p, SimTime) { sent += p.size_bytes; });
  link.notify_backlog();
  sim.run_until(30 * kSecond);
  const double mean_rate = static_cast<double>(sent) * 8.0 / 30.0 / 1e6;
  // GOOD ~77% of the time at 8 Mb/s, outage otherwise: ~6.2 Mb/s expected.
  EXPECT_GT(mean_rate, 4.0);
  EXPECT_LT(mean_rate, 8.0);
}

}  // namespace
}  // namespace midrr
