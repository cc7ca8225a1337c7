// Randomized stress tests: throw arbitrary (but valid) operation sequences
// at every policy and check the invariants that must survive any workload:
//   * a dequeued packet's flow is always willing on that interface,
//   * per-flow FIFO order is preserved,
//   * bytes are conserved (enqueued == dequeued + backlog + dropped),
//   * has_eligible() is consistent with what dequeue() returns, and equals
//     its base definition (some willing flow has backlog) on every
//     interface slot, which the DRR family answers from ring occupancy,
//   * churn (flow/interface add/remove, willingness flips) never corrupts
//     the scheduler.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace midrr {
namespace {

struct StressParam {
  Policy policy;
  std::uint64_t seed;
};

class SchedulerStressTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(SchedulerStressTest, RandomOperationSequenceKeepsInvariants) {
  const Policy policy = static_cast<Policy>(std::get<0>(GetParam()));
  const std::uint64_t seed = std::get<1>(GetParam());
  Rng rng(seed);

  auto sched = make_scheduler(policy);

  std::vector<IfaceId> live_ifaces;
  std::vector<FlowId> live_flows;
  std::map<FlowId, std::uint64_t> next_seq;     // per-flow FIFO check
  std::map<FlowId, std::uint64_t> expect_seq;

  // Start with a couple of interfaces so flows can exist.
  for (int j = 0; j < 2; ++j) live_ifaces.push_back(sched->add_interface());

  const auto add_flow = [&] {
    std::vector<IfaceId> willing;
    for (const IfaceId j : live_ifaces) {
      if (rng.coin(0.6)) willing.push_back(j);
    }
    const FlowId f =
        sched->add_flow({.weight = rng.uniform(0.25, 4.0), .willing = willing});
    live_flows.push_back(f);
    next_seq[f] = 0;
    expect_seq[f] = 0;
  };
  for (int i = 0; i < 4; ++i) add_flow();

  const auto base_eligible = [&](IfaceId j) {
    const Preferences& prefs = sched->preferences();
    if (!prefs.iface_exists(j)) return false;
    for (const FlowId f : prefs.flows_willing(j)) {
      if (sched->backlog_packets(f) > 0) return true;
    }
    return false;
  };

  std::uint64_t ops = 0;
  for (int step = 0; step < 4000; ++step) {
    for (IfaceId j = 0; j < sched->preferences().iface_slots(); ++j) {
      ASSERT_EQ(sched->has_eligible(j), base_eligible(j))
          << "iface " << j << " before step " << step;
    }
    const auto op = rng.uniform_int(0, 99);
    ++ops;
    if (op < 40) {  // enqueue
      if (live_flows.empty()) continue;
      const FlowId f = live_flows[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_flows.size()) - 1))];
      const auto size =
          static_cast<std::uint32_t>(rng.uniform_int(40, 1500));
      Packet p(f, size, next_seq[f]++);
      sched->enqueue(std::move(p), step);
    } else if (op < 80) {  // dequeue
      if (live_ifaces.empty()) continue;
      const IfaceId j = live_ifaces[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_ifaces.size()) - 1))];
      const bool eligible = sched->has_eligible(j);
      const auto packet = sched->dequeue(j, step);
      EXPECT_EQ(packet.has_value(), eligible)
          << "has_eligible disagreed with dequeue";
      if (packet) {
        EXPECT_TRUE(sched->preferences().willing(packet->flow, j))
            << "preference violation on " << to_string(policy);
        EXPECT_EQ(packet->seq, expect_seq[packet->flow]++)
            << "FIFO violation within flow";
      }
    } else if (op < 86) {  // add flow
      if (live_flows.size() < 24) add_flow();
    } else if (op < 90) {  // remove flow
      if (live_flows.size() <= 1) continue;
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_flows.size()) - 1));
      sched->remove_flow(live_flows[idx]);
      next_seq.erase(live_flows[idx]);
      expect_seq.erase(live_flows[idx]);
      live_flows.erase(live_flows.begin() +
                       static_cast<std::ptrdiff_t>(idx));
    } else if (op < 93) {  // add interface
      if (live_ifaces.size() < 8) {
        live_ifaces.push_back(sched->add_interface());
      }
    } else if (op < 95) {  // remove interface
      if (live_ifaces.size() <= 1) continue;
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_ifaces.size()) - 1));
      sched->remove_interface(live_ifaces[idx]);
      live_ifaces.erase(live_ifaces.begin() +
                        static_cast<std::ptrdiff_t>(idx));
    } else if (op < 98) {  // flip willingness
      if (live_flows.empty() || live_ifaces.empty()) continue;
      const FlowId f = live_flows[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_flows.size()) - 1))];
      const IfaceId j = live_ifaces[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_ifaces.size()) - 1))];
      sched->set_willing(f, j, rng.coin(0.5));
    } else {  // reweight
      if (live_flows.empty()) continue;
      const FlowId f = live_flows[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_flows.size()) - 1))];
      sched->set_weight(f, rng.uniform(0.25, 4.0));
    }
  }
  EXPECT_GT(ops, 0u);

  // Byte conservation per surviving flow.
  for (const FlowId f : live_flows) {
    const auto& stats = sched->queue_stats(f);
    EXPECT_EQ(stats.enqueued_bytes,
              stats.dequeued_bytes + sched->backlog_bytes(f) +
                  stats.dropped_bytes)
        << "byte conservation broken for flow " << f;
  }

  // Drain everything still eligible; every drain must terminate.
  for (const IfaceId j : live_ifaces) {
    int guard = 0;
    while (sched->dequeue(j, 1 << 20)) {
      ASSERT_LT(++guard, 200'000) << "drain did not terminate";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SchedulerStressTest,
    ::testing::Combine(
        ::testing::Values(static_cast<int>(Policy::kMiDrr),
                          static_cast<int>(Policy::kNaiveDrr),
                          static_cast<int>(Policy::kPerIfaceWfq),
                          static_cast<int>(Policy::kRoundRobin),
                          static_cast<int>(Policy::kFifo),
                          static_cast<int>(Policy::kStrictPriority)),
        ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>&
           instance) {
      std::string name =
          to_string(static_cast<Policy>(std::get<0>(instance.param)));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(instance.param));
    });

}  // namespace
}  // namespace midrr
