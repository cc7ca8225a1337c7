// Scalability sweep: how the scheduler and the whole simulation scale with
// flow count, interface count and offered load -- the engineering numbers a
// downstream adopter wants before putting miDRR on a fast path.
//
// Reports, per configuration: simulated-seconds per wall-second, scheduling
// decisions per wall-second, and the mean decision cost.
#include <chrono>
#include <iostream>

#include "bench/common.hpp"
#include "core/scenario.hpp"
#include "util/indexed_name.hpp"
#include "util/rng.hpp"

namespace {

using namespace midrr;

struct SweepPoint {
  std::size_t flows;
  std::size_t ifaces;
};

void run_point(const SweepPoint& p, SimDuration burst_opportunity,
               midrr::bench::Table& table) {
  Rng rng(7);
  Scenario sc;
  std::vector<std::string> iface_names;
  for (std::size_t j = 0; j < p.ifaces; ++j) {
    iface_names.push_back(indexed_name("if", j));
    sc.interface(iface_names.back(), RateProfile(mbps(10)));
  }
  for (std::size_t i = 0; i < p.flows; ++i) {
    std::vector<std::string> willing;
    for (std::size_t j = 0; j < p.ifaces; ++j) {
      if (rng.coin(0.5)) willing.push_back(iface_names[j]);
    }
    if (willing.empty()) willing.push_back(iface_names[i % p.ifaces]);
    sc.backlogged_flow(indexed_name("f", i), 1.0, willing);
  }

  const SimTime sim_duration = 20 * kSecond;
  const auto t0 = std::chrono::steady_clock::now();
  ScenarioRunner runner(sc, Policy::kMiDrr,
                        RunnerOptions{.burst_opportunity = burst_opportunity});
  const auto result = runner.run(sim_duration);
  const auto t1 = std::chrono::steady_clock::now();

  std::uint64_t packets = 0;
  for (const auto& iface : result.ifaces) {
    packets += iface.bytes_sent / 1500;
  }
  const double wall_s =
      std::chrono::duration<double>(t1 - t0).count();
  const double sim_per_wall = to_seconds(sim_duration) / wall_s;
  const double decisions_per_s = static_cast<double>(packets) / wall_s;
  table.row_values(
      std::to_string(p.flows) + "x" + std::to_string(p.ifaces) +
          (burst_opportunity > 0 ? " burst" : ""),
      {sim_per_wall, decisions_per_s / 1e6,
       decisions_per_s > 0 ? 1e9 / decisions_per_s : 0.0});
}

}  // namespace

int main(int, char**) {
  std::cout << "Scalability sweep: miDRR end-to-end simulation throughput\n"
            << "(10 Mb/s per interface, 1500 B packets, random "
               "preferences)\n\n";
  midrr::bench::Table table(
      {"flows x if", "sim-s/wall-s", "Mdecisions/s", "ns/decision"});
  for (const SweepPoint p : {SweepPoint{4, 2}, SweepPoint{16, 2},
                             SweepPoint{16, 4}, SweepPoint{64, 4},
                             SweepPoint{64, 8}, SweepPoint{256, 8},
                             SweepPoint{1024, 8}, SweepPoint{256, 16},
                             SweepPoint{1024, 16}}) {
    run_point(p, /*burst_opportunity=*/0, table);
    // Same point with batched transmit opportunities (25 ms of link time
    // per simulator event; departures stay per-packet).
    run_point(p, /*burst_opportunity=*/25 * kMillisecond, table);
  }
  std::cout << "\nreading guide: this measures the WHOLE simulation loop\n"
               "(event queue, source refill, rate and delay recording --\n"
               "each O(1) per packet -- and the cache pressure of per-flow\n"
               "state), so ns/decision grows with scale here.  The\n"
               "isolated scheduling decision itself stays flat in flow\n"
               "count: see bench/micro_sched (BM_MiDrrDecisionVsFlows)\n"
               "and bench/fig9_overhead for the paper's Fig 9 claim\n"
               "measured directly on the scheduler.\n";
  return 0;
}
