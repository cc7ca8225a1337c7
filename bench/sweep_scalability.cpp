// Scalability sweep: how the scheduler and the whole simulation scale with
// flow count, interface count and offered load -- the engineering numbers a
// downstream adopter wants before putting miDRR on a fast path.
//
// Reports, per configuration: simulated-seconds per wall-second, scheduling
// decisions per wall-second with its spread, and the mean decision cost.
// One run of a point takes 5-100 ms of wall time, and on a shared host one
// such run of the same code has read anywhere in a 2x range, so every
// point runs kRepeats times: the table prints the median run, and the
// min-max of its decisions per second.
#include <algorithm>
#include <chrono>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

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

constexpr std::size_t kRepeats = 9;

std::string fixed2(double v) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(2) << v;
  return ss.str();
}

void run_point(const SweepPoint& p, midrr::bench::Table& table) {
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

  // Every repeat makes the same decisions; only its wall time varies.
  const SimTime sim_duration = 20 * kSecond;
  std::uint64_t packets = 0;
  std::vector<double> wall_s;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    ScenarioRunner runner(sc, Policy::kMiDrr);
    const auto result = runner.run(sim_duration);
    const auto t1 = std::chrono::steady_clock::now();
    wall_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    packets = 0;
    for (const auto& iface : result.ifaces) packets += iface.bytes_sent / 1500;
  }
  std::sort(wall_s.begin(), wall_s.end());
  const double median_s = wall_s[kRepeats / 2];
  const double decisions = static_cast<double>(packets);
  table.row({std::to_string(p.flows) + "x" + std::to_string(p.ifaces),
             fixed2(to_seconds(sim_duration) / median_s),
             fixed2(decisions / median_s / 1e6),
             fixed2(decisions / wall_s.back() / 1e6) + "-" +
                 fixed2(decisions / wall_s.front() / 1e6),
             fixed2(decisions > 0 ? median_s * 1e9 / decisions : 0.0)});
}

}  // namespace

int main(int, char**) {
  std::cout << "Scalability sweep: miDRR end-to-end simulation throughput\n"
            << "(10 Mb/s per interface, 1500 B packets, random "
               "preferences)\n";
  std::cout << "median of " << kRepeats << " runs per point; Mdecisions/s "
            << "min-max over the runs\n\n";
  midrr::bench::Table table({"flows x if", "sim-s/wall-s", "Mdecisions/s",
                             "min-max", "ns/decision"});
  for (const SweepPoint p : {SweepPoint{4, 2}, SweepPoint{16, 2},
                             SweepPoint{16, 4}, SweepPoint{64, 4},
                             SweepPoint{64, 8}, SweepPoint{256, 8},
                             SweepPoint{1024, 8}, SweepPoint{256, 16},
                             SweepPoint{1024, 16}}) {
    run_point(p, table);
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
