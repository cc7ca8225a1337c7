// Ablation bench: which design ingredients of miDRR matter?
//
//  1. The service flag: miDRR vs naive per-interface DRR (flag removed) vs
//     per-interface WFQ vs packet round robin -- L1 distance of the
//     achieved normalized allocation from the reference max-min, over a set
//     of random topologies.
//  2. Quantum size: convergence/fairness trade-off (Lemma 6's bound scales
//     with Q'), on the Fig 1(c) topology.
//  3. Deficit keying: per-(flow,interface) DC (default; Section 3.1 "each
//     interface implementing DRR independently") vs the shared per-flow DC
//     a literal reading of Table 1 suggests.
#include <iostream>

#include "bench/common.hpp"
#include "core/scenario.hpp"
#include "fairness/maxmin.hpp"
#include "sched/midrr.hpp"
#include "sim/link.hpp"
#include "util/indexed_name.hpp"
#include "util/rng.hpp"

namespace {

using namespace midrr;

struct Instance {
  Scenario scenario;
  fair::MaxMinInput input;
};

Instance random_instance(std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 5));
  const auto m = static_cast<std::size_t>(rng.uniform_int(2, 4));
  Instance inst;
  std::vector<std::string> iface_names;
  for (std::size_t j = 0; j < m; ++j) {
    const double cap = rng.uniform(1.0, 12.0);
    iface_names.push_back(indexed_name("if", j));
    inst.scenario.interface(iface_names.back(), RateProfile(mbps(cap)));
    inst.input.capacities_bps.push_back(mbps(cap));
  }
  const double wc[] = {0.5, 1.0, 2.0, 4.0};
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<bool> row(m, false);
    std::vector<std::string> willing;
    const auto pinned = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
    row[pinned] = true;
    willing.push_back(iface_names[pinned]);
    const double w = wc[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    inst.input.weights.push_back(w);
    inst.input.willing.push_back(row);
    inst.scenario.backlogged_flow(indexed_name("f", i), w, willing);
  }
  inst.input.weights.push_back(1.0);
  inst.input.willing.emplace_back(m, true);
  inst.scenario.backlogged_flow("agg", 1.0, iface_names);
  return inst;
}

/// L1 distance (Mb/s, weight-normalized) between the achieved and the
/// reference max-min allocation.
double distance_to_maxmin(const Instance& inst, Policy policy,
                          std::uint32_t quantum = 1500) {
  const auto reference = fair::solve_max_min(inst.input);
  RunnerOptions opt;
  opt.quantum_base = quantum;
  ScenarioRunner runner(inst.scenario, policy, opt);
  const SimTime dur = 30 * kSecond;
  const auto result = runner.run(dur);
  double d = 0.0;
  for (std::size_t i = 0; i < result.flows.size(); ++i) {
    const double rate =
        result.flows[i].mean_rate_mbps(10 * kSecond, dur) * 1e6;
    d += std::abs(rate - reference.rates_bps[i]) / inst.input.weights[i];
  }
  return d / 1e6;
}

}  // namespace

int main(int, char**) {
  std::cout << "Ablation: what makes miDRR work?\n";

  bench::section("1. service flag ablation: L1 distance from max-min "
                 "(Mb/s, lower is better), 12 random topologies");
  {
    bench::Table table(
        {"seed", "oracle", "miDRR", "naive-DRR", "WFQ", "RR"});
    std::vector<double> totals(5, 0.0);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const auto inst = random_instance(seed);
      const double orc = distance_to_maxmin(inst, Policy::kOracle);
      const double mi = distance_to_maxmin(inst, Policy::kMiDrr);
      const double nd = distance_to_maxmin(inst, Policy::kNaiveDrr);
      const double wf = distance_to_maxmin(inst, Policy::kPerIfaceWfq);
      const double rr = distance_to_maxmin(inst, Policy::kRoundRobin);
      totals[0] += orc;
      totals[1] += mi;
      totals[2] += nd;
      totals[3] += wf;
      totals[4] += rr;
      table.row_values(std::to_string(seed), {orc, mi, nd, wf, rr});
    }
    table.row_values("TOTAL", totals);
    std::cout << "expected: the oracle (global rate exchange, Section 3's "
                 "rejected strawman) is near zero;\n"
                 "          miDRR gets close with one bit per "
                 "(flow, interface); removing that bit (naive DRR)\n"
                 "          or using per-interface WFQ leaves a much larger "
                 "distance.\n";
  }

  bench::section("2. quantum sweep on Fig 1(c): fairness error vs quantum "
                 "(Lemma 6: |FM| < Q' + 2*MaxSize)");
  {
    Scenario sc;
    sc.interface("if1", RateProfile(mbps(1)));
    sc.interface("if2", RateProfile(mbps(1)));
    sc.backlogged_flow("a", 1.0, {"if1", "if2"});
    sc.backlogged_flow("b", 1.0, {"if2"});
    bench::Table table({"quantum B", "a Mb/s", "b Mb/s", "|err| Mb/s"});
    for (const std::uint32_t q : {1500u, 3000u, 6000u, 12000u, 24000u}) {
      RunnerOptions opt;
      opt.quantum_base = q;
      ScenarioRunner runner(sc, Policy::kMiDrr, opt);
      const SimTime dur = 30 * kSecond;
      const auto result = runner.run(dur);
      const double a = result.flow_named("a").mean_rate_mbps(dur / 2, dur);
      const double b = result.flow_named("b").mean_rate_mbps(dur / 2, dur);
      table.row_values(std::to_string(q),
                       {a, b, std::abs(a - 1.0) + std::abs(b - 1.0)}, 3);
    }
    std::cout << "expected: rates stay ~1/1; short-term fluctuation grows "
                 "with the quantum (not visible\n"
                 "          in long-run means, see "
                 "tests/test_lemmas.cpp for the interval-level bound).\n";
  }

  bench::section("3. deficit keying: per-(flow,iface) DC (default) vs "
                 "shared per-flow DC (Table 1 literal)");
  {
    bench::Table table({"seed", "per-iface", "shared"});
    double t_per = 0.0;
    double t_shared = 0.0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const auto inst = random_instance(seed);
      const auto reference = fair::solve_max_min(inst.input);
      const auto run_with = [&](bool shared) {
        // Drive the scheduler directly so we can pick the DC mode.
        Simulator sim;
        MiDrrScheduler sched(1500, shared);
        Rng rng(1);
        std::vector<std::unique_ptr<LinkTransmitter>> links;
        std::vector<std::unique_ptr<BackloggedSource>> sources;
        for (std::size_t j = 0; j < inst.input.iface_count(); ++j) {
          const IfaceId id = sched.add_interface();
          links.push_back(std::make_unique<LinkTransmitter>(
              sim, id, RateProfile(inst.input.capacities_bps[j]),
              [&sched, &sources, &rng](IfaceId iface,
                                       SimTime now) -> std::optional<Packet> {
                auto p = sched.dequeue(iface, now);
                if (p) {
                  for (const auto size :
                       sources[p->flow]->on_dequeue(p->size_bytes, rng)) {
                    sched.enqueue(Packet(p->flow, size), now);
                  }
                }
                return p;
              },
              nullptr));
        }
        for (std::size_t i = 0; i < inst.input.flow_count(); ++i) {
          std::vector<IfaceId> willing;
          for (std::size_t j = 0; j < inst.input.iface_count(); ++j) {
            if (inst.input.willing[i][j]) {
              willing.push_back(static_cast<IfaceId>(j));
            }
          }
          const FlowId f = sched.add_flow({.weight = inst.input.weights[i], .willing = willing});
          sources.push_back(std::make_unique<BackloggedSource>(
              SizeDistribution::fixed(1500), 0));
          for (const auto size : sources.back()->on_start(rng)) {
            sched.enqueue(Packet(f, size), 0);
          }
        }
        for (auto& link : links) link->notify_backlog();
        sim.run_until(30 * kSecond);
        double d = 0.0;
        for (std::size_t i = 0; i < inst.input.flow_count(); ++i) {
          const double rate = static_cast<double>(sched.sent_bytes(
                                  static_cast<FlowId>(i))) *
                              8.0 / 30.0;
          d += std::abs(rate - reference.rates_bps[i]) /
               inst.input.weights[i];
        }
        return d / 1e6;
      };
      const double per = run_with(false);
      const double shared = run_with(true);
      t_per += per;
      t_shared += shared;
      table.row_values(std::to_string(seed), {per, shared});
    }
    table.row_values("TOTAL", {t_per, t_shared});
    std::cout << "expected: comparable on these sparse topologies; on dense "
                 "willingness graphs (several\n"
                 "          multi-homed flows per interface) per-interface "
                 "DC tracks max-min noticeably\n"
                 "          better because a shared DC lets one interface's "
                 "sends drain the deficit\n"
                 "          another interface just granted (see "
                 "tests/test_maxmin_property.cpp).\n";
  }
  return 0;
}
