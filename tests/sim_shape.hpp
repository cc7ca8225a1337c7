// The shape of perfbench's `sim` workload, rebuilt for tests that need a
// large, steady ScenarioRunner run: 8 constant-rate interfaces (100 to
// 400 Mb/s, 2 Gb/s in total), 128 backlogged flows, each willing on 1 to 3
// interfaces with a weight in {1, 2, 4}, and 1000-byte packets.  Start
// times are spread over the first millisecond.  Every draw comes straight
// from the mt19937_64 engine, whose output the standard fixes, so the
// scenario is the same under every standard library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "util/indexed_name.hpp"
#include "util/rng.hpp"

namespace midrr::test_shapes {

inline Scenario sim_shaped_scenario() {
  constexpr std::size_t kIfaces = 8;
  constexpr std::size_t kFlows = 128;
  constexpr std::uint32_t kPacketBytes = 1000;
  constexpr double kTotalBps = 2e9;
  static constexpr double kWeights[] = {1.0, 2.0, 4.0};
  Rng rng(1);
  auto& engine = rng.engine();
  Scenario scenario;
  std::vector<std::string> names;
  for (std::size_t j = 0; j < kIfaces; ++j) {
    names.push_back(indexed_name("if", j));
    const double share = 0.5 + 1.5 * static_cast<double>(j) / 7.0;
    scenario.interface(names.back(), RateProfile(kTotalBps * share / 10.0));
  }
  for (std::size_t i = 0; i < kFlows; ++i) {
    ScenarioFlowSpec spec;
    spec.name = indexed_name("f", i);
    // i % 3 sets the interface count and i / 3 the weight, so every
    // (count, weight) pair occurs.
    spec.weight = kWeights[(i / 3) % 3];
    std::vector<bool> taken(kIfaces, false);
    while (spec.ifaces.size() < 1 + i % 3) {
      const std::size_t j = engine() % kIfaces;
      if (taken[j]) continue;
      taken[j] = true;
      spec.ifaces.push_back(names[j]);
    }
    spec.start = static_cast<SimTime>(engine() % 1'000'000);
    spec.make_source = [] {
      return std::make_unique<BackloggedSource>(
          SizeDistribution::fixed(kPacketBytes));
    };
    scenario.flow(std::move(spec));
  }
  return scenario;
}

}  // namespace midrr::test_shapes
