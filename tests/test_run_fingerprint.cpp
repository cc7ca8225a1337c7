// Whole-run fingerprints: a 64-bit FNV-1a digest of every field of a
// ScenarioResult -- the policy name and duration; per flow its identity,
// rate series, byte counts, completion time, delay distribution (size and
// every (value, cumulative probability) point of the sorted samples) and
// drops; per interface its bytes and busy time; and every cluster snapshot.
// Both example scenarios run under every policy, plus one run of the sim
// benchmark's shape.  The constants were recorded before the simulator's
// event queue, link transmitter, sources and meters were reworked for
// allocation-free operation; a change to the simulator's scaffolding must
// leave every scheduling decision, and so every digest, as it was.
//
// Doubles are hashed by bit pattern, so the digests assume IEEE-754
// arithmetic without contraction and libstdc++'s random distributions
// (phone.scn's bimodal packet sizes are drawn through them).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <ios>
#include <ostream>
#include <string>
#include <type_traits>

#include "core/scenario.hpp"
#include "core/scenario_text.hpp"
#include "sim_shape.hpp"

namespace midrr {
namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state_ = (state_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void value(T v) {
    static_assert(std::is_arithmetic_v<T>);
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    bytes(raw, sizeof(T));
  }
  void text(const std::string& s) {
    value(s.size());
    bytes(s.data(), s.size());
  }
  template <typename T>
  void list(const std::vector<T>& values) {
    value(values.size());
    for (const T v : values) value(v);
  }
  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

std::uint64_t fingerprint(const ScenarioResult& r) {
  Fnv1a h;
  h.text(r.policy);
  h.value(r.duration);
  h.value(r.flows.size());
  for (const FlowResult& f : r.flows) {
    h.text(f.name);
    h.value(f.id);
    h.value(f.weight);
    h.text(f.rate_mbps.name());
    h.value(f.rate_mbps.points().size());
    for (const auto& [t, v] : f.rate_mbps.points()) {
      h.value(t);
      h.value(v);
    }
    h.value(f.bytes_sent);
    h.list(f.bytes_per_iface);
    h.value(f.completed_at.has_value());
    h.value(f.completed_at.value_or(0));
    h.value(f.delay_ns.size());
    const auto curve = f.delay_ns.curve();
    h.value(curve.size());
    for (const auto& [v, p] : curve) {
      h.value(v);
      h.value(p);
    }
    h.value(f.dropped_packets);
    h.value(f.dropped_bytes);
  }
  h.value(r.ifaces.size());
  for (const InterfaceResult& i : r.ifaces) {
    h.text(i.name);
    h.value(i.id);
    h.value(i.bytes_sent);
    h.value(i.busy_time);
  }
  h.value(r.clusters.size());
  for (const ClusterSnapshot& c : r.clusters) {
    h.value(c.at);
    h.text(c.rendering);
    h.value(c.analysis.clusters.size());
    for (const fair::Cluster& k : c.analysis.clusters) {
      h.list(k.flows);
      h.list(k.ifaces);
      h.value(k.normalized_rate);
    }
    h.list(c.analysis.flow_cluster);
    h.list(c.analysis.iface_cluster);
  }
  return h.digest();
}

struct ExampleRun {
  const char* file;    ///< under examples/
  const char* policy;  ///< parse_policy name
  std::uint64_t digest;
};

void PrintTo(const ExampleRun& run, std::ostream* os) {
  *os << run.file << " under " << run.policy;
}

class ExampleFingerprint : public ::testing::TestWithParam<ExampleRun> {};

TEST_P(ExampleFingerprint, MatchesTheRecordedRun) {
  const ExampleRun& run = GetParam();
  std::ifstream file(std::string(MIDRR_EXAMPLES_DIR) + "/" + run.file);
  ASSERT_TRUE(file) << run.file;
  ParsedScenario parsed = parse_scenario(file);
  ScenarioRunner runner(parsed.scenario, parse_policy(run.policy),
                        parsed.run.options);
  const std::uint64_t digest = fingerprint(runner.run(parsed.run.duration));
  EXPECT_EQ(digest, run.digest) << run.file << " under " << run.policy
                                << ": digest 0x" << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Examples, ExampleFingerprint,
    ::testing::Values(
        ExampleRun{"phone.scn", "midrr", 0x69a9431a1a9fdb90ull},
        ExampleRun{"phone.scn", "hmidrr", 0xc1cbfcb3a0a2db6aull},
        ExampleRun{"phone.scn", "naive-drr", 0x5127c7b32d2ce6c4ull},
        ExampleRun{"phone.scn", "wfq", 0x7e140c86d4c80eebull},
        ExampleRun{"phone.scn", "rr", 0xd2c796f016113604ull},
        ExampleRun{"phone.scn", "fifo", 0xc4e1e15f68a997e4ull},
        ExampleRun{"phone.scn", "priority", 0x7a921dbfc6511cceull},
        ExampleRun{"phone.scn", "oracle", 0xbdb25bba2fee4c8cull},
        ExampleRun{"datacenter.scn", "midrr", 0xf955646fdc2b4ccdull},
        ExampleRun{"datacenter.scn", "hmidrr", 0xc06c0cf2aebeb673ull},
        ExampleRun{"datacenter.scn", "naive-drr", 0x56043d9aef44d263ull},
        ExampleRun{"datacenter.scn", "wfq", 0xcc1b9b4532167439ull},
        ExampleRun{"datacenter.scn", "rr", 0xfaf348a12c4cf14dull},
        ExampleRun{"datacenter.scn", "fifo", 0xb1ffee408714f041ull},
        ExampleRun{"datacenter.scn", "priority", 0xc5dc0864ea956b98ull},
        ExampleRun{"datacenter.scn", "oracle", 0xb461e09ae33fd1d8ull}),
    [](const ::testing::TestParamInfo<ExampleRun>& instance) {
      std::string name = instance.param.file;
      name += "_";
      name += instance.param.policy;
      for (char& c : name) {
        if (c == '.' || c == '-') c = '_';
      }
      return name;
    });

TEST(RunFingerprint, SimShapedRunUnderMiDrr) {
  const Scenario scenario = test_shapes::sim_shaped_scenario();
  ScenarioRunner runner(scenario, Policy::kMiDrr);
  const std::uint64_t digest = fingerprint(runner.run(1250 * kMillisecond));
  EXPECT_EQ(digest, 0xc361899ebbc24a59ull) << "digest 0x" << std::hex << digest;
}

}  // namespace
}  // namespace midrr
