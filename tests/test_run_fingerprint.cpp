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
// The two proxies are pinned the same way: every field of an InboundResult
// (goodput series, delivered bytes, reorder-buffer peak, out-of-order
// arrivals, bytes per path) and of a ProxyResult (goodput series, delivered
// and received bytes, chunks per interface, completion time, cluster
// snapshots, requests and their header bytes), each under miDRR and naive
// DRR.  Their constants were recorded while each proxy still carried its
// own copy of the simulator scaffolding.
//
// Doubles are hashed by bit pattern, so the digests assume IEEE-754
// arithmetic without contraction and libstdc++'s random distributions
// (phone.scn's bimodal packet sizes are drawn through them).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <ios>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/scenario.hpp"
#include "core/scenario_text.hpp"
#include "http/proxy.hpp"
#include "inbound/remote_proxy.hpp"
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
  void series(const TimeSeries& s) {
    text(s.name());
    value(s.points().size());
    for (const auto& [t, v] : s.points()) {
      value(t);
      value(v);
    }
  }
  void completion(const std::optional<SimTime>& at) {
    value(at.has_value());
    value(at.value_or(0));
  }
  template <typename Snapshots>
  void clusters(const Snapshots& snapshots) {
    value(snapshots.size());
    for (const auto& c : snapshots) {
      value(c.at);
      text(c.rendering);
      value(c.analysis.clusters.size());
      for (const fair::Cluster& k : c.analysis.clusters) {
        list(k.flows);
        list(k.ifaces);
        value(k.normalized_rate);
      }
      list(c.analysis.flow_cluster);
      list(c.analysis.iface_cluster);
    }
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
    h.series(f.rate_mbps);
    h.value(f.bytes_sent);
    h.list(f.bytes_per_iface);
    h.completion(f.completed_at);
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
  h.clusters(r.clusters);
  return h.digest();
}

std::uint64_t fingerprint(const inbound::InboundResult& r) {
  Fnv1a h;
  h.value(r.flows.size());
  for (const inbound::InboundFlowResult& f : r.flows) {
    h.text(f.name);
    h.series(f.goodput_mbps);
    h.value(f.delivered_bytes);
    h.value(f.max_reorder_buffer_bytes);
    h.value(f.out_of_order_arrivals);
    h.list(f.bytes_per_path);
  }
  return h.digest();
}

std::uint64_t fingerprint(const http::ProxyResult& r) {
  Fnv1a h;
  h.value(r.flows.size());
  for (const http::ProxyFlowResult& f : r.flows) {
    h.text(f.name);
    h.series(f.goodput_mbps);
    h.value(f.delivered_bytes);
    h.value(f.received_bytes);
    h.list(f.chunks_per_iface);
    h.completion(f.completed_at);
  }
  h.clusters(r.clusters);
  h.value(r.requests_sent);
  h.value(r.request_header_bytes);
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

/// The digest of `proxy`'s result after running it to each of `horizons`.
template <typename Proxy>
std::uint64_t run_in_steps(Proxy& proxy,
                           std::initializer_list<SimTime> horizons) {
  std::uint64_t digest = 0;
  for (const SimTime until : horizons) digest = fingerprint(proxy.run(until));
  return digest;
}

// Two paths whose latencies differ by 25 ms, so a flow spread over both
// arrives out of order; the slower path goes down for a second and comes
// back at a lower rate.  Backlogged (one of them finite), CBR and Poisson
// sources.
std::uint64_t inbound_digest(Policy policy,
                             std::initializer_list<SimTime> horizons = {
                                 10 * kSecond}) {
  const auto backlogged = [](std::uint64_t volume) -> SourceFactory {
    return [volume] {
      return std::make_unique<BackloggedSource>(SizeDistribution::fixed(1500),
                                                volume);
    };
  };
  inbound::RemoteProxy proxy(
      {{"wifi", RateProfile(mbps(10)), 5 * kMillisecond},
       {"lte",
        RateProfile::steps({{0, mbps(5)},
                            {3 * kSecond, 0.0},
                            {4 * kSecond, mbps(2)},
                            {7 * kSecond, mbps(5)}}),
        30 * kMillisecond}},
      {{"bulk", 1.0, {"wifi", "lte"}, backlogged(0)},
       {"video", 2.0, {"wifi", "lte"}, backlogged(4'000'000)},
       {"voip", 1.0, {"wifi"},
        [] { return std::make_unique<CbrSource>(mbps(0.2), 200); }},
       {"web", 1.0, {"lte"},
        [] {
          return std::make_unique<PoissonSource>(
              mbps(1), SizeDistribution::uniform(200, 1500));
        }}},
      policy);
  return run_in_steps(proxy, horizons);
}

// A square-wave interface beside a constant one, a download on each alone
// and one on both, and a finite download of a size that is not a multiple
// of the chunk, with cluster snapshots every 2 s.
std::uint64_t http_digest(Policy policy,
                          std::initializer_list<SimTime> horizons = {
                              20 * kSecond}) {
  http::ProxyOptions options;
  options.policy = policy;
  options.cluster_interval = 2 * kSecond;
  http::HttpRangeProxy proxy(
      {{"if1", RateProfile::square_wave(mbps(8), mbps(2), 10 * kSecond,
                                        30 * kSecond)},
       {"if2", RateProfile(mbps(4))}},
      {{"a", 1.0, {"if1"}, 0},
       {"b", 1.0, {"if1", "if2"}, 0},
       {"c", 2.0, {"if2"}, 5'012'345}},
      options);
  return run_in_steps(proxy, horizons);
}

TEST(RunFingerprint, InboundProxyUnderMiDrr) {
  const std::uint64_t digest = inbound_digest(Policy::kMiDrr);
  EXPECT_EQ(digest, 0x54e9d4f187c5f344ull) << "digest 0x" << std::hex << digest;
}

TEST(RunFingerprint, InboundProxyUnderNaiveDrr) {
  const std::uint64_t digest = inbound_digest(Policy::kNaiveDrr);
  EXPECT_EQ(digest, 0x9ce0836a82bc4a3aull) << "digest 0x" << std::hex << digest;
}

TEST(RunFingerprint, HttpProxyUnderMiDrr) {
  const std::uint64_t digest = http_digest(Policy::kMiDrr);
  EXPECT_EQ(digest, 0xd097f7a28342539aull) << "digest 0x" << std::hex << digest;
}

TEST(RunFingerprint, HttpProxyUnderNaiveDrr) {
  const std::uint64_t digest = http_digest(Policy::kNaiveDrr);
  EXPECT_EQ(digest, 0x72ecb43a7258f63full) << "digest 0x" << std::hex << digest;
}

// run() continues a run: the sources start and the samplers arm once, so
// stopping half way changes nothing.
TEST(RunFingerprint, ProxyRunsInStepsEqualOneRun) {
  EXPECT_EQ(inbound_digest(Policy::kMiDrr, {5 * kSecond, 10 * kSecond}),
            inbound_digest(Policy::kMiDrr));
  EXPECT_EQ(http_digest(Policy::kMiDrr, {5 * kSecond, 10 * kSecond}),
            http_digest(Policy::kMiDrr, {10 * kSecond}));
}

}  // namespace
}  // namespace midrr
