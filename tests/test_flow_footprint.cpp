// Per-flow scheduler footprint: live heap bytes a scheduler holds per
// registered flow, and per flow once it has carried one packet, for the two
// policies the runtime runs at scale (kMiDrr, kHierMiDrr), with 100k flows
// on 4 interfaces; and the heap allocations a simulated departure costs
// on the ScenarioRunner path.  The global operator new / delete are
// replaced in this executable only (each test file links into its own
// binary), so every heap byte and allocation is counted exactly,
// independent of the allocator's own rounding and caching.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/scenario.hpp"
#include "sched/scheduler.hpp"
#include "sim_shape.hpp"
#include "util/indexed_name.hpp"

namespace {

std::atomic<long long> g_live_bytes{0};
std::atomic<long long> g_allocations{0};

// Each block carries its requested size in a header that keeps the
// fundamental alignment, so the unsized delete can uncount it.  Every
// non-aligned form is replaced, so no block crosses between this counter
// and another allocator (sanitizer runtimes supply their own forms).
constexpr std::size_t kHeader = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  g_live_bytes.fetch_add(static_cast<long long>(size),
                         std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return static_cast<char*>(block) + kHeader;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<long long>(*static_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}

void* operator new[](std::size_t size) { return operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}

void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  operator delete(p);
}

namespace midrr {
namespace {

constexpr std::size_t kFlows = 100'000;
constexpr std::size_t kIfaces = 4;

struct Footprint {
  double registered_bytes_per_flow = 0;   ///< after add_flow
  double loaded_bytes_per_flow = 0;       ///< after one packet in and out
  long long registration_allocations = 0;
};

Footprint measure(Policy policy) {
  auto sched = make_scheduler(policy);
  for (std::size_t j = 0; j < kIfaces; ++j) sched->add_interface();
  // One unnamed spec per willing pair, built before counting starts.
  std::vector<FlowSpec> specs;
  for (std::size_t j = 0; j < kIfaces; ++j) {
    specs.push_back({.weight = 1.0 + static_cast<double>(j),
                     .willing = {static_cast<IfaceId>(j),
                                 static_cast<IfaceId>((j + 1) % kIfaces)}});
  }

  Footprint out;
  const long long bytes0 = g_live_bytes.load();
  const long long allocs0 = g_allocations.load();
  for (std::size_t f = 0; f < kFlows; ++f) sched->add_flow(specs[f % kIfaces]);
  out.registration_allocations = g_allocations.load() - allocs0;
  out.registered_bytes_per_flow =
      static_cast<double>(g_live_bytes.load() - bytes0) / kFlows;

  // One 64 B packet per flow, then drain: what a flow keeps after its
  // first packet (queue ring, ring links) without any queued payload.
  for (std::size_t f = 0; f < kFlows; ++f) {
    sched->enqueue(Packet(static_cast<FlowId>(f), 64), 0);
  }
  std::size_t sent = 0;
  for (IfaceId j = 0; j < kIfaces; ++j) {
    while (sched->dequeue(j, 0)) ++sent;
  }
  EXPECT_EQ(sent, kFlows);
  out.loaded_bytes_per_flow =
      static_cast<double>(g_live_bytes.load() - bytes0) / kFlows;
  return out;
}

// Budgets sit between this layout (336 B registered, 478 B after one
// packet) and the previous one (401 B and 1214 B: an 88 B preference
// struct per flow plus a heap vector<bool> Pi row, and a first queue ring
// of 16 packets, 768 B).
TEST(FlowFootprint, MiDrrPerFlowStateIsSizedToTheFlow) {
  const Footprint fp = measure(Policy::kMiDrr);
  EXPECT_LE(fp.registered_bytes_per_flow, 370.0);
  EXPECT_LE(fp.loaded_bytes_per_flow, 520.0);
  // Columns grow geometrically: registering an unnamed flow makes no heap
  // allocation of its own.
  EXPECT_LT(fp.registration_allocations, static_cast<long long>(kFlows / 100));
}

// This layout: 263 B and 359 B; the previous one: 327 B and 1095 B.
TEST(FlowFootprint, HierMiDrrPerFlowStateIsSizedToTheFlow) {
  const Footprint fp = measure(Policy::kHierMiDrr);
  EXPECT_LE(fp.registered_bytes_per_flow, 290.0);
  EXPECT_LE(fp.loaded_bytes_per_flow, 400.0);
  // Joining an interned class refills one reused lookup key, so only the
  // class's first member allocates.
  EXPECT_LT(fp.registration_allocations, static_cast<long long>(kFlows / 100));
}

// The sim benchmark's shape, warmed to 0.25 s, then one more simulated
// second (about 250k departures) including the run() that returns its
// result.  Everything a departure touches -- the event heap, the link's
// in-flight slot, the source refill, the rate meter and the delay sample
// -- reuses storage, so what remains is amortised vector growth and the
// result copies.  Budget 0.02; about 3 allocations per departure were
// made when each event copied its std::function, each completion boxed
// its packet and each refill returned a vector.
TEST(SimFootprint, ADepartureAllocatesAlmostNothing) {
  const Scenario scenario = test_shapes::sim_shaped_scenario();
  ScenarioRunner runner(scenario, Policy::kMiDrr);
  const ScenarioResult warm = runner.run(250 * kMillisecond);

  const long long allocs0 = g_allocations.load();
  const ScenarioResult done = runner.run(1250 * kMillisecond);
  const long long allocations = g_allocations.load() - allocs0;

  std::size_t departures = 0;
  for (std::size_t i = 0; i < done.flows.size(); ++i) {
    departures += done.flows[i].delay_ns.size() - warm.flows[i].delay_ns.size();
  }
  ASSERT_GT(departures, 200'000u);
  RecordProperty("allocations", static_cast<int>(allocations));
  RecordProperty("departures", static_cast<int>(departures));
  EXPECT_LE(static_cast<double>(allocations) / static_cast<double>(departures),
            0.02)
      << allocations << " allocations over " << departures << " departures";
}

// Timer-driven arrivals: 64 CBR flows at 1 Mb/s (1000 B packets) on one
// 100 Mb/s interface, so every departure follows its own arrival event.
// Each flow's arrival pump is a simulator handle with the pending size
// kept beside it, so an arrival allocates nothing; the second simulated
// second counts the simulator alone (the result copies are left out, as
// they would be a fifth of the budget at 8000 departures).  About 1.04
// allocations per departure were made when each arrival boxed a 24-byte
// capture in a fresh std::function.
TEST(SimFootprint, ACbrArrivalAllocatesAlmostNothing) {
  Scenario scenario;
  scenario.interface("if0", RateProfile(mbps(100)));
  for (std::size_t i = 0; i < 64; ++i) {
    ScenarioFlowSpec spec;
    spec.name = indexed_name("f", i);
    spec.ifaces = {"if0"};
    spec.make_source = [] {
      return std::make_unique<CbrSource>(mbps(1), 1000);
    };
    scenario.flow(std::move(spec));
  }
  ScenarioRunner runner(scenario, Policy::kMiDrr);
  const ScenarioResult warm = runner.run(kSecond);

  const long long allocs0 = g_allocations.load();
  runner.simulator().run_until(2 * kSecond);
  const long long allocations = g_allocations.load() - allocs0;

  const ScenarioResult done = runner.run(2 * kSecond);
  std::size_t departures = 0;
  for (std::size_t i = 0; i < done.flows.size(); ++i) {
    departures += done.flows[i].delay_ns.size() - warm.flows[i].delay_ns.size();
  }
  ASSERT_GE(departures, 7900u);
  RecordProperty("cbr_allocations", static_cast<int>(allocations));
  RecordProperty("cbr_departures", static_cast<int>(departures));
  EXPECT_LE(static_cast<double>(allocations) / static_cast<double>(departures),
            0.02)
      << allocations << " allocations over " << departures << " departures";
}

}  // namespace
}  // namespace midrr
