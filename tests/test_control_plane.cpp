// ControlPlane + Rcu: class-delta registry logic against a mock
// ShardApplier (apply-vs-publish ordering, Pi-row interning and dedup,
// shard coverage growth and shrink, batch registration with one publish
// and one shard call per hosting shard), random delta sequences checked
// against a sequential model, and the snapshot-swap guarantee --
// concurrent readers see a whole old or whole new configuration, never a
// torn mix, and never a published snapshot that changes under them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "runtime/control_plane.hpp"
#include "runtime/rcu.hpp"
#include "util/assert.hpp"

namespace midrr::rt {
namespace {

/// Records every mutation, interleaved with the publish version at which it
/// arrived (so ordering relative to publication is checkable).
class RecordingApplier : public ShardApplier {
 public:
  struct Op {
    std::string kind;
    std::uint32_t shard;
    FlowId flow;
    std::vector<IfaceId> willing_subset;
  };

  void shard_add_flows(std::uint32_t shard, std::span<const FlowId> flows,
                       const RtFlowSpec&,
                       const std::vector<IfaceId>& willing_subset) override {
    ++add_calls;
    for (const FlowId flow : flows) {
      ops.push_back({"add", shard, flow, willing_subset});
    }
  }
  void shard_remove_flow(std::uint32_t shard, FlowId flow) override {
    ops.push_back({"remove", shard, flow, {}});
  }
  void shard_set_weight(std::uint32_t shard, FlowId flow, double) override {
    ops.push_back({"weight", shard, flow, {}});
  }
  void shard_set_willing(std::uint32_t shard, FlowId flow, IfaceId iface,
                         bool value) override {
    ops.push_back({value ? "willing+" : "willing-", shard, flow, {iface}});
  }

  std::vector<Op> ops;
  std::size_t add_calls = 0;  ///< shard_add_flows calls, one per batch
};

/// Applies nothing: for tests whose subject is publication, not shard ops.
class NullApplier : public ShardApplier {
 public:
  void shard_add_flows(std::uint32_t, std::span<const FlowId>,
                       const RtFlowSpec&,
                       const std::vector<IfaceId>&) override {}
  void shard_remove_flow(std::uint32_t, FlowId) override {}
  void shard_set_weight(std::uint32_t, FlowId, double) override {}
  void shard_set_willing(std::uint32_t, FlowId, IfaceId, bool) override {}
};

/// Fails the test, and throws, on any call made while `armed`: for deltas
/// that must be refused before any shard sees them.
class TrapApplier : public ShardApplier {
 public:
  void shard_add_flows(std::uint32_t, std::span<const FlowId>,
                       const RtFlowSpec&,
                       const std::vector<IfaceId>&) override {
    reached();
  }
  void shard_remove_flow(std::uint32_t, FlowId) override { reached(); }
  void shard_set_weight(std::uint32_t, FlowId, double) override { reached(); }
  void shard_set_willing(std::uint32_t, FlowId, IfaceId, bool) override {
    reached();
  }
  bool armed = false;

 private:
  void reached() const {
    if (!armed) return;
    ADD_FAILURE() << "a refused delta reached a shard";
    throw std::logic_error("shard reached");
  }
};

// Topology for most tests: 4 interfaces on 2 shards (0,1,0,1).
std::vector<std::uint32_t> two_shards() { return {0, 1, 0, 1}; }

TEST(ControlPlane, AddFlowReachesEveryHostingShardWithLocalSubset) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec;
  spec.willing = {0, 1, 2};  // shard 0 hosts {0, 2}, shard 1 hosts {1}
  const FlowId f = cp.add_flow(spec);
  ASSERT_EQ(applier.ops.size(), 2u);
  EXPECT_EQ(applier.ops[0].kind, "add");
  EXPECT_EQ(applier.ops[0].shard, 0u);
  EXPECT_EQ(applier.ops[0].willing_subset, (std::vector<IfaceId>{0, 2}));
  EXPECT_EQ(applier.ops[1].shard, 1u);
  EXPECT_EQ(applier.ops[1].willing_subset, (std::vector<IfaceId>{1}));

  const ClassId cls = cp.class_of(f);
  ASSERT_NE(cls, kInvalidClass);
  auto reader = cp.reader();
  const auto guard = reader.lock();
  const SnapshotClass* entry = guard->cls(cls);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->shards, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(entry->members, 1u);
  EXPECT_EQ(guard->live, std::vector<ClassId>{cls});
}

TEST(ControlPlane, AddAppliesBeforeDirectoryRemoveClearsDirectoryBefore) {
  // The ordering invariant, observed through the applier: at the moment
  // shard_add_flows runs, producers must not yet resolve the flow (its
  // directory word is stored only after the publish); at the moment
  // shard_remove_flow runs the directory must ALREADY have dropped it.
  class OrderChecker : public ShardApplier {
   public:
    void shard_add_flows(std::uint32_t, std::span<const FlowId> flows,
                         const RtFlowSpec&,
                         const std::vector<IfaceId>&) override {
      for (const FlowId flow : flows) {
        EXPECT_EQ(cp->class_of(flow), kInvalidClass)
            << "flow resolvable before the shard knew it";
      }
    }
    void shard_remove_flow(std::uint32_t, FlowId flow) override {
      EXPECT_EQ(cp->class_of(flow), kInvalidClass)
          << "flow still resolvable after the shard forgot it";
    }
    void shard_set_weight(std::uint32_t, FlowId, double) override {}
    void shard_set_willing(std::uint32_t, FlowId, IfaceId, bool) override {}
    ControlPlane* cp = nullptr;
  };

  OrderChecker applier;
  ControlPlane cp(applier, two_shards(), 16);
  applier.cp = &cp;
  RtFlowSpec spec;
  spec.willing = {0, 1};
  const FlowId f = cp.add_flow(spec);
  EXPECT_NE(cp.class_of(f), kInvalidClass);
  cp.remove_flow(f);
  EXPECT_EQ(cp.class_of(f), kInvalidClass);
}

TEST(ControlPlane, EqualSpecsInternIntoOneClass) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec;
  spec.willing = {0, 1};
  const FlowId a = cp.add_flow(spec);
  const FlowId b = cp.add_flow(spec);
  EXPECT_EQ(cp.class_of(a), cp.class_of(b));
  EXPECT_EQ(cp.class_count(), 1u);
  EXPECT_EQ(cp.flow_count(), 2u);

  RtFlowSpec heavier = spec;
  heavier.weight = 2.0;
  const FlowId c = cp.add_flow(heavier);
  EXPECT_NE(cp.class_of(c), cp.class_of(a)) << "weight is class identity";
  RtFlowSpec bounded = spec;
  bounded.queue_capacity_bytes = 1024;
  const FlowId d = cp.add_flow(bounded);
  EXPECT_NE(cp.class_of(d), cp.class_of(a)) << "queue bound is class identity";
  EXPECT_EQ(cp.class_count(), 3u);
  EXPECT_EQ(cp.members_of(cp.class_of(a)), (std::vector<FlowId>{a, b}));
}

TEST(ControlPlane, AddMembersRegistersABatchUnderOnePublish) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 64);
  const std::uint64_t v0 = cp.version();
  ClassSpec spec;
  spec.willing = {0, 1};
  const FlowId first = cp.add_members(spec, 40);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(cp.version(), v0 + 1) << "one publish for the whole batch";
  EXPECT_EQ(applier.ops.size(), 80u) << "40 members x 2 hosting shards";
  EXPECT_EQ(applier.add_calls, 2u) << "one shard call per hosting shard";
  EXPECT_EQ(cp.flow_count(), 40u);
  const ClassId cls = cp.class_of(first);
  for (FlowId f = first; f < first + 40; ++f) {
    EXPECT_EQ(cp.class_of(f), cls) << "batch members land in one class";
  }
  auto reader = cp.reader();
  const auto guard = reader.lock();
  ASSERT_NE(guard->cls(cls), nullptr);
  EXPECT_EQ(guard->cls(cls)->members, 40u);
  EXPECT_EQ(guard->live.size(), 1u) << "snapshot size is O(classes)";
}

TEST(ControlPlane, ApplyDrivesEveryDeltaKind) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  ControlDelta add;
  add.kind = ControlDelta::Kind::kAddMembers;
  add.spec.willing = {0};
  add.count = 3;
  const FlowId first = cp.apply(add);
  EXPECT_EQ(cp.flow_count(), 3u);

  ControlDelta move;
  move.kind = ControlDelta::Kind::kMoveMember;
  move.flow = first;
  move.spec.willing = {1};
  EXPECT_EQ(cp.apply(move), kInvalidFlow);
  EXPECT_NE(cp.class_of(first), cp.class_of(first + 1));

  ControlDelta reweight;
  reweight.kind = ControlDelta::Kind::kReweightClass;
  reweight.cls = cp.class_of(first + 1);
  reweight.weight = 2.0;
  cp.apply(reweight);
  {
    auto reader = cp.reader();
    const auto guard = reader.lock();
    EXPECT_EQ(guard->cls(cp.class_of(first + 1))->weight, 2.0);
  }

  ControlDelta remove;
  remove.kind = ControlDelta::Kind::kRemoveMember;
  remove.flow = first + 2;
  cp.apply(remove);
  EXPECT_EQ(cp.flow_count(), 2u);
}

TEST(ControlPlane, ClassRetiresAndRevivesUnderTheSameId) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec;
  spec.willing = {0, 1};
  const FlowId a = cp.add_flow(spec);
  const ClassId cls = cp.class_of(a);
  cp.remove_flow(a);
  EXPECT_EQ(cp.class_count(), 0u);
  {
    auto reader = cp.reader();
    EXPECT_EQ(reader.lock()->cls(cls), nullptr) << "emptied class retired";
  }
  const FlowId b = cp.add_flow(spec);
  EXPECT_EQ(cp.class_of(b), cls) << "matching key revives the same class id";
  EXPECT_EQ(b, a + 1) << "flow ids are never recycled";
}

TEST(ControlPlane, ReweightClassMovesEveryMemberInOnePublish) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  ClassSpec spec;
  spec.willing = {0, 1};
  const FlowId first = cp.add_members(spec, 3);
  const ClassId before = cp.class_of(first);
  applier.ops.clear();
  const std::uint64_t v = cp.version();

  const ClassId after = cp.reweight_class(before, 2.0);
  EXPECT_NE(after, before);
  EXPECT_EQ(cp.version(), v + 1) << "one publish for the whole class";
  EXPECT_EQ(applier.ops.size(), 6u) << "3 members x 2 hosting shards";
  for (const auto& op : applier.ops) EXPECT_EQ(op.kind, "weight");
  for (FlowId f = first; f < first + 3; ++f) {
    EXPECT_EQ(cp.class_of(f), after);
  }
  auto reader = cp.reader();
  const auto guard = reader.lock();
  EXPECT_EQ(guard->cls(before), nullptr) << "source class retired";
  ASSERT_NE(guard->cls(after), nullptr);
  EXPECT_EQ(guard->cls(after)->members, 3u);
  EXPECT_EQ(guard->cls(after)->weight, 2.0);
}

TEST(ControlPlane, ReweightMergesIntoAnExistingClass) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  ClassSpec spec;
  spec.willing = {0};
  const FlowId light = cp.add_members(spec, 2);
  ClassSpec heavy = spec;
  heavy.weight = 2.0;
  const FlowId anchor = cp.add_flow(heavy);
  const ClassId target = cp.class_of(anchor);

  EXPECT_EQ(cp.reweight_class(cp.class_of(light), 2.0), target);
  EXPECT_EQ(cp.class_of(light), target);
  EXPECT_EQ(cp.class_count(), 1u);
  auto reader = cp.reader();
  EXPECT_EQ(reader.lock()->cls(target)->members, 3u);
}

TEST(ControlPlane, SetWillingGrowsAndShrinksShardCoverage) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec;
  spec.willing = {0};  // shard 0 only
  const FlowId f = cp.add_flow(spec);
  applier.ops.clear();

  cp.set_willing(f, 1, true);  // first iface on shard 1: coverage grows
  ASSERT_EQ(applier.ops.size(), 1u);
  EXPECT_EQ(applier.ops[0].kind, "add");
  EXPECT_EQ(applier.ops[0].shard, 1u);
  EXPECT_EQ(applier.ops[0].willing_subset, std::vector<IfaceId>{1});

  cp.set_willing(f, 3, true);  // second iface on shard 1: plain flip
  ASSERT_EQ(applier.ops.size(), 2u);
  EXPECT_EQ(applier.ops[1].kind, "willing+");

  cp.set_willing(f, 1, false);  // shard 1 still hosts iface 3: plain flip
  ASSERT_EQ(applier.ops.size(), 3u);
  EXPECT_EQ(applier.ops[2].kind, "willing-");

  cp.set_willing(f, 3, false);  // last iface on shard 1: coverage shrinks
  ASSERT_EQ(applier.ops.size(), 4u);
  EXPECT_EQ(applier.ops[3].kind, "remove");
  EXPECT_EQ(applier.ops[3].shard, 1u);

  auto reader = cp.reader();
  const auto guard = reader.lock();
  const SnapshotClass* entry = guard->cls(cp.class_of(f));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->shards, std::vector<std::uint32_t>{0});
  EXPECT_EQ(entry->willing, std::vector<IfaceId>{0});
}

TEST(ControlPlane, MoveBetweenClassesPreservesTheFlowId) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec;
  spec.willing = {0, 1};
  const FlowId f = cp.add_flow(spec);
  cp.add_flow(spec);  // keeps the source class alive after the move
  const ClassId before = cp.class_of(f);

  cp.set_weight(f, 3.0);
  const ClassId after = cp.class_of(f);
  EXPECT_NE(after, before);
  auto reader = cp.reader();
  const auto guard = reader.lock();
  EXPECT_EQ(guard->cls(before)->members, 1u);
  EXPECT_EQ(guard->cls(after)->members, 1u);
  EXPECT_EQ(guard->cls(after)->weight, 3.0);
}

TEST(ControlPlane, RedundantUpdatesAreNoOps) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec;
  spec.willing = {0};
  const FlowId f = cp.add_flow(spec);
  const std::uint64_t v = cp.version();
  applier.ops.clear();
  cp.set_willing(f, 0, true);   // already willing
  cp.set_willing(f, 1, false);  // already not
  cp.set_weight(f, 1.0);        // same weight: same class identity
  cp.reweight_class(cp.class_of(f), 1.0);
  EXPECT_TRUE(applier.ops.empty());
  EXPECT_EQ(cp.version(), v);
}

TEST(ControlPlane, RejectsBadInputs) {
  TrapApplier applier;
  ControlPlane cp(applier, two_shards(), 2);
  EXPECT_THROW(cp.add_flow({.weight = 0.0}), PreconditionError);
  EXPECT_THROW(cp.remove_flow(0), PreconditionError);
  RtFlowSpec bad;
  bad.willing = {9};  // unknown interface
  EXPECT_THROW(cp.add_flow(bad), PreconditionError);
  RtFlowSpec ok;
  ok.willing = {0};
  const FlowId f = cp.add_flow(ok);
  applier.armed = true;
  EXPECT_THROW(cp.add_members(ok, std::numeric_limits<std::size_t>::max()),
               PreconditionError)
      << "arena bound must not wrap";
  applier.armed = false;
  cp.add_flow(ok);
  EXPECT_THROW(cp.add_flow(ok), PreconditionError) << "arena bound";
  EXPECT_THROW(cp.set_weight(f, -1.0), PreconditionError);
  EXPECT_THROW(cp.reweight_class(kInvalidClass, 2.0), PreconditionError);
  EXPECT_THROW(cp.add_members(ok, 0), PreconditionError);
  cp.remove_flow(f);
  EXPECT_THROW(cp.set_weight(f, 1.0), PreconditionError) << "dead flow";
}

TEST(ControlPlane, FlowIdsAreDenseAndNeverReused) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 8);
  RtFlowSpec spec;
  spec.willing = {0};
  const FlowId a = cp.add_flow(spec);
  const FlowId b = cp.add_flow(spec);
  cp.remove_flow(a);
  const FlowId c = cp.add_flow(spec);
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, b + 1) << "removing a flow must not recycle its id";
}

TEST(ControlPlane, IfaceDownReSteersAndQuarantinesInOnePublish) {
  // Kill interface 0 under two classes: x{0, 1} survives on interface 1
  // (so its member must LEAVE shard 0), y{0} has nowhere to go (so the
  // class is quarantined: still live, still holding its preferences, but
  // routing nowhere).
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec x_spec;
  x_spec.willing = {0, 1};
  const FlowId x = cp.add_flow(x_spec);
  RtFlowSpec y_spec;
  y_spec.willing = {0};
  const FlowId y = cp.add_flow(y_spec);
  applier.ops.clear();
  const std::uint64_t v = cp.version();

  cp.set_iface_down(0, true);
  EXPECT_TRUE(cp.iface_down(0));
  EXPECT_EQ(cp.version(), v + 1) << "one publish for the whole transition";
  EXPECT_EQ(cp.quarantined_count(), 1u);
  ASSERT_EQ(applier.ops.size(), 2u);
  EXPECT_EQ(applier.ops[0].kind, "remove");  // x leaves shard 0
  EXPECT_EQ(applier.ops[0].shard, 0u);
  EXPECT_EQ(applier.ops[0].flow, x);
  EXPECT_EQ(applier.ops[1].kind, "remove");  // y leaves its only shard
  EXPECT_EQ(applier.ops[1].flow, y);
  {
    auto reader = cp.reader();
    const auto guard = reader.lock();
    const SnapshotClass* xc = guard->cls(cp.class_of(x));
    const SnapshotClass* yc = guard->cls(cp.class_of(y));
    ASSERT_NE(xc, nullptr);
    ASSERT_NE(yc, nullptr);
    EXPECT_EQ(xc->shards, std::vector<std::uint32_t>{1});
    EXPECT_FALSE(xc->quarantined);
    EXPECT_EQ(xc->willing, (std::vector<IfaceId>{0, 1}))
        << "preferences are reality-masked, not edited";
    EXPECT_TRUE(yc->shards.empty());
    EXPECT_TRUE(yc->quarantined);
    EXPECT_EQ(guard->live.size(), 2u)
        << "quarantined classes stay live (their offers are counted rejects)";
    ASSERT_EQ(guard->iface_down.size(), 4u);
    EXPECT_TRUE(guard->iface_down[0]);
  }

  applier.ops.clear();
  cp.set_iface_down(0, false);
  EXPECT_FALSE(cp.iface_down(0));
  EXPECT_EQ(cp.quarantined_count(), 0u);
  // Both members are re-registered on shard 0 (with the interface-0 subset)
  // BEFORE the publish that re-opens routing to it.
  ASSERT_EQ(applier.ops.size(), 2u);
  EXPECT_EQ(applier.ops[0].kind, "add");
  EXPECT_EQ(applier.ops[0].shard, 0u);
  EXPECT_EQ(applier.ops[0].flow, x);
  EXPECT_EQ(applier.ops[0].willing_subset, std::vector<IfaceId>{0});
  EXPECT_EQ(applier.ops[1].kind, "add");
  EXPECT_EQ(applier.ops[1].flow, y);
  auto reader = cp.reader();
  const auto guard = reader.lock();
  EXPECT_EQ(guard->cls(cp.class_of(x))->shards,
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_FALSE(guard->cls(cp.class_of(y))->quarantined);
}

TEST(ControlPlane, IfaceDownFlipsWillingOnAStillHostingShard) {
  // Class {0, 2}: both interfaces live on shard 0.  Killing interface 0
  // must not drop the shard (interface 2 still hosts the class there) but
  // MUST clear the dead interface's willing bit in the shard scheduler --
  // otherwise miDRR keeps granting turns to a dead link.
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec;
  spec.willing = {0, 2};
  const FlowId f = cp.add_flow(spec);
  applier.ops.clear();

  cp.set_iface_down(0, true);
  ASSERT_EQ(applier.ops.size(), 1u);
  EXPECT_EQ(applier.ops[0].kind, "willing-");
  EXPECT_EQ(applier.ops[0].shard, 0u);
  EXPECT_EQ(applier.ops[0].willing_subset, std::vector<IfaceId>{0});
  {
    auto reader = cp.reader();
    const auto guard = reader.lock();
    EXPECT_EQ(guard->cls(cp.class_of(f))->shards,
              std::vector<std::uint32_t>{0});
  }

  applier.ops.clear();
  cp.set_iface_down(0, false);
  ASSERT_EQ(applier.ops.size(), 1u);
  EXPECT_EQ(applier.ops[0].kind, "willing+");
  EXPECT_EQ(applier.ops[0].willing_subset, std::vector<IfaceId>{0});
}

TEST(ControlPlane, IfaceDownIsIdempotentAndValidated) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec{.willing = {0}};
  cp.add_flow(spec);
  EXPECT_THROW(cp.set_iface_down(9, true), PreconditionError);
  cp.set_iface_down(0, true);
  const std::uint64_t v = cp.version();
  applier.ops.clear();
  cp.set_iface_down(0, true);  // already down: no publish, no ops
  EXPECT_TRUE(applier.ops.empty());
  EXPECT_EQ(cp.version(), v);
}

TEST(ControlPlane, FlowsAddedWhileIfaceIsDownRouteAroundIt) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  cp.set_iface_down(0, true);
  RtFlowSpec spec{.willing = {0, 1}};
  const FlowId f = cp.add_flow(spec);
  ASSERT_EQ(applier.ops.size(), 1u);
  EXPECT_EQ(applier.ops[0].kind, "add");
  EXPECT_EQ(applier.ops[0].shard, 1u) << "dead interface's shard is skipped";
  auto reader = cp.reader();
  const auto guard = reader.lock();
  EXPECT_EQ(guard->cls(cp.class_of(f))->shards, std::vector<std::uint32_t>{1});
}

TEST(ControlPlane, LiveFlowsScansTheDirectory) {
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 16);
  RtFlowSpec spec{.willing = {0}};
  const FlowId a = cp.add_flow(spec);
  const FlowId b = cp.add_flow(spec);
  const FlowId c = cp.add_flow(spec);
  cp.remove_flow(b);
  EXPECT_EQ(cp.live_flows(), (std::vector<FlowId>{a, c}));
  EXPECT_EQ(cp.flow_count(), 2u);
}

TEST(ControlPlaneSwap, ReadersNeverSeeATornConfiguration) {
  // The writer cycles one flow (1, {0}) -> (2, {0}) -> (2, {0, 1}) ->
  // (2, {0}) -> (1, {0}), one control-plane call per step; each step moves
  // the flow between interned classes.  Every PUBLISHED snapshot therefore
  // contains exactly one populated class, and its (weight, willing) pair is
  // one of the three published states -- the state (1, {0, 1}) never
  // exists.  Reader threads continuously validate whichever snapshot they
  // hold; seeing the never-published mix, a live class without members, or
  // more than one populated class means a torn read.  Under TSan this
  // doubles as the data-race check on the RCU cell.
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 4);
  RtFlowSpec spec{.weight = 1.0, .willing = {0}};
  const FlowId f = cp.add_flow(spec);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      auto reader = cp.reader();
      while (!stop.load(std::memory_order_acquire)) {
        const auto guard = reader.lock();
        if (guard->live.size() != 1) {
          ++torn;  // exactly one class holds the flow in every published state
          continue;
        }
        const SnapshotClass& entry = guard->entry(guard->live[0]);
        if (!entry.live || entry.members != 1) {
          ++torn;
          continue;
        }
        const bool narrow =  // willing {0}: weight may be mid-cycle 1 or 2
            entry.willing == std::vector<IfaceId>{0} &&
            (entry.weight == 1.0 || entry.weight == 2.0);
        const bool wide =    // willing {0, 1} only ever published with 2
            entry.weight == 2.0 &&
            entry.willing == (std::vector<IfaceId>{0, 1});
        if (!(narrow || wide)) ++torn;
      }
    });
  }

  for (int i = 0; i < 100; ++i) {
    cp.set_weight(f, 2.0);
    cp.set_willing(f, 1, true);   // now (2.0, {0, 1})
    cp.set_willing(f, 1, false);
    cp.set_weight(f, 1.0);        // back to (1.0, {0})
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST(ControlPlaneSwap, TornWindowExistsMidUpdate) {
  // Sanity check OF THE TEST ABOVE: between set_weight and set_willing the
  // intermediate (2.0, {0}) configuration IS visible -- the atomicity unit
  // is one control-plane call, not a transaction.  This pins the published
  // intermediate state so the previous test is known to be discriminating.
  RecordingApplier applier;
  ControlPlane cp(applier, two_shards(), 4);
  RtFlowSpec spec{.weight = 1.0, .willing = {0}};
  const FlowId f = cp.add_flow(spec);
  cp.set_weight(f, 2.0);
  auto reader = cp.reader();
  const auto guard = reader.lock();
  const SnapshotClass* entry = guard->cls(cp.class_of(f));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->weight, 2.0);
  EXPECT_EQ(entry->willing, std::vector<IfaceId>{0});
}

TEST(ControlPlaneSwap, MovedMembersStayRoutableThroughEveryPublish) {
  // A 10k-member class is reweighted back and forth while a one-member
  // class flips weight (move_member emptying its source class).  A
  // resolver thread keeps resolving members the way IngressPort does:
  // enter the critical section, load the directory word, look the class up
  // in the held snapshot.  Growth before shrink means a registered member
  // always resolves to a routed class -- the source class stays routed
  // until the directory re-points, then a second publish retires it.
  constexpr std::size_t kMembers = 10'000;
  NullApplier applier;
  ControlPlane cp(applier, two_shards(), kMembers + 1);
  ClassSpec spec{.willing = {0, 1}};
  const FlowId first = cp.add_members(spec, kMembers);
  ClassSpec single{.willing = {0}};
  const FlowId loner = cp.add_flow(single);
  ASSERT_EQ(loner, first + kMembers);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> unroutable{0};
  std::thread resolver([&] {
    auto reader = cp.reader();
    std::uint64_t n = 0;
    std::uint64_t misses = 0;
    FlowId f = first;
    while (!stop.load(std::memory_order_acquire)) {
      const auto guard = reader.lock();
      const ClassId cls = cp.class_of(f);
      if (cls == kInvalidClass || guard->cls(cls) == nullptr) ++misses;
      ++n;
      f = f == loner ? first : f + 1;
    }
    resolved.store(n);
    unroutable.store(misses);
  });

  ClassId cls = cp.class_of(first);
  for (int i = 0; i < 200; ++i) {
    const double weight = i % 2 == 0 ? 2.0 : 1.0;
    cls = cp.reweight_class(cls, weight);
    cp.set_weight(loner, weight);
  }
  stop.store(true, std::memory_order_release);
  resolver.join();
  EXPECT_GT(resolved.load(), 0u);
  EXPECT_EQ(unroutable.load(), 0u)
      << "a registered member resolved to a class its snapshot did not route";
  auto reader = cp.reader();
  const auto guard = reader.lock();
  EXPECT_EQ(guard->live.size(), 2u) << "emptied source classes retired";
  EXPECT_EQ(guard->cls(cls)->members, kMembers);
}

// --- Reference model --------------------------------------------------------

/// The class configuration kept the plain sequential way: one record per
/// class id, one class id per flow.  Deltas apply with the control plane's
/// documented semantics (ids dense in order of first sight and never
/// reused, names first-writer-wins, moves and reweights carry the source's
/// name to an unnamed target, a move to the same identity is a no-op), and
/// every published snapshot is derived from it.
class ControlModel {
 public:
  using Key = std::tuple<double, std::vector<IfaceId>, std::uint64_t>;

  struct Class {
    Key key;
    std::string name;
    std::uint64_t members = 0;
  };

  explicit ControlModel(std::vector<std::uint32_t> shard_of_iface)
      : shard_of_iface_(std::move(shard_of_iface)),
        down_(shard_of_iface_.size(), false) {}

  static Key key_of(const ClassSpec& spec) {
    std::vector<IfaceId> willing = spec.willing;
    std::sort(willing.begin(), willing.end());
    willing.erase(std::unique(willing.begin(), willing.end()), willing.end());
    return {spec.weight, willing, spec.queue_capacity_bytes};
  }

  FlowId add_members(const ClassSpec& spec, std::size_t count) {
    const ClassId cid = intern(spec);
    const FlowId first = static_cast<FlowId>(class_of_.size());
    class_of_.insert(class_of_.end(), count, cid);
    classes_[cid].members += count;
    ++version_;
    return first;
  }

  void remove_member(FlowId flow) {
    --classes_[class_of_[flow]].members;
    class_of_[flow] = kInvalidClass;
    ++version_;
  }

  void move_member(FlowId flow, const ClassSpec& spec) {
    const auto it = ids_.find(key_of(spec));
    if (it != ids_.end() && it->second == class_of_[flow]) return;
    const ClassId to = intern(spec);
    --classes_[class_of_[flow]].members;
    ++classes_[to].members;
    class_of_[flow] = to;
    ++version_;
  }

  ClassId reweight_class(ClassId cls, double weight) {
    const auto [old_weight, willing, capacity] = classes_[cls].key;
    if (old_weight == weight) return cls;
    const ClassId to = intern({.weight = weight,
                               .willing = willing,
                               .name = classes_[cls].name,
                               .queue_capacity_bytes = capacity});
    for (ClassId& c : class_of_) {
      if (c == cls) c = to;
    }
    classes_[to].members += classes_[cls].members;
    classes_[cls].members = 0;
    ++version_;
    return to;
  }

  void set_iface_down(IfaceId iface, bool down) {
    if (down_[iface] == down) return;
    down_[iface] = down;
    masked_ = true;
    ++version_;
  }

  /// The snapshot entry the control plane must publish for `cls`.
  SnapshotClass expected(ClassId cls) const {
    const Class& c = classes_[cls];
    SnapshotClass e;
    e.id = cls;
    e.live = c.members > 0;
    e.weight = std::get<0>(c.key);
    e.willing = std::get<1>(c.key);
    e.queue_capacity_bytes = std::get<2>(c.key);
    e.members = c.members;
    e.name = c.name;
    if (e.live) {
      for (const IfaceId j : e.willing) {
        if (!down_[j]) e.shards.push_back(shard_of_iface_[j]);
      }
      std::sort(e.shards.begin(), e.shards.end());
      e.shards.erase(std::unique(e.shards.begin(), e.shards.end()),
                     e.shards.end());
      e.quarantined = e.shards.empty() && !e.willing.empty();
    }
    return e;
  }

  std::vector<ClassId> live() const {
    std::vector<ClassId> out;
    for (ClassId c = 0; c < classes_.size(); ++c) {
      if (classes_[c].members > 0) out.push_back(c);
    }
    return out;
  }

  const std::vector<ClassId>& class_of() const { return class_of_; }
  std::size_t class_count() const { return classes_.size(); }
  std::uint64_t version() const { return version_; }
  std::vector<bool> iface_down() const {
    return masked_ ? down_ : std::vector<bool>{};
  }

 private:
  ClassId intern(const ClassSpec& spec) {
    const auto [it, fresh] = ids_.try_emplace(
        key_of(spec), static_cast<ClassId>(classes_.size()));
    if (fresh) classes_.push_back({it->first, {}, 0});
    Class& c = classes_[it->second];
    if (c.name.empty()) c.name = spec.name;
    return it->second;
  }

  std::vector<std::uint32_t> shard_of_iface_;
  std::vector<bool> down_;
  bool masked_ = false;  // the snapshot carries no mask until the first call
  std::map<Key, ClassId> ids_;
  std::vector<Class> classes_;     // by ClassId
  std::vector<ClassId> class_of_;  // by FlowId; kInvalidClass once removed
  std::uint64_t version_ = 1;
};

/// Every field of every class entry, the live list and the version, folded
/// into one FNV-1a word.
std::uint64_t fingerprint(const RuntimeSnapshot& snap) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  mix(snap.version);
  for (const ClassId id : snap.live) mix(id);
  for (ClassId id = 0; id < snap.class_slots(); ++id) {
    const SnapshotClass& e = snap.entry(id);
    mix(e.id);
    mix(e.live);
    mix(e.retiring);
    mix(e.quarantined);
    mix(std::bit_cast<std::uint64_t>(e.weight));
    mix(e.members);
    mix(e.queue_capacity_bytes);
    mix(e.willing.size());
    for (const IfaceId j : e.willing) mix(j);
    mix(e.shards.size());
    for (const std::uint32_t k : e.shards) mix(k);
    for (const char ch : e.name) mix(static_cast<unsigned char>(ch));
  }
  return h;
}

void expect_matches_model(ControlPlane& cp, const ControlModel& model,
                          std::size_t step) {
  SCOPED_TRACE("after delta " + std::to_string(step));
  auto reader = cp.reader();
  const auto guard = reader.lock();
  const RuntimeSnapshot& snap = *guard;
  ASSERT_EQ(snap.version, model.version());
  ASSERT_EQ(snap.live, model.live());
  ASSERT_EQ(snap.iface_down, model.iface_down());
  ASSERT_GE(snap.class_slots(), model.class_count());
  for (ClassId id = 0; id < snap.class_slots(); ++id) {
    const SnapshotClass& got = snap.entry(id);
    if (id >= model.class_count()) {
      ASSERT_EQ(got.id, kInvalidClass) << "unminted slot " << id;
      ASSERT_EQ(snap.cls(id), nullptr) << "unminted slot " << id;
      continue;
    }
    const SnapshotClass want = model.expected(id);
    ASSERT_EQ(got.id, want.id);
    ASSERT_EQ(got.live, want.live) << "class " << id;
    ASSERT_FALSE(got.retiring) << "class " << id;
    ASSERT_EQ(got.quarantined, want.quarantined) << "class " << id;
    ASSERT_EQ(got.weight, want.weight) << "class " << id;
    ASSERT_EQ(got.members, want.members) << "class " << id;
    ASSERT_EQ(got.willing, want.willing) << "class " << id;
    ASSERT_EQ(got.shards, want.shards) << "class " << id;
    ASSERT_EQ(got.name, want.name) << "class " << id;
    ASSERT_EQ(got.queue_capacity_bytes, want.queue_capacity_bytes);
    ASSERT_EQ(snap.cls(id) != nullptr, want.live) << "class " << id;
  }
  const std::vector<ClassId>& class_of = model.class_of();
  for (FlowId f = 0; f < class_of.size(); ++f) {
    ASSERT_EQ(cp.class_of(f), class_of[f]) << "flow " << f;
  }
  ASSERT_EQ(cp.class_count(), snap.live.size());
}

TEST(ControlDeltaModel, PublishesMatchTheModelAndNeverChangeUnderAReader) {
  // Seeded random deltas over 6 interfaces on 3 shards, 15 weights and
  // every Pi row: a few hundred classes, so deltas land in several class
  // blocks, with batches of up to 120 members so reweights move big
  // classes.  After every delta a fresh guard's snapshot must equal the
  // model.  Meanwhile reader threads fingerprint the snapshot they hold
  // when the guard opens and again just before it closes: a writer that
  // touches a block after publishing it changes a snapshot under a reader
  // (and under TSan, races with it).
  constexpr std::size_t kIfaces = 6;
  constexpr std::size_t kMaxFlows = 8000;
  constexpr std::size_t kDeltas = 1500;
  const std::vector<std::uint32_t> shard_of_iface{0, 1, 2, 0, 1, 2};

  for (const std::uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    NullApplier applier;
    ControlPlane cp(applier, shard_of_iface, kMaxFlows);
    ControlModel model(shard_of_iface);

    std::atomic<std::uint64_t> held{0};
    std::atomic<std::uint64_t> changed{0};
    // jthreads: a failed ASSERT below returns early, and still stops and
    // joins the readers.
    std::vector<std::jthread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&](const std::stop_token& stop) {
        auto reader = cp.reader();
        while (!stop.stop_requested()) {
          const auto guard = reader.lock();
          const std::uint64_t opened = fingerprint(*guard);
          std::this_thread::yield();
          if (fingerprint(*guard) != opened) ++changed;
          ++held;
        }
      });
    }

    std::mt19937_64 rng(seed);
    const auto pick = [&rng](std::size_t n) {
      return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    const auto random_spec = [&] {
      ClassSpec spec;
      spec.weight = 1.0 + 0.5 * static_cast<double>(pick(15));
      for (IfaceId j = 0; j < kIfaces; ++j) {
        if (pick(2) == 1) spec.willing.push_back(j);
      }
      if (pick(3) == 0) spec.name = "n" + std::to_string(pick(1000));
      return spec;
    };
    std::vector<FlowId> live_flows;
    std::size_t minted = 0;
    std::size_t big_reweights = 0;     // of classes with 20+ members
    std::size_t quarantined_seen = 0;  // live quarantined classes, summed
    for (std::size_t step = 0; step < kDeltas; ++step) {
      const std::size_t op = pick(100);
      if (minted < kMaxFlows && (live_flows.empty() || op < 35)) {
        const std::size_t count = std::min(
            pick(10) == 0 ? 20 + pick(101) : 1, kMaxFlows - minted);
        const ClassSpec spec = random_spec();
        const FlowId first = cp.add_members(spec, count);
        ASSERT_EQ(first, model.add_members(spec, count));
        for (std::size_t k = 0; k < count; ++k) {
          live_flows.push_back(first + static_cast<FlowId>(k));
        }
        minted += count;
      } else if (live_flows.empty()) {
        break;  // arena spent and every member removed
      } else if (op < 55) {
        const std::size_t i = pick(live_flows.size());
        const FlowId f = live_flows[i];
        live_flows[i] = live_flows.back();
        live_flows.pop_back();
        cp.remove_member(f);
        model.remove_member(f);
      } else if (op < 75) {
        const FlowId f = live_flows[pick(live_flows.size())];
        const ClassSpec spec = random_spec();
        cp.move_member(f, spec);
        model.move_member(f, spec);
      } else if (op < 95) {
        // The class of a random live flow: big classes are picked most.
        const ClassId cls = cp.class_of(live_flows[pick(live_flows.size())]);
        const double weight = 1.0 + 0.5 * static_cast<double>(pick(15));
        if (model.expected(cls).members >= 20) ++big_reweights;
        ASSERT_EQ(cp.reweight_class(cls, weight),
                  model.reweight_class(cls, weight));
      } else {
        const auto iface = static_cast<IfaceId>(pick(kIfaces));
        const bool down = pick(2) == 0;
        cp.set_iface_down(iface, down);
        model.set_iface_down(iface, down);
      }
      expect_matches_model(cp, model, step);
      if (HasFatalFailure()) break;
      for (const ClassId c : model.live()) {
        if (model.expected(c).quarantined) ++quarantined_seen;
      }
    }
    readers.clear();  // stop and join
    EXPECT_GE(model.class_count(), 200u) << "deltas must span several blocks";
    EXPECT_GT(big_reweights, 0u);
    EXPECT_GT(quarantined_seen, 0u) << "no delta quarantined a class";
    EXPECT_GT(held.load(), 0u);
    EXPECT_EQ(changed.load(), 0u)
        << "a published snapshot changed while a reader held it";
    if (HasFatalFailure()) return;
  }
}

TEST(Rcu, PublishWaitsForInCriticalSectionReader) {
  // A reader inside a critical section pins the old snapshot: publish()
  // from another thread must not return (and must not delete the old
  // value) until the guard drops.
  Rcu<int> cell(std::make_unique<int>(1));
  auto reader = Rcu<int>::Reader(cell);
  std::atomic<bool> published{false};

  auto guard = std::make_unique<Rcu<int>::Reader::Guard>(reader.lock());
  EXPECT_EQ(**guard, 1);
  std::thread writer([&] {
    cell.publish(std::make_unique<int>(2));
    published.store(true, std::memory_order_release);
  });
  // The writer must be stuck in the grace period while we hold the guard.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(published.load(std::memory_order_acquire));
  EXPECT_EQ(**guard, 1) << "old snapshot must stay valid while pinned";
  guard.reset();  // leave the critical section
  writer.join();
  EXPECT_TRUE(published.load());
  EXPECT_EQ(*reader.lock(), 2);
}

TEST(Rcu, SlotsAreReclaimedWhenReadersRetire) {
  Rcu<int> cell(std::make_unique<int>(0));
  for (std::size_t round = 0; round < 3; ++round) {
    std::vector<Rcu<int>::Reader> readers;
    for (std::size_t i = 0; i < Rcu<int>::kMaxReaders; ++i) {
      readers.emplace_back(cell);  // would throw if slots leaked
    }
    EXPECT_THROW(Rcu<int>::Reader extra(cell), PreconditionError);
  }
}

}  // namespace
}  // namespace midrr::rt
