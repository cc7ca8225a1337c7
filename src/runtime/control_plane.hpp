// ControlPlane: the runtime's slow path, redesigned around FLOW CLASSES.
//
// Flows sharing one preference row Pi, one weight phi, and one queue bound
// are interned into a class (flow/class_table.hpp); the published
// configuration (RuntimeSnapshot) describes CLASSES, not flows, so its size
// never depends on how many flows are registered.  Per-flow state shrinks
// to one lock-free directory word mapping FlowId -> ClassId; producers
// resolve a packet's route as flow -> class -> hosting shards.
//
// Mutations are CLASS DELTAS (ControlDelta): add members to a class, remove
// a member, move a member between classes, reweight a whole class.  Each
// delta applies its shard-side changes and then publishes ONE new snapshot;
// registering a million same-class flows via add_members(spec, 1'000'000)
// costs one publish.  The flow-level veneer (add_flow / remove_flow /
// set_weight / set_willing) is expressed in those deltas, so existing
// callers keep working while paying class-level publish costs.
//
// A publish costs what its delta touched, not the size of the table.  The
// snapshot keeps its class entries in fixed blocks of
// RuntimeSnapshot::kBlockClasses that successive snapshots share by
// reference count: publishing copies one pointer per block (plus the live-id
// list), and the writer's working copy clones a block only on its first
// write after that block was published.  Every writer path reaches an entry
// through one mutable accessor (mutable_class), and no reference into the
// working copy is held across a publish -- after it, the block belongs to
// readers and the next write must clone it again.
//
// The paper's Section 4 requires that preference dynamics never disturb
// in-flight scheduling; here that translates to: producers and workers
// read a consistent class snapshot without blocking, and an update becomes
// visible as one atomic pointer swap -- a reader sees either the whole old
// configuration or the whole new one, never a torn mix.
//
// The control plane does not touch schedulers directly; it drives a
// ShardApplier (implemented by Runtime) so the registry/diff logic is unit
// testable without threads.  Shards keep PER-FLOW state (each member has
// its own queue there), but a delta registers a class's members with one
// call per hosting shard, so a shard lock is taken once per (class, shard)
// a delta registers on, not once per member.  Update ordering:
//   * member/coverage growth: apply to shards FIRST, then publish, then
//     point the directory at the class -- a producer can only route a
//     packet once the shard knows the flow AND the snapshot knows the
//     class.
//   * member/coverage shrink: clear the directory, publish, THEN drop the
//     flow from shards -- producers stop offering before a shard forgets
//     the flow; packets already sitting in ingress rings for a forgotten
//     flow are dropped by the fan-in stage (counted, never fatal).
//   * member moves (move_member, reweight_class) follow both rules: the
//     first publish makes the target class live while the source class,
//     even if the move empties it, still routes (`retiring`); then the
//     directory re-points the moved members; then, if the source emptied,
//     a second publish retires it.  Every snapshot a reader can hold
//     routes whichever class the directory names, provided the reader
//     enters its critical section BEFORE loading the directory word (a
//     publish waits out readers of the snapshot it replaces).
// Writers are serialized by an internal mutex; readers never block.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "flow/class_table.hpp"
#include "flow/ids.hpp"
#include "runtime/rcu.hpp"

namespace midrr::rt {

/// Class identity + registration options for the runtime, with GLOBAL
/// interface ids (the runtime translates to per-shard scheduler ids).
/// Flows registered with equal (weight, willing, queue_capacity_bytes)
/// land in the same class; `name` labels the class (first writer wins) and
/// is not part of its identity.
struct ClassSpec {
  double weight = 1.0;
  std::vector<IfaceId> willing{};  ///< global interface ids
  std::string name{};
  std::uint64_t queue_capacity_bytes = 512 * 1024;  ///< per member per shard; 0 = unbounded
};

/// Flow-level registration is the same record: a flow is a one-member use
/// of its class.  Kept as an alias so shard-side code (which is per-flow)
/// and veneer callers share the type.
using RtFlowSpec = ClassSpec;

/// One class's entry in the published configuration.
struct SnapshotClass {
  ClassId id = kInvalidClass;
  bool live = false;  ///< has at least one member
  /// Emptied by a member move whose directory re-point has not happened
  /// yet: not live (members moved to the target class), but still routed
  /// for the one publish that precedes the re-point.
  bool retiring = false;
  /// Live with a non-empty Pi row but no LIVE willing interface: members
  /// keep their preferences and ids, producers' offers are rejected and
  /// counted (never silently dropped), and the next revive re-steers the
  /// whole class back onto the data plane.
  bool quarantined = false;
  double weight = 1.0;              ///< per member
  std::uint64_t members = 0;
  std::vector<IfaceId> willing{};       ///< global iface ids, ascending
  std::vector<std::uint32_t> shards{};  ///< shards hosting the class, ascending
  std::string name{};
  std::uint64_t queue_capacity_bytes = 512 * 1024;
};

/// An immutable configuration snapshot.  Built by the control plane,
/// published via RCU, read lock-free by producers and workers.  Never
/// O(flows): flow membership lives in the control plane's directory
/// (ControlPlane::class_of), not here.  Class entries live in blocks of
/// kBlockClasses that later snapshots share until the control plane writes
/// one of their entries, so a publish copies one pointer per block, the
/// live-id list and the blocks its delta touched; readers reach entries
/// through entry() and cls() only.
struct RuntimeSnapshot {
  static constexpr std::size_t kBlockClasses = 64;
  using ClassBlock = std::array<SnapshotClass, kBlockClasses>;

  std::uint64_t version = 0;
  std::vector<ClassId> live{};  ///< live class ids, ascending
  std::size_t iface_count = 0;
  /// Administratively-dead interfaces (supervisor verdicts); empty means
  /// all up.  Indexed by global interface id when non-empty.
  std::vector<bool> iface_down{};

  /// One past the largest ClassId this snapshot holds an entry for (a
  /// whole number of blocks; unminted slots read as default entries).
  std::size_t class_slots() const { return blocks_.size() * kBlockClasses; }

  /// Any class's entry, routed or not.  Requires id < class_slots().
  const SnapshotClass& entry(ClassId id) const {
    return (*blocks_[id / kBlockClasses])[id % kBlockClasses];
  }

  /// The routing entry of a live or retiring class; nullptr otherwise.
  const SnapshotClass* cls(ClassId id) const {
    if (id >= class_slots()) return nullptr;
    const SnapshotClass& e = entry(id);
    return e.live || e.retiring ? &e : nullptr;
  }

 private:
  friend class ControlPlane;
  /// Indexed by ClassId / kBlockClasses.  A block is shared with every
  /// snapshot published since its last write and is never written again
  /// once published (ControlPlane::mutable_class clones it first).
  std::vector<std::shared_ptr<ClassBlock>> blocks_{};
};

/// One mutation of the class configuration, reified.  apply() is the
/// single entry point scripts/tools drive the control plane through; the
/// named methods below are the same deltas with direct signatures.
struct ControlDelta {
  enum class Kind {
    kAddMembers,     ///< register `count` flows under `spec`'s class
    kRemoveMember,   ///< deregister flow `flow`
    kMoveMember,     ///< re-register flow `flow` under `spec`'s class
    kReweightClass,  ///< set class `cls`'s per-member weight to `weight`
  };
  Kind kind = Kind::kAddMembers;
  ClassSpec spec{};            ///< kAddMembers / kMoveMember: target class
  std::size_t count = 1;       ///< kAddMembers: number of flows to mint
  FlowId flow = kInvalidFlow;  ///< kRemoveMember / kMoveMember
  ClassId cls = kInvalidClass; ///< kReweightClass
  double weight = 1.0;         ///< kReweightClass
};

/// What the control plane needs from the data plane: apply one mutation to
/// one shard's scheduler (under that shard's lock).  Implemented by
/// Runtime; mocked in tests.
class ShardApplier {
 public:
  virtual ~ShardApplier() = default;

  /// Registers every flow in `flows` in `shard` with the subset of
  /// `willing` hosted there: one call -- one shard-lock pass, one scheduler
  /// spec -- per class and shard a delta registers on, however many
  /// members it carries.
  virtual void shard_add_flows(std::uint32_t shard,
                               std::span<const FlowId> flows,
                               const RtFlowSpec& spec,
                               const std::vector<IfaceId>& willing_subset) = 0;
  virtual void shard_remove_flow(std::uint32_t shard, FlowId flow) = 0;
  virtual void shard_set_weight(std::uint32_t shard, FlowId flow,
                                double weight) = 0;
  virtual void shard_set_willing(std::uint32_t shard, FlowId flow,
                                 IfaceId iface, bool value) = 0;
};

class ControlPlane {
 public:
  /// `shard_of_iface[j]` maps global interface j to its shard.
  ControlPlane(ShardApplier& applier, std::vector<std::uint32_t> shard_of_iface,
               std::size_t max_flows);

  // --- Class deltas (any thread; serialized internally) -------------------

  /// Registers `count` flows as members of the class identified by `spec`
  /// (interned on first sight, revived if it had emptied).  Returns the
  /// first of `count` consecutive dense flow ids; ids are never reused
  /// (same contract as Preferences).  ONE publish regardless of `count`.
  FlowId add_members(const ClassSpec& spec, std::size_t count = 1);

  /// Deregisters one member; its queued packets in shards are discarded
  /// (counted as straggler drops at fan-in).  The class retires when its
  /// last member leaves and revives under the same id on a matching
  /// add_members.
  void remove_member(FlowId flow);

  /// Re-registers an existing member under `spec`'s class, preserving the
  /// flow id.  Shard coverage is diffed: queues survive on shards common
  /// to both classes; departed shards discard, new shards start empty.
  void move_member(FlowId flow, const ClassSpec& spec);

  /// Changes a whole class's per-member weight in one delta: every member
  /// moves to the class identified by the reweighted key (minted fresh, or
  /// MERGED into an existing class when the key collides).  Returns the
  /// members' new class id.  Shard queues survive (same Pi row, same
  /// hosting shards).
  ClassId reweight_class(ClassId cls, double weight);

  /// Applies one reified delta; returns the first minted flow id for
  /// kAddMembers, kInvalidFlow otherwise.
  FlowId apply(const ControlDelta& delta);

  // --- Flow-level veneer (the pre-class API, expressed as deltas) ---------

  /// Registers one flow (one-member delta).  Returns its global id.
  FlowId add_flow(const RtFlowSpec& spec) { return add_members(spec, 1); }

  void remove_flow(FlowId flow) { remove_member(flow); }

  /// phi update for ONE flow: moves it into the class with the new weight.
  void set_weight(FlowId flow, double weight);

  /// Pi update for ONE flow: moves it into the class with the edited row.
  void set_willing(FlowId flow, IfaceId iface, bool value);

  /// Marks a global interface administratively dead (or revives it) and
  /// re-steers every affected CLASS in ONE publish: hosting shards are
  /// recomputed over live willing interfaces only, newly-covered shards
  /// are registered (per member) before the publish, shards left without
  /// any live willing interface are dropped after it (their queued packets
  /// become counted straggler drops), and classes whose entire Pi row is
  /// dead are quarantined -- preferences kept, offers rejected upstream --
  /// until a revive re-steers them back.  Pi itself is never edited: the
  /// supervisor masks reality, the user still owns preferences (Section
  /// 4's contract).
  void set_iface_down(IfaceId iface, bool down);

  bool iface_down(IfaceId iface) const;

  /// Number of currently-quarantined live flows, i.e. summed members of
  /// quarantined classes (telemetry gauge; O(classes)).
  std::size_t quarantined_count() const;

  // --- Read side ---------------------------------------------------------

  /// The class a flow currently belongs to; kInvalidClass if the flow is
  /// not registered.  Lock-free (one acquire load of the directory word);
  /// safe from any thread, any rate.
  ClassId class_of(FlowId flow) const {
    if (flow >= max_flows_) return kInvalidClass;
    const std::uint32_t v = dir_[flow].load(std::memory_order_acquire);
    return v == 0 ? kInvalidClass : static_cast<ClassId>(v - 1);
  }

  /// Number of registered flows (lock-free gauge).
  std::size_t flow_count() const {
    return live_flows_.load(std::memory_order_relaxed);
  }

  /// Live flow ids, ascending.  O(max_flows) directory scan -- control
  /// path and epoch-change refreshes only, never per packet.
  std::vector<FlowId> live_flows() const;

  /// Members of one class, ascending.  O(max_flows) scan (control path).
  std::vector<FlowId> members_of(ClassId cls) const;

  /// Claims a reader slot for the calling thread (hold one per thread,
  /// reuse it for every read).
  Rcu<RuntimeSnapshot>::Reader reader() { return Rcu<RuntimeSnapshot>::Reader(cell_); }

  std::uint64_t version() const;

  /// The RCU publication epoch (bumped once per publish).  One uncontended
  /// acquire load -- cheap enough to read per packet.  Producers key their
  /// per-flow route caches on this: a cached route tagged with the current
  /// epoch is as fresh as a snapshot read, up to the instant between the
  /// pointer swap and the epoch bump, where a reader can transiently act on
  /// the previous configuration -- indistinguishable from a packet that was
  /// already in flight, and absorbed by the same straggler-drop path.
  std::uint64_t epoch() const { return cell_.epoch(); }

  std::size_t max_flows() const { return max_flows_; }
  std::size_t iface_count() const { return shard_of_iface_.size(); }

  /// Classes with at least one member (telemetry gauge).
  std::size_t class_count() const;

  /// RCU epoch distance to the slowest in-flight reader (telemetry gauge).
  std::uint64_t max_reader_lag() const { return cell_.max_reader_lag(); }

 private:
  /// Publishes a copy of latest_: one pointer per class block (the blocks
  /// themselves are shared), the live-id list and the interface mask.
  void publish_locked();

  /// The one writable path to a class entry of latest_: clones the entry's
  /// block first when a published snapshot still shares it.  The reference
  /// must not be held across a publish (the block then belongs to readers).
  SnapshotClass& mutable_class(ClassId cls);

  std::vector<std::uint32_t> shards_of(const std::vector<IfaceId>& willing) const;
  std::vector<IfaceId> willing_in_shard(const std::vector<IfaceId>& willing,
                                        std::uint32_t shard) const;
  std::vector<IfaceId> live_subset_locked(
      const std::vector<IfaceId>& willing) const;
  static RtFlowSpec spec_of(const SnapshotClass& entry);

  /// Validates `spec` (positive weight, known interfaces) and returns its
  /// normalized class identity.
  ClassKey key_of(const ClassSpec& spec) const;

  /// Interns `key`'s class in latest_, (re)initializing its snapshot entry
  /// if it is not currently live and naming it `name` if it has no name.
  /// Does not change member count and does not publish.
  ClassId intern_locked(const ClassKey& key, const std::string& name);

  /// Bookkeeping after a membership change: live-list membership and
  /// quarantine state of one class.
  void refresh_liveness_locked(ClassId cls);

  /// Moves `moved` (members of `from`) to class `to` and publishes,
  /// growth before shrink: publish with both classes routed, re-point the
  /// directory, then retire `from` with a second publish if it emptied.
  /// Both publishes carry one version bump (one delta).
  void publish_move_locked(ClassId from, ClassId to,
                           std::span<const FlowId> moved);

  /// Directory write, paired with the live-flow gauge.
  void dir_store(FlowId flow, ClassId cls);
  void dir_clear(FlowId flow);

  ShardApplier& applier_;
  std::vector<std::uint32_t> shard_of_iface_;
  std::size_t max_flows_;
  std::vector<bool> down_;  // guarded by mu_; empty until first set_iface_down

  mutable std::mutex mu_;      // serializes writers; guards latest_ + table_
  // Writer's working copy (source of truth).  Its class blocks are shared
  // with the published snapshot until mutable_class clones them.
  RuntimeSnapshot latest_;
  ClassTable table_;           // ClassKey -> ClassId interning (global ids)
  FlowId next_flow_ = 0;
  // flow -> class + 1; 0 = not registered.  Lock-free readers; writers
  // under mu_.  Sized max_flows once, so readers never race a reallocation.
  std::unique_ptr<std::atomic<std::uint32_t>[]> dir_;
  std::atomic<std::size_t> live_flows_{0};
  Rcu<RuntimeSnapshot> cell_;
};

}  // namespace midrr::rt
