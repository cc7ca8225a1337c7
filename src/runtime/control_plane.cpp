#include "runtime/control_plane.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"

namespace midrr::rt {

namespace {

// Works for shard lists and Pi rows alike (IfaceId is std::uint32_t).
bool contains(const std::vector<std::uint32_t>& sorted, std::uint32_t value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

}  // namespace

ControlPlane::ControlPlane(ShardApplier& applier,
                           std::vector<std::uint32_t> shard_of_iface,
                           std::size_t max_flows)
    : applier_(applier),
      shard_of_iface_(std::move(shard_of_iface)),
      max_flows_(max_flows),
      dir_(std::make_unique<std::atomic<std::uint32_t>[]>(max_flows)),
      cell_(std::make_unique<RuntimeSnapshot>()) {
  MIDRR_REQUIRE(max_flows_ > 0, "max_flows must be positive");
  latest_.iface_count = shard_of_iface_.size();
  latest_.version = 1;
  publish_locked();
}

void ControlPlane::publish_locked() {
  cell_.publish(std::make_unique<const RuntimeSnapshot>(latest_));
}

SnapshotClass& ControlPlane::mutable_class(ClassId cls) {
  using Block = RuntimeSnapshot::ClassBlock;
  std::shared_ptr<Block>& block =
      latest_.blocks_[cls / RuntimeSnapshot::kBlockClasses];
  // Block pointers are copied and dropped only under mu_ (by publishes and
  // the snapshots they retire; readers hold raw snapshot pointers), so
  // use_count is exact: above 1, some published snapshot shares the block.
  if (block.use_count() > 1) block = std::make_shared<Block>(*block);
  return (*block)[cls % RuntimeSnapshot::kBlockClasses];
}

std::uint64_t ControlPlane::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_.version;
}

std::size_t ControlPlane::class_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_.live.size();
}

std::vector<std::uint32_t> ControlPlane::shards_of(
    const std::vector<IfaceId>& willing) const {
  std::vector<std::uint32_t> shards;
  for (const IfaceId j : willing) {
    MIDRR_REQUIRE(j < shard_of_iface_.size(), "unknown interface in Pi row");
    shards.push_back(shard_of_iface_[j]);
  }
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

std::vector<IfaceId> ControlPlane::willing_in_shard(
    const std::vector<IfaceId>& willing, std::uint32_t shard) const {
  std::vector<IfaceId> subset;
  for (const IfaceId j : willing) {
    if (shard_of_iface_[j] == shard) subset.push_back(j);
  }
  return subset;
}

std::vector<IfaceId> ControlPlane::live_subset_locked(
    const std::vector<IfaceId>& willing) const {
  if (down_.empty()) return willing;
  std::vector<IfaceId> live;
  for (const IfaceId j : willing) {
    if (!down_[j]) live.push_back(j);
  }
  return live;
}

RtFlowSpec ControlPlane::spec_of(const SnapshotClass& entry) {
  RtFlowSpec spec;
  spec.weight = entry.weight;
  spec.willing = entry.willing;
  spec.name = entry.name;
  spec.queue_capacity_bytes = entry.queue_capacity_bytes;
  return spec;
}

ClassKey ControlPlane::key_of(const ClassSpec& spec) const {
  MIDRR_REQUIRE(spec.weight > 0.0, "class weight must be positive");
  ClassKey key;
  key.weight = spec.weight;
  key.willing = spec.willing;
  key.queue_capacity_bytes = spec.queue_capacity_bytes;
  normalize_key(key);
  shards_of(key.willing);  // validates: throws on unknown interfaces
  return key;
}

ClassId ControlPlane::intern_locked(const ClassKey& key,
                                    const std::string& name) {
  const ClassId cid = table_.intern(key);
  while (latest_.class_slots() <= cid) {
    latest_.blocks_.push_back(
        std::make_shared<RuntimeSnapshot::ClassBlock>());
  }
  const SnapshotClass& current = latest_.entry(cid);
  const bool rename = current.name.empty() && !name.empty();
  if (current.live && !rename) return cid;  // a join writes nothing here
  SnapshotClass& entry = mutable_class(cid);
  if (!entry.live) {
    // Fresh mint or revival: (re)build the snapshot entry from the key.
    entry.id = cid;
    entry.weight = key.weight;
    entry.willing = key.willing;
    entry.queue_capacity_bytes = key.queue_capacity_bytes;
    entry.members = 0;
    const std::vector<IfaceId> live_willing = live_subset_locked(entry.willing);
    entry.shards = shards_of(live_willing);
    entry.quarantined = entry.shards.empty() && !entry.willing.empty();
  }
  if (rename) entry.name = name;
  return cid;
}

void ControlPlane::refresh_liveness_locked(ClassId cls) {
  SnapshotClass& entry = mutable_class(cls);
  const bool was_live = entry.live;
  entry.live = entry.members > 0;
  if (entry.live && !was_live) {
    latest_.live.insert(
        std::lower_bound(latest_.live.begin(), latest_.live.end(), cls), cls);
  } else if (!entry.live && was_live) {
    latest_.live.erase(
        std::find(latest_.live.begin(), latest_.live.end(), cls));
  }
  if (!entry.live && !entry.retiring) {
    entry.quarantined = false;
    entry.shards.clear();
  }
}

void ControlPlane::publish_move_locked(ClassId from, ClassId to,
                                       std::span<const FlowId> moved) {
  mutable_class(to).members += moved.size();
  SnapshotClass& src = mutable_class(from);
  MIDRR_ASSERT(src.members >= moved.size(), "moving more members than held");
  src.members -= moved.size();
  // An emptied source leaves the live list but keeps routing until the
  // directory stops naming it.
  const bool retiring = src.members == 0;
  src.retiring = retiring;
  refresh_liveness_locked(to);
  refresh_liveness_locked(from);
  ++latest_.version;
  publish_locked();  // `src` now points into a published block: dead
  for (const FlowId f : moved) dir_store(f, to);
  if (retiring) {
    mutable_class(from).retiring = false;
    refresh_liveness_locked(from);
    publish_locked();
  }
}

void ControlPlane::dir_store(FlowId flow, ClassId cls) {
  const std::uint32_t prev =
      dir_[flow].exchange(cls + 1, std::memory_order_release);
  if (prev == 0) live_flows_.fetch_add(1, std::memory_order_relaxed);
}

void ControlPlane::dir_clear(FlowId flow) {
  const std::uint32_t prev = dir_[flow].exchange(0, std::memory_order_release);
  if (prev != 0) live_flows_.fetch_sub(1, std::memory_order_relaxed);
}

std::vector<FlowId> ControlPlane::live_flows() const {
  std::vector<FlowId> out;
  out.reserve(live_flows_.load(std::memory_order_relaxed));
  for (FlowId f = 0; f < max_flows_; ++f) {
    if (dir_[f].load(std::memory_order_acquire) != 0) out.push_back(f);
  }
  return out;
}

std::vector<FlowId> ControlPlane::members_of(ClassId cls) const {
  std::vector<FlowId> out;
  for (FlowId f = 0; f < max_flows_; ++f) {
    if (dir_[f].load(std::memory_order_acquire) == cls + 1) out.push_back(f);
  }
  return out;
}

FlowId ControlPlane::add_members(const ClassSpec& spec, std::size_t count) {
  MIDRR_REQUIRE(count > 0, "add_members of zero flows");
  std::lock_guard<std::mutex> lock(mu_);
  const ClassKey key = key_of(spec);  // validates weight + interfaces
  // Subtracting keeps the bound exact for any count (next_flow_ never
  // exceeds max_flows_); an addition would wrap near SIZE_MAX.
  MIDRR_REQUIRE(count <= max_flows_ - next_flow_,
                "flow arena exhausted (RuntimeOptions::max_flows)");
  const ClassId cid = intern_locked(key, spec.name);
  SnapshotClass& entry = mutable_class(cid);  // dead after the publish
  const std::vector<IfaceId> live_willing = live_subset_locked(entry.willing);
  const RtFlowSpec reg = spec_of(entry);
  const FlowId first = next_flow_;
  std::vector<FlowId> flows(count);
  std::iota(flows.begin(), flows.end(), first);

  // Data plane first: every hosting shard must know a flow before any
  // producer can route a packet to it.  One call per hosting shard carries
  // the whole batch.
  for (const std::uint32_t s : entry.shards) {
    applier_.shard_add_flows(s, flows, reg, willing_in_shard(live_willing, s));
  }
  next_flow_ += static_cast<FlowId>(count);
  entry.members += count;
  refresh_liveness_locked(cid);
  ++latest_.version;
  publish_locked();  // ONE publish for the whole batch

  // Directory last: a producer that resolves flow -> class must find the
  // class in the snapshot it reads.
  for (const FlowId f : flows) dir_store(f, cid);
  return first;
}

void ControlPlane::remove_member(FlowId flow) {
  std::lock_guard<std::mutex> lock(mu_);
  const ClassId cid = class_of(flow);
  MIDRR_REQUIRE(cid != kInvalidClass, "removing unknown flow");

  // Directory first (producers stop resolving the flow), then the publish
  // bumps the epoch, invalidating cached routes; stragglers already queued
  // get dropped by the fan-in stage.
  dir_clear(flow);
  const std::vector<std::uint32_t> shards = latest_.entry(cid).shards;
  --mutable_class(cid).members;
  refresh_liveness_locked(cid);
  ++latest_.version;
  publish_locked();

  for (const std::uint32_t s : shards) applier_.shard_remove_flow(s, flow);
}

void ControlPlane::move_member(FlowId flow, const ClassSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  const ClassId old_cid = class_of(flow);
  MIDRR_REQUIRE(old_cid != kInvalidClass, "moving unknown flow");
  const ClassKey key = key_of(spec);
  // Identical identity: nothing to move, and nothing written (not even a
  // name) that no publish would carry.
  if (table_.find(key) == old_cid) return;
  const ClassId new_cid = intern_locked(key, spec.name);
  // Read-only views of the working copy, dropped before the publish.
  const SnapshotClass& oldc = latest_.entry(old_cid);
  const SnapshotClass& newc = latest_.entry(new_cid);
  const std::vector<IfaceId> old_live = live_subset_locked(oldc.willing);
  const std::vector<IfaceId> new_live = live_subset_locked(newc.willing);

  // Coverage diff.  Queues survive on shards hosting both classes; the
  // flow is re-registered on new-only shards (before the publish) and
  // dropped from old-only shards (after it).
  for (const std::uint32_t s : newc.shards) {
    if (!contains(oldc.shards, s)) {
      applier_.shard_add_flows(s, std::span<const FlowId>(&flow, 1),
                               spec_of(newc), willing_in_shard(new_live, s));
      continue;
    }
    if (newc.weight != oldc.weight) {
      applier_.shard_set_weight(s, flow, newc.weight);
    }
    for (const IfaceId j : willing_in_shard(old_live, s)) {
      if (!contains(new_live, j)) applier_.shard_set_willing(s, flow, j, false);
    }
    for (const IfaceId j : willing_in_shard(new_live, s)) {
      if (!contains(old_live, j)) applier_.shard_set_willing(s, flow, j, true);
    }
  }

  const std::vector<std::uint32_t> old_shards = oldc.shards;
  const std::vector<std::uint32_t> new_shards = newc.shards;
  publish_move_locked(old_cid, new_cid, std::span<const FlowId>(&flow, 1));

  for (const std::uint32_t s : old_shards) {
    if (!contains(new_shards, s)) applier_.shard_remove_flow(s, flow);
  }
}

ClassId ControlPlane::reweight_class(ClassId cls, double weight) {
  MIDRR_REQUIRE(weight > 0.0, "class weight must be positive");
  std::lock_guard<std::mutex> lock(mu_);
  MIDRR_REQUIRE(latest_.cls(cls) != nullptr, "reweighting unknown class");
  if (latest_.entry(cls).weight == weight) return cls;

  ClassSpec spec = spec_of(latest_.entry(cls));
  spec.weight = weight;
  const std::vector<FlowId> members = members_of(cls);
  // Mint, revive, or MERGE.
  const ClassId target = intern_locked(key_of(spec), spec.name);

  // Same Pi row => same hosting shards; every member's queue survives, only
  // its scheduler weight changes.
  for (const FlowId f : members) {
    for (const std::uint32_t s : latest_.entry(target).shards) {
      applier_.shard_set_weight(s, f, weight);
    }
  }
  publish_move_locked(cls, target, members);  // ONE delta for the whole class
  return target;
}

FlowId ControlPlane::apply(const ControlDelta& delta) {
  switch (delta.kind) {
    case ControlDelta::Kind::kAddMembers:
      return add_members(delta.spec, delta.count);
    case ControlDelta::Kind::kRemoveMember:
      remove_member(delta.flow);
      return kInvalidFlow;
    case ControlDelta::Kind::kMoveMember:
      move_member(delta.flow, delta.spec);
      return kInvalidFlow;
    case ControlDelta::Kind::kReweightClass:
      reweight_class(delta.cls, delta.weight);
      return kInvalidFlow;
  }
  MIDRR_REQUIRE(false, "unknown delta kind");
  return kInvalidFlow;
}

void ControlPlane::set_weight(FlowId flow, double weight) {
  MIDRR_REQUIRE(weight > 0.0, "flow weight must be positive");
  ClassSpec spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const ClassId cid = class_of(flow);
    MIDRR_REQUIRE(cid != kInvalidClass, "reweighting unknown flow");
    spec = spec_of(latest_.entry(cid));
  }
  spec.weight = weight;
  move_member(flow, spec);
}

void ControlPlane::set_willing(FlowId flow, IfaceId iface, bool value) {
  ClassSpec spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    MIDRR_REQUIRE(iface < shard_of_iface_.size(),
                  "set_willing for unknown interface");
    const ClassId cid = class_of(flow);
    MIDRR_REQUIRE(cid != kInvalidClass, "set_willing for unknown flow");
    spec = spec_of(latest_.entry(cid));
    const bool had = contains(spec.willing, iface);
    if (had == value) return;
    if (value) {
      spec.willing.insert(
          std::lower_bound(spec.willing.begin(), spec.willing.end(), iface),
          iface);
    } else {
      spec.willing.erase(
          std::find(spec.willing.begin(), spec.willing.end(), iface));
    }
  }
  move_member(flow, spec);
}

void ControlPlane::set_iface_down(IfaceId iface, bool down) {
  std::lock_guard<std::mutex> lock(mu_);
  MIDRR_REQUIRE(iface < shard_of_iface_.size(),
                "set_iface_down for unknown interface");
  if (down_.empty()) down_.assign(shard_of_iface_.size(), false);
  if (down_[iface] == down) return;
  down_[iface] = down;
  latest_.iface_down = down_;

  // One directory scan gives every affected class's member list (the only
  // O(max_flows) step; everything else is O(classes) + O(moved members)).
  std::vector<std::vector<FlowId>> members(latest_.class_slots());
  for (FlowId f = 0; f < next_flow_; ++f) {
    const std::uint32_t v = dir_[f].load(std::memory_order_acquire);
    if (v != 0) members[v - 1].push_back(f);
  }

  struct Removal {
    std::uint32_t shard;
    FlowId flow;
  };
  std::vector<Removal> removals;
  const std::uint32_t iface_shard = shard_of_iface_[iface];

  for (const ClassId cid : latest_.live) {
    if (!contains(latest_.entry(cid).willing, iface)) continue;
    SnapshotClass& entry = mutable_class(cid);
    const std::vector<IfaceId> live_willing = live_subset_locked(entry.willing);
    const std::vector<std::uint32_t> new_shards = shards_of(live_willing);

    // Grow side before the publish: a producer may only route to a shard
    // that already knows the flow.
    for (const std::uint32_t s : new_shards) {
      if (!contains(entry.shards, s)) {
        applier_.shard_add_flows(s, members[cid], spec_of(entry),
                                 willing_in_shard(live_willing, s));
      } else if (s == iface_shard) {
        // The shard hosts the class on both sides of the transition (some
        // OTHER willing interface there is live), so only the transitioning
        // interface's willing bit flips: cleared on death -- the scheduler
        // must stop granting the dead interface turns -- and restored on
        // revival (a re-add while the interface was dead registered only
        // the live subset).  Idempotent when the bit never went away.
        for (const FlowId f : members[cid]) {
          applier_.shard_set_willing(s, f, iface, !down);
        }
      }
    }
    for (const std::uint32_t s : entry.shards) {
      if (!contains(new_shards, s)) {
        for (const FlowId f : members[cid]) {
          removals.push_back(Removal{s, f});
        }
      }
    }
    entry.shards = new_shards;
    entry.quarantined = new_shards.empty() && !entry.willing.empty();
  }

  ++latest_.version;
  publish_locked();  // ONE publish for the whole transition

  // Shrink side after the publish: producers already stopped routing here;
  // queued packets become counted straggler drops at the shard.
  for (const Removal& r : removals) applier_.shard_remove_flow(r.shard, r.flow);
}

bool ControlPlane::iface_down(IfaceId iface) const {
  std::lock_guard<std::mutex> lock(mu_);
  return iface < down_.size() && down_[iface];
}

std::size_t ControlPlane::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const ClassId cid : latest_.live) {
    const SnapshotClass& entry = latest_.entry(cid);
    if (entry.quarantined) n += entry.members;
  }
  return n;
}

}  // namespace midrr::rt
