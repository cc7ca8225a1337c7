#include "runtime/runtime.hpp"

#include <algorithm>

#include "fault/adapt.hpp"
#include "util/assert.hpp"

namespace midrr::rt {

namespace {

/// How long an idle worker sleeps when nobody kicks it.  Token buckets
/// keep accruing while a worker sleeps (refill integrates elapsed time),
/// so this bounds wakeup latency, not throughput; pacer depths are sized
/// to absorb several park periods (see auto_depth below).
constexpr std::chrono::nanoseconds kParkSlice{500'000};  // 500 us

std::uint64_t auto_depth(const RateProfile& profile,
                         std::uint64_t configured,
                         std::uint64_t burst_bytes) {
  if (configured != 0) return configured;
  // Depth = the larger of one dequeue burst and ~5 ms at peak rate, so a
  // worker sleeping a few park slices can catch the link back up to its
  // long-run rate instead of clipping it.
  const double five_ms_bytes = profile.peak_rate() / 8.0 * 0.005;
  return std::max<std::uint64_t>(
      burst_bytes, static_cast<std::uint64_t>(five_ms_bytes) + 1);
}

}  // namespace

// --- IngressPort ---------------------------------------------------------

IngressPort::IngressPort(Runtime& rt, std::size_t producer,
                         Rcu<RuntimeSnapshot>::Reader reader,
                         std::size_t max_flows)
    : rt_(rt),
      producer_(producer),
      reader_(std::move(reader)),
      routes_(max_flows) {
  if (rt_.options_.fault != nullptr && rt_.options_.fault->has_ingress_faults()) {
    ingress_rng_ = rt_.options_.fault->fork_ingress_rng(producer);
  }
}

IngressPort::~IngressPort() {
  // Delayed packets must not silently die with the port: release them all
  // now (ring-full releases become counted rejects).
  flush_delayed(/*now=*/0, /*force=*/true);
  flush_counters();
}

bool IngressPort::refresh_route(FlowId flow, std::uint64_t epoch) {
  CachedRoute& route = routes_[flow];
  // Flow -> class through the lock-free directory, then class -> hosting
  // shards from the snapshot.  The control plane stores the directory word
  // only after the class is published (growth), clears it before the class
  // shrinks, and re-points a moved member only between two publishes that
  // both route it.  Entering the critical section BEFORE the directory
  // load makes a hit always find its class: a publish waits out readers of
  // the snapshot it replaces, so the word can only have moved within what
  // this snapshot routes.  A route may still go stale after the guard is
  // released; that surfaces as a refresh on the next offer (the epoch
  // moved) or a counted straggler drop, never a misroute.
  const auto guard = reader_.lock();
  const ClassId cls = rt_.control_->class_of(flow);
  const SnapshotClass* entry = cls == kInvalidClass ? nullptr : guard->cls(cls);
  if (entry == nullptr || entry->shards.empty()) {
    route.epoch = epoch;
    route.count = 0;
    route.uncacheable = false;
    route.quarantined = entry != nullptr && entry->quarantined;
    return false;
  }
  route.epoch = epoch;
  route.quarantined = false;
  route.uncacheable = entry->shards.size() > kRouteFanout;
  if (route.uncacheable) {
    // Too wide to cache inline: route this packet from the snapshot and
    // leave the entry marked so later offers skip straight to the guard.
    route.count = 1;
    route.shards[0] = entry->shards[rr_++ % entry->shards.size()];
    return true;
  }
  route.count = static_cast<std::uint8_t>(entry->shards.size());
  for (std::size_t i = 0; i < entry->shards.size(); ++i) {
    route.shards[i] = entry->shards[i];
  }
  return true;
}

void IngressPort::flush_counters() {
  if (pending_offered_ != 0) {
    rt_.offered_.fetch_add(pending_offered_, std::memory_order_relaxed);
    pending_offered_ = 0;
  }
  if (pending_rejects_ != 0) {
    rt_.ring_rejects_.fetch_add(pending_rejects_, std::memory_order_relaxed);
    pending_rejects_ = 0;
  }
}

bool IngressPort::push_to_shard(std::uint32_t shard, Packet&& packet) {
  Runtime::Shard& target = *rt_.shards_[shard];
  if (!target.ingress[producer_]->push(std::move(packet))) {
    // push() moves nothing on failure; the packet (and its trace tag) is
    // still ours to account for.
    rt_.drop_trace(packet);
    ++rejected_;
    ++pending_rejects_;
    flush_counters();
    if (rt_.ring_full_warn_.allow()) {
      MIDRR_LOG_WARN() << "ingress ring full (shard " << shard << ", producer "
                       << producer_ << "); backpressure to caller ("
                       << rt_.ring_full_warn_.take_suppressed()
                       << " earlier rejects unreported)";
    }
    return false;
  }
  ++offered_;
  // Batched: one shared-line fetch_add per 256 accepted packets (plus the
  // destructor flush), instead of a cross-producer RMW per packet.
  if (++pending_offered_ >= 256) flush_counters();
  // Dekker hand-off with park(): the push above, this fence, then the
  // asleep probe inside kick_if_asleep.  The parking worker stores asleep,
  // fences, then re-checks the rings -- so one of the two sides always
  // observes the other, and the 500 us park slice is only ever a latency
  // bound for races with a THIRD state (no packet, no sleeper).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  rt_.kick_if_asleep(target.home_worker);
  return true;
}

void IngressPort::flush_delayed(SimTime now, bool force) {
  if (delayed_.empty()) return;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < delayed_.size(); ++i) {
    Delayed& d = delayed_[i];
    if (force || d.release_at <= now) {
      push_to_shard(d.shard, std::move(d.packet));  // reject = counted
    } else {
      if (keep != i) delayed_[keep] = std::move(d);
      ++keep;
    }
  }
  delayed_.resize(keep);
}

bool IngressPort::offer(FlowId flow, std::uint32_t size_bytes,
                        std::shared_ptr<const net::Frame> frame) {
  // Epoch first, THEN (on a miss) the guard: a publish racing the refresh
  // tags the cache entry with the pre-publish epoch, forcing a re-read on
  // the next offer instead of serving post-publish data as pre-publish.
  const std::uint64_t epoch = rt_.control_->epoch();
  std::uint32_t shard;
  if (flow < routes_.size()) {
    CachedRoute& route = routes_[flow];
    if (route.epoch != epoch || route.uncacheable) {
      if (!refresh_route(flow, epoch)) {
        ++rejected_;
        ++pending_rejects_;
        if (route.quarantined) {
          rt_.quarantine_rejects_.fetch_add(1, std::memory_order_relaxed);
        }
        flush_counters();  // rejects are rare; keep them promptly visible
        return false;
      }
    } else if (route.count == 0) {  // cached no-route
      ++rejected_;
      ++pending_rejects_;
      if (route.quarantined) {
        rt_.quarantine_rejects_.fetch_add(1, std::memory_order_relaxed);
      }
      flush_counters();
      return false;
    }
    shard = route.uncacheable || route.count == 1
                ? route.shards[0]
                : route.shards[rr_++ % route.count];
  } else {
    // Out-of-arena flow id: cannot be live (the control plane bounds ids
    // by max_flows), so this is a plain reject.
    ++rejected_;
    ++pending_rejects_;
    flush_counters();
    return false;
  }
  Packet packet(flow, size_bytes);
  packet.enqueued_at = rt_.now_ns();
  packet.frame = std::move(frame);
  if (rt_.tracer_ != nullptr) {
    // Deterministic 1-in-N per flow; the tag rides the packet through the
    // whole pipeline.  Claimed before the fault seams so an injected drop
    // shows up in the sample accounting instead of leaking a record.
    packet.trace = rt_.tracer_->maybe_begin(
        producer_, flow, static_cast<std::uint64_t>(packet.enqueued_at));
  }

  // Fault seams (one null test in production).  Injected faults happen
  // AFTER routing: they model loss/duplication/reordering on the ingress
  // path, not admission decisions, so a dropped offer still returns true
  // (the producer believes it sent) and is counted ONLY by the injector.
  fault::FaultInjector* const injector = rt_.options_.fault;
  if (injector != nullptr && injector->has_ingress_faults()) {
    if (!delayed_.empty()) flush_delayed(packet.enqueued_at, /*force=*/false);
    SimDuration hold = 0;
    switch (injector->sample_ingress(packet.enqueued_at, ingress_rng_, hold)) {
      case fault::IngressAction::kDrop:
        rt_.drop_trace(packet);
        return true;  // silently lost on the wire; injector counted it
      case fault::IngressAction::kDup: {
        Packet dup(flow, size_bytes);
        dup.enqueued_at = packet.enqueued_at;
        dup.frame = packet.frame;
        push_to_shard(shard, std::move(dup));  // an extra, normal offer
        break;
      }
      case fault::IngressAction::kDelay:
        delayed_.push_back(Delayed{packet.enqueued_at + hold, shard,
                                   std::move(packet)});
        return true;  // accepted; enters the rings when the hold expires
      case fault::IngressAction::kNone:
        break;
    }
  }

  // Admission control: refuse work for a shard already holding more than
  // the watermark.  Checked after the fault seams so injected faults see
  // the same offer stream with or without backpressure.
  if (rt_.options_.backpressure_bytes != 0 &&
      rt_.shards_[shard]->backlog_bytes.load(std::memory_order_relaxed) >=
          rt_.options_.backpressure_bytes) {
    ++rejected_;
    ++pending_rejects_;
    rt_.backpressure_rejects_.fetch_add(1, std::memory_order_relaxed);
    rt_.drop_trace(packet);
    flush_counters();
    return false;
  }
  return push_to_shard(shard, std::move(packet));
}

Rcu<RuntimeSnapshot>::Reader::Guard IngressPort::snapshot() {
  return reader_.lock();
}

// --- Runtime: construction & topology ------------------------------------

Runtime::Runtime(const RuntimeOptions& options)
    : options_(options),
      sent_by_flow_(options.max_flows),
      epoch_(std::chrono::steady_clock::now()) {
  MIDRR_REQUIRE(options_.workers >= 1, "runtime needs at least one worker");
  MIDRR_REQUIRE(options_.shards >= 1, "runtime needs at least one shard");
  MIDRR_REQUIRE(options_.producers >= 1, "runtime needs at least one producer");
  MIDRR_REQUIRE(options_.policy != Policy::kOracle,
                "the oracle scheduler is simulator-only");
  MIDRR_REQUIRE(options_.sched.observer == nullptr,
                "scheduler observers are not supported under the runtime "
                "(they would run inside the shard locks)");
  MIDRR_REQUIRE(options_.burst_bytes > 0, "burst_bytes must be positive");
  MIDRR_REQUIRE(options_.fanin_batch > 0, "fanin_batch must be positive");
  shed_bytes_.store(options_.shed_bytes, std::memory_order_relaxed);
  MIDRR_REQUIRE(options_.trace_events == 0 || options_.metrics != nullptr,
                "trace_events requires a metrics registry (the recorder "
                "chains behind the per-shard MetricsObserver)");
  for (std::size_t s = 0; s < options_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    // User observers are rejected above (arbitrary code inside the shard
    // locks); the internal MetricsObserver is the sanctioned exception --
    // its callbacks are single relaxed increments, optionally chained to a
    // bounded TraceRecorder for Chrome-trace export.
    SchedulerOptions sched_opts = options_.sched;
    if (options_.metrics != nullptr) {
      if (options_.trace_events > 0) {
        shard->recorder = std::make_unique<TraceRecorder>(options_.trace_events);
      }
      shard->observer = std::make_unique<telemetry::MetricsObserver>(
          *options_.metrics,
          telemetry::LabelSet{{"shard", std::to_string(s)}},
          shard->recorder.get());
      sched_opts.observer = shard->observer.get();
    }
    shard->sched = make_scheduler(options_.policy, sched_opts);
    for (std::size_t p = 0; p < options_.producers; ++p) {
      shard->ingress.push_back(
          std::make_unique<SpscRing<Packet>>(options_.ring_capacity));
    }
    shards_.push_back(std::move(shard));
  }
}

Runtime::~Runtime() { stop(); }

IfaceId Runtime::add_interface(std::string name, RateProfile capacity) {
  MIDRR_REQUIRE(!started_, "interfaces must be added before start()");
  MIDRR_REQUIRE(control_ == nullptr,
                "interfaces must be added before the control plane is used");
  const IfaceId iface = static_cast<IfaceId>(ifaces_.size());
  auto rec = std::make_unique<IfaceRec>();
  rec->name = std::move(name);
  rec->id = iface;
  rec->shard = static_cast<std::uint32_t>(iface % shards_.size());
  const std::uint64_t depth =
      auto_depth(capacity, options_.pacer_depth_bytes, options_.burst_bytes);
  rec->pacer = TokenBucketPacer(std::move(capacity), depth);
  Shard& shard = *shards_[rec->shard];
  rec->local_id = shard.sched->add_interface(rec->name);
  if (shard.local_of_iface.size() <= iface) {
    shard.local_of_iface.resize(iface + 1, kInvalidIface);
  }
  shard.local_of_iface[iface] = rec->local_id;
  shard.ifaces.push_back(iface);
  ifaces_.push_back(std::move(rec));
  return iface;
}

IfaceId Runtime::add_interface(std::string name) {
  MIDRR_REQUIRE(!started_, "interfaces must be added before start()");
  MIDRR_REQUIRE(control_ == nullptr,
                "interfaces must be added before the control plane is used");
  const IfaceId iface = static_cast<IfaceId>(ifaces_.size());
  auto rec = std::make_unique<IfaceRec>();
  rec->name = std::move(name);
  rec->id = iface;
  rec->shard = static_cast<std::uint32_t>(iface % shards_.size());
  rec->pacer = TokenBucketPacer(
      options_.pacer_depth_bytes != 0 ? options_.pacer_depth_bytes
                                      : options_.burst_bytes);
  Shard& shard = *shards_[rec->shard];
  rec->local_id = shard.sched->add_interface(rec->name);
  if (shard.local_of_iface.size() <= iface) {
    shard.local_of_iface.resize(iface + 1, kInvalidIface);
  }
  shard.local_of_iface[iface] = rec->local_id;
  shard.ifaces.push_back(iface);
  ifaces_.push_back(std::move(rec));
  return iface;
}

ControlPlane& Runtime::control() {
  if (control_ == nullptr) {
    // First use freezes the interface set (the iface -> shard map is baked
    // into the control plane and into every published snapshot).
    std::vector<std::uint32_t> shard_of_iface;
    shard_of_iface.reserve(ifaces_.size());
    for (const auto& rec : ifaces_) shard_of_iface.push_back(rec->shard);
    // The cast happens here, inside a Runtime member, because the
    // ShardApplier base is private (it is an implementation detail, not
    // part of Runtime's public face).
    control_ = std::make_unique<ControlPlane>(static_cast<ShardApplier&>(*this),
                                              std::move(shard_of_iface),
                                              options_.max_flows);
  }
  return *control_;
}

// --- Runtime: lifecycle ---------------------------------------------------

void Runtime::start() {
  MIDRR_REQUIRE(!started_, "runtime already started (no restart support)");
  MIDRR_REQUIRE(!ifaces_.empty(), "runtime needs at least one interface");
  control();  // materialize the control plane before any thread runs
  started_ = true;

  if (options_.stage_sample_every > 0) {
    telemetry::StageTracer::Options topts;
    topts.sample_every = options_.stage_sample_every;
    tracer_ = std::make_unique<telemetry::StageTracer>(
        options_.producers, ifaces_.size(), options_.max_flows, topts);
  }

  const auto worker_count = options_.workers;
  for (std::size_t w = 0; w < worker_count; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->index = static_cast<std::uint32_t>(w);
    if (options_.flight != nullptr) {
      // One flight-log lane per worker SLOT (not per spawn): a restarted
      // thread inherits its slot's lane, and the superseded thread never
      // writes again (it exits at the stall safe point without logging),
      // so the single-writer contract holds across watchdog restarts.
      worker->flight =
          &options_.flight->add_writer("worker" + std::to_string(w));
    }
    if (options_.metrics != nullptr) {
      options_.metrics->histogram_grid(
          "midrr_rt_packet_wait_ns",
          "Enqueue-to-drain packet wait, nanoseconds.",
          {{"worker", std::to_string(w)}}, worker->latency);
    }
    if (options_.trace_spans > 0) {
      worker->span_cap = options_.trace_spans;
      worker->spans.reserve(options_.trace_spans);
    }
    workers_.push_back(std::move(worker));
  }
  // Interfaces round-robin across workers; each shard's fan-in runs on a
  // "home" worker so every SPSC ring keeps a single consumer thread.
  for (IfaceId j = 0; j < ifaces_.size(); ++j) {
    IfaceRec& rec = *ifaces_[j];
    rec.worker = static_cast<std::uint32_t>(j % worker_count);
    workers_[rec.worker]->ifaces.push_back(j);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    shard.home_worker = static_cast<std::uint32_t>(s % worker_count);
    workers_[shard.home_worker]->home_shards.push_back(
        static_cast<std::uint32_t>(s));
    for (const IfaceId j : shard.ifaces) {
      const std::uint32_t w = ifaces_[j]->worker;
      auto& kick_list = shard.kick_on_enqueue;
      if (std::find(kick_list.begin(), kick_list.end(), w) == kick_list.end()) {
        kick_list.push_back(w);
      }
    }
  }

  // Bind and attach the egress backend before any thread runs; a backend
  // that cannot set up (socket/bind failure) aborts startup here.
  egress_ = options_.egress != nullptr ? options_.egress : &sim_backend_;
  {
    // Topology first: a completion-driven backend shares one submission
    // ring among all interfaces of a worker, so it needs the iface ->
    // worker map before it sizes per-interface state in attach().
    std::vector<std::uint32_t> worker_of_iface;
    worker_of_iface.reserve(ifaces_.size());
    for (const auto& rec : ifaces_) worker_of_iface.push_back(rec->worker);
    egress_->attach_topology(worker_of_iface);
    std::vector<std::string> iface_names;
    iface_names.reserve(ifaces_.size());
    for (const auto& rec : ifaces_) iface_names.push_back(rec->name);
    egress_->attach(iface_names);
  }
  egress_completion_driven_ = egress_->completion_driven();

  if (options_.metrics != nullptr) register_metrics();
  if (options_.fault != nullptr) {
    // Compile the plan against the now-frozen topology; out-of-range
    // targets throw here, before any thread runs.
    options_.fault->attach(ifaces_.size(), worker_count);
    if (options_.metrics != nullptr) {
      options_.fault->register_metrics(*options_.metrics);
    }
  }

  epoch_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { worker_main(w->index, 0); });
  }
}

void Runtime::stop() {
  // Unpark any injector-stalled worker first: a thread inside
  // maybe_stall() cannot see running_ until the injector releases it.
  if (options_.fault != nullptr) options_.fault->release_all();
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  } else {
    for (auto& worker : workers_) kick(worker->index);
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
  }
  {
    std::lock_guard<std::mutex> lock(restart_mu_);
    for (auto& thread : retired_) {
      if (thread.joinable()) thread.join();
    }
    retired_.clear();
  }
  // Workers are gone; give every parked egress tail a bounded,
  // single-threaded last chance, then convert the remainder to counted
  // drops so the conservation identity closes at quiescence.
  flush_egress();
}

void Runtime::flush_egress() {
  if (egress_ == nullptr || workers_.empty()) return;
  constexpr int kFinalFlushRounds = 3;
  for (IfaceId j = 0; j < ifaces_.size(); ++j) {
    IfaceRec& rec = *ifaces_[j];
    Worker& owner = *workers_[rec.worker];
    if (egress_completion_driven_) {
      // Drain to quiescence: each round flushes the ring (submitting any
      // internally-retried packets and waiting briefly for CQEs), harvests
      // the verdicts, and retries the stash.  Done when both the stash and
      // the in-flight population are empty.
      for (int round = 0; round < kFinalFlushRounds; ++round) {
        egress_->flush(j);
        reap_egress(j, owner);
        if (!rec.pending.empty() && !send_pending(j, owner)) break;
        if (rec.pending.empty() && egress_->inflight_packets(j) == 0) break;
      }
      // Whatever the kernel never answered is force-resolved (normally as
      // counted drops) so io_inflight provably reaches zero.
      owner.completions.clear();
      egress_->reclaim_inflight(j, owner.completions);
      absorb_completions(j, owner);
    } else if (rec.pending.empty()) {
      continue;
    } else {
      for (int round = 0; round < kFinalFlushRounds && !rec.pending.empty();
           ++round) {
        if (!send_pending(j, owner)) break;  // no progress; retrying is moot
      }
      egress_->flush(j);
    }
    if (!rec.pending.empty()) {
      owner.io_drops.fetch_add(rec.pending.size(),
                               std::memory_order_relaxed);
      for (const Packet& packet : rec.pending) drop_trace(packet);
      if (owner.flight != nullptr) {
        // Worker threads are joined by now; writing their lane here keeps
        // the single-writer invariant (one live writer at a time).
        owner.flight->log(static_cast<std::uint64_t>(now_ns()),
                          telemetry::FlightCategory::kIo,
                          telemetry::FlightCode::kIoFlushDrops, j,
                          rec.pending.size());
      }
      MIDRR_LOG_WARN() << "egress backend could not flush "
                       << rec.pending.size() << " packet(s) on interface '"
                       << rec.name << "' at stop(); counted as io_drops";
      rec.pending.clear();
      rec.pending_packets.store(0, std::memory_order_relaxed);
      rec.pending_bytes.store(0, std::memory_order_relaxed);
    }
  }
}

IngressPort Runtime::port(std::size_t producer) {
  MIDRR_REQUIRE(started_, "ports are available after start()");
  MIDRR_REQUIRE(producer < options_.producers, "producer index out of range");
  return IngressPort(*this, producer, control().reader(), options_.max_flows);
}

SimTime Runtime::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

// --- Runtime: ShardApplier (control plane -> shard schedulers) -----------

void Runtime::shard_add_flows(std::uint32_t shard_index,
                              std::span<const FlowId> flows,
                              const RtFlowSpec& spec,
                              const std::vector<IfaceId>& willing_subset) {
  Shard& shard = *shards_[shard_index];
  // One scheduler spec and one lock pass for the whole batch.  The
  // interface map is frozen once the control plane exists, so the spec is
  // built outside the lock.
  FlowSpec fs;
  fs.weight = spec.weight;
  for (const IfaceId j : willing_subset) {
    fs.willing.push_back(shard.local_of_iface[j]);
  }
  fs.name = spec.name;
  fs.queue_capacity_bytes = spec.queue_capacity_bytes;
  std::lock_guard<std::mutex> lock(shard.mu);
  for (const FlowId flow : flows) {
    const FlowId local = shard.sched->add_flow(fs);
    if (shard.local_of_flow.size() <= flow) {
      shard.local_of_flow.resize(flow + 1, kInvalidFlow);
    }
    shard.local_of_flow[flow] = local;
    if (shard.global_of_flow.size() <= local) {
      shard.global_of_flow.resize(local + 1, kInvalidFlow);
    }
    shard.global_of_flow[local] = flow;
    if (shard.weight_of_local.size() <= local) {
      shard.weight_of_local.resize(local + 1, 0.0);
    }
    shard.weight_of_local[local] = spec.weight;
    shard.weight_sum += spec.weight;
  }
}

void Runtime::shard_remove_flow(std::uint32_t shard_index, FlowId flow) {
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  const FlowId local = shard.local_of_flow[flow];
  shard.local_of_flow[flow] = kInvalidFlow;
  shard.global_of_flow[local] = kInvalidFlow;
  shard.weight_sum -= shard.weight_of_local[local];
  shard.weight_of_local[local] = 0.0;
  // The flow's queued packets die with it -- but never silently: they
  // leave the shard's backlog and land in straggler_drops (the loss
  // accounting identity offered == delivered + counted drops + in-flight
  // survives a remove-during-drain).
  const std::uint64_t doomed_packets = shard.sched->backlog_packets(local);
  const std::uint64_t doomed_bytes = shard.sched->backlog_bytes(local);
  shard.sched->remove_flow(local);
  if (doomed_packets > 0) {
    shard.straggler_drops.fetch_add(doomed_packets,
                                    std::memory_order_relaxed);
    shard.backlog_bytes.fetch_sub(doomed_bytes, std::memory_order_relaxed);
  }
}

void Runtime::shard_set_weight(std::uint32_t shard_index, FlowId flow,
                               double weight) {
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  const FlowId local = shard.local_of_flow[flow];
  shard.weight_sum += weight - shard.weight_of_local[local];
  shard.weight_of_local[local] = weight;
  shard.sched->set_weight(local, weight);
}

void Runtime::shard_set_willing(std::uint32_t shard_index, FlowId flow,
                                IfaceId iface, bool value) {
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.sched->set_willing(shard.local_of_flow[flow],
                           shard.local_of_iface[iface], value);
}

// --- Runtime: worker loops ------------------------------------------------

void Runtime::worker_main(std::uint32_t w, std::uint64_t my_generation) {
  Worker& me = *workers_[w];
  if (me.flight != nullptr) {
    me.flight->log(static_cast<std::uint64_t>(now_ns()),
                   telemetry::FlightCategory::kRuntime,
                   my_generation > 0 ? telemetry::FlightCode::kWorkerRestart
                                     : telemetry::FlightCode::kWorkerStart,
                   w, my_generation);
  }
  std::vector<Packet> scratch;
  scratch.reserve(options_.fanin_batch * options_.producers);
  std::vector<Packet> burst;
  burst.reserve(256);
  fault::FaultInjector* const injector = options_.fault;
  // Fault seam state, all thread-local to this spawn: timeline cursors and
  // the last scale each owned pacer saw.  Seeded from the pacers so a
  // RESTARTED worker does not re-apply (and re-log) transitions the old
  // thread already made.
  std::vector<std::size_t> fault_cursors;
  std::vector<double> applied_scale;
  if (injector != nullptr) {
    fault_cursors.assign(ifaces_.size(), 0);
    applied_scale.assign(ifaces_.size(), 1.0);
    for (const IfaceId j : me.ifaces) {
      applied_scale[j] = ifaces_[j]->pacer.rate_scale();
    }
  }
  while (running_.load(std::memory_order_acquire)) {
    // Heartbeat: ticks every pass, including idle ones (park() returns at
    // least every kParkSlice), so only a genuinely wedged thread freezes.
    me.heartbeat.fetch_add(1, std::memory_order_relaxed);
    if (injector != nullptr) {
      const SimTime now = now_ns();
      for (const IfaceId j : me.ifaces) {
        const double scale = injector->iface_scale(j, now, fault_cursors[j]);
        if (scale != applied_scale[j]) {
          ifaces_[j]->pacer.set_rate_scale(scale, now);
          applied_scale[j] = scale;
          injector->note_iface_transition(j, now, scale);
          if (me.flight != nullptr) {
            me.flight->log(static_cast<std::uint64_t>(now),
                           telemetry::FlightCategory::kFault,
                           telemetry::FlightCode::kFaultScale, j,
                           static_cast<std::uint64_t>(scale * 1000.0));
          }
        }
      }
      if (injector->maybe_stall(w, now, me.generation, my_generation) ==
          fault::FaultInjector::StallOutcome::kSuperseded) {
        // A watchdog restarted this slot while we were parked at the safe
        // point; the replacement owns all state from here.  Exit without
        // touching anything.
        return;
      }
    }
    bool did_work = false;
    for (const std::uint32_t s : me.home_shards) {
      did_work |= drain_ingress(s, me, scratch);
    }
    for (const IfaceId j : me.ifaces) {
      did_work |= drain_iface(j, me, burst);
    }
    if (!did_work) park(me, kParkSlice.count());
  }
  if (me.flight != nullptr) {
    me.flight->log(static_cast<std::uint64_t>(now_ns()),
                   telemetry::FlightCategory::kRuntime,
                   telemetry::FlightCode::kWorkerExit, w, my_generation);
  }
}

bool Runtime::drain_ingress(std::uint32_t shard_index, Worker& me,
                            std::vector<Packet>& scratch) {
  Shard& shard = *shards_[shard_index];
  scratch.clear();
  for (auto& ring : shard.ingress) {
    ring->pop_batch(scratch, options_.fanin_batch);
  }
  if (scratch.empty()) return false;
  const SimTime span_begin = me.span_cap != 0 ? now_ns() : 0;
  // One clock read covers the whole batch: the fan-in stamp separates
  // "waiting in an SPSC ring" from "queued in the scheduler", and a
  // per-packet read here would cost more than the distinction is worth.
  const SimTime t_fanin =
      tracer_ != nullptr ? (me.span_cap != 0 ? span_begin : now_ns()) : 0;
  std::uint64_t accepted = 0;
  std::uint64_t gone = 0;
  std::uint64_t dropped = 0;
  std::uint64_t shed = 0;
  std::uint64_t moved_bytes = 0;
  // Overload shedding arms when the shard's backlog crosses the watermark.
  // The verdict is per flow and weight-aware: a packet is shed only when
  // its flow already holds at least its weighted fair share of the
  // watermark (backlog_f / shed_bytes >= weight_f / weight_sum).  Light
  // flows therefore keep landing packets while hoarders are trimmed --
  // which is what keeps Jain's index high under overload.  The watermark
  // is read once per pass (the adaptive controller retunes it live, and
  // arming and per-flow verdicts must agree within a pass), but both the
  // arming check and the per-flow shares fold in bytes accepted EARLIER
  // IN THIS PASS: the scheduler's backlog counters only move at the
  // batched enqueue below, and a verdict blind to its own pass admits
  // the whole batch in one gulp whenever the backlog dips under the
  // watermark.
  const std::uint64_t shed_watermark =
      shed_bytes_.load(std::memory_order_relaxed);
  const std::uint64_t backlog_before =
      shard.backlog_bytes.load(std::memory_order_relaxed);
  std::uint64_t pass_accepted_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.pass_bytes_of_local.size() < shard.weight_of_local.size()) {
      shard.pass_bytes_of_local.resize(shard.weight_of_local.size(), 0);
    }
    // Pass 1: translate global -> scheduler-local flow ids in place,
    // compacting away stragglers (flows removed after their packets
    // entered the ring; the control plane published first, so these are
    // bounded).  Pass 2: ONE batched hand-off -- the scheduler amortizes
    // its per-enqueue virtual dispatch and ring/flag touches across the
    // whole batch; every packet keeps its own enqueued_at stamp.
    std::size_t keep = 0;
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      Packet& packet = scratch[i];
      const FlowId global = packet.flow;
      moved_bytes += packet.size_bytes;
      const FlowId local = global < shard.local_of_flow.size()
                               ? shard.local_of_flow[global]
                               : kInvalidFlow;
      if (local == kInvalidFlow) {
        ++gone;
        drop_trace(packet);
        continue;
      }
      if (shed_watermark != 0 && shard.weight_sum > 0.0 &&
          backlog_before + pass_accepted_bytes >= shed_watermark &&
          static_cast<double>(shard.sched->backlog_bytes(local) +
                              shard.pass_bytes_of_local[local]) *
                  shard.weight_sum >=
              static_cast<double>(shed_watermark) *
                  shard.weight_of_local[local]) {
        ++shed;
        drop_trace(packet);
        continue;
      }
      if (shard.pass_bytes_of_local[local] == 0) {
        shard.pass_touched.push_back(local);
      }
      shard.pass_bytes_of_local[local] += packet.size_bytes;
      pass_accepted_bytes += packet.size_bytes;
      if (tracer_ != nullptr && packet.trace != 0) {
        tracer_->stamp_fanin(packet.trace,
                             static_cast<std::uint64_t>(t_fanin));
      }
      packet.flow = local;
      if (keep != i) scratch[keep] = std::move(packet);
      ++keep;
    }
    if (keep > 0) {
      const EnqueueBatchResult result = shard.sched->enqueue_batch(
          std::span<Packet>(scratch.data(), keep), /*now=*/0);
      accepted = result.accepted;
      dropped = result.dropped;  // per-flow queue bounds (tail drops)
      shard.backlog_bytes.fetch_add(result.accepted_bytes,
                                    std::memory_order_relaxed);
    }
    for (const FlowId touched : shard.pass_touched) {
      shard.pass_bytes_of_local[touched] = 0;
    }
    shard.pass_touched.clear();
  }
  const std::uint64_t total = static_cast<std::uint64_t>(scratch.size());
  scratch.clear();
  me.enqueued.fetch_add(accepted, std::memory_order_relaxed);
  me.fanin_drops.fetch_add(gone, std::memory_order_relaxed);
  me.tail_drops.fetch_add(dropped, std::memory_order_relaxed);
  me.shed_drops.fetch_add(shed, std::memory_order_relaxed);
  // Tail-dropped packets were already moved into the scheduler's batch;
  // any trace tags among them are unreachable here, so their records age
  // out as "lost" rather than "dropped" (started >= completed+lost+dropped).
  if (me.flight != nullptr && (shed > 0 || gone > 0 || dropped > 0)) {
    const std::uint64_t t_flight = static_cast<std::uint64_t>(
        me.span_cap != 0 ? span_begin : now_ns());
    if (shed > 0) {
      me.flight->log(t_flight, telemetry::FlightCategory::kRuntime,
                     telemetry::FlightCode::kShedDrops, shed);
    }
    if (gone > 0) {
      me.flight->log(t_flight, telemetry::FlightCategory::kRuntime,
                     telemetry::FlightCode::kStragglerDrops, gone);
    }
    if (dropped > 0) {
      me.flight->log(t_flight, telemetry::FlightCategory::kRuntime,
                     telemetry::FlightCode::kTailDrops, dropped);
    }
  }
  if (me.span_cap != 0) {
    telemetry::TraceSpan span;
    span.kind = telemetry::TraceSpan::Kind::kFanIn;
    span.worker = me.index;
    span.begin_ns = span_begin;
    span.end_ns = now_ns();
    span.shard = shard_index;
    span.packets = total;
    span.bytes = moved_bytes;
    record_span(me, span);
  }
  if (gone > 0 && straggler_warn_.allow()) {
    MIDRR_LOG_WARN() << "dropped " << gone << " straggler packet(s) for "
                     << "removed flows at shard " << shard_index << " fan-in ("
                     << straggler_warn_.take_suppressed()
                     << " earlier occurrences unreported)";
  }
  if (accepted > 0) {
    for (const std::uint32_t w : shard.kick_on_enqueue) {
      if (w != me.index) kick(w);
    }
  }
  return true;
}

void Runtime::complete_trace(const Packet& packet, IfaceId iface,
                             SimTime sent_at) {
  std::uint64_t e2e = 0;
  // packet.flow was rewritten to a shard-local scheduler id at fan-in;
  // the tracer kept the GLOBAL id from the claim, which is the one the
  // control plane's class directory is indexed by.
  FlowId global_flow = kInvalidFlow;
  const bool ok = tracer_->complete(
      packet.trace, static_cast<std::uint64_t>(packet.enqueued_at),
      static_cast<std::uint64_t>(sent_at), iface, &e2e, &global_flow);
  if (ok && options_.slo != nullptr && global_flow != kInvalidFlow) {
    options_.slo->record(control_->class_of(global_flow), e2e,
                         static_cast<std::uint64_t>(sent_at));
  }
}

void Runtime::account_sent(IfaceRec& rec, Worker& me, const Packet& packet,
                           SimTime sent_at) {
  const SimTime waited = sent_at - packet.enqueued_at;
  const std::uint64_t wait_ns =
      waited > 0 ? static_cast<std::uint64_t>(waited) : 0;
  me.latency.record(wait_ns);
  sent_by_flow_[packet.flow].fetch_add(packet.size_bytes,
                                       std::memory_order_relaxed);
  rec.packets.fetch_add(1, std::memory_order_relaxed);
  rec.bytes.fetch_add(packet.size_bytes, std::memory_order_relaxed);
  me.sent.fetch_add(1, std::memory_order_relaxed);
  me.sent_bytes.fetch_add(packet.size_bytes, std::memory_order_relaxed);
}

void Runtime::absorb_completions(IfaceId iface, Worker& me) {
  IfaceRec& rec = *ifaces_[iface];
  // One clock read for the whole batch: a completion's latency sample runs
  // enqueue -> kernel-confirmed send, so the egress stage of a traced
  // packet absorbs submit-to-CQE time (the attribution PR 8 promised).
  const SimTime done_at = now_ns();
  std::uint64_t parked_bytes = 0;
  bool parked = false;
  for (io::EgressCompletion& done : me.completions) {
    switch (done.verdict) {
      case io::SendDisposition::kSent:
        account_sent(rec, me, done.packet, done_at);
        if (tracer_ != nullptr && done.packet.trace != 0) {
          complete_trace(done.packet, iface, done_at);
        }
        break;
      case io::SendDisposition::kRequeued:
        parked_bytes += done.packet.size_bytes;
        rec.pending.push_back(std::move(done.packet));
        parked = true;
        me.io_requeued.fetch_add(1, std::memory_order_relaxed);
        break;
      case io::SendDisposition::kDropped:
      case io::SendDisposition::kInflight:  // contract: never handed back
        me.io_drops.fetch_add(1, std::memory_order_relaxed);
        drop_trace(done.packet);
        break;
    }
  }
  if (parked) {
    rec.pending_packets.store(rec.pending.size(), std::memory_order_relaxed);
    rec.pending_bytes.store(
        rec.pending_bytes.load(std::memory_order_relaxed) + parked_bytes,
        std::memory_order_relaxed);
  }
  me.completions.clear();
}

bool Runtime::reap_egress(IfaceId iface, Worker& me) {
  me.completions.clear();
  if (egress_->poll_completions(iface, me.completions) == 0) return false;
  absorb_completions(iface, me);
  return true;
}

bool Runtime::send_pending(IfaceId iface, Worker& me) {
  IfaceRec& rec = *ifaces_[iface];
  const SimTime now = now_ns();
  const io::EgressResult result = egress_->send_burst(
      iface, std::span<const Packet>(rec.pending.data(), rec.pending.size()),
      now, me.dispositions);
  if (result.requeued == rec.pending.size()) {
    // Whole stash pushed back again; count the event, nothing moved.
    me.io_requeued.fetch_add(result.requeued, std::memory_order_relaxed);
    return false;
  }
  // `now` was read before the send; traced completions take a fresh
  // post-send stamp so the egress stage includes the syscall itself.
  const SimTime sent_at = tracer_ != nullptr ? now_ns() : now;
  std::size_t keep = 0;
  std::uint64_t keep_bytes = 0;
  for (std::size_t i = 0; i < rec.pending.size(); ++i) {
    Packet& packet = rec.pending[i];
    const io::SendDisposition verdict =
        result.clean ? io::SendDisposition::kSent : me.dispositions[i];
    switch (verdict) {
      case io::SendDisposition::kSent:
        account_sent(rec, me, packet, now);
        if (tracer_ != nullptr && packet.trace != 0) {
          complete_trace(packet, iface, sent_at);
        }
        break;
      case io::SendDisposition::kRequeued:
        keep_bytes += packet.size_bytes;
        if (keep != i) rec.pending[keep] = std::move(packet);
        ++keep;
        break;
      case io::SendDisposition::kDropped:
        me.io_drops.fetch_add(1, std::memory_order_relaxed);
        drop_trace(packet);
        break;
      case io::SendDisposition::kInflight:
        // Accepted into the backend's submission queue: it left the stash
        // and will come back through reap_egress with a real verdict.
        break;
    }
  }
  rec.pending.resize(keep);
  rec.pending_packets.store(keep, std::memory_order_relaxed);
  rec.pending_bytes.store(keep_bytes, std::memory_order_relaxed);
  if (result.requeued > 0) {
    me.io_requeued.fetch_add(result.requeued, std::memory_order_relaxed);
  }
  return true;
}

bool Runtime::drain_iface(IfaceId iface, Worker& me,
                          std::vector<Packet>& burst) {
  IfaceRec& rec = *ifaces_[iface];
  // Completion-driven backends resolve packets asynchronously: harvest
  // their verdicts before anything else so delivery accounting (and the
  // stash, when a completion parks a retry) is current for this pass.
  bool reaped = false;
  if (egress_completion_driven_) reaped = reap_egress(iface, me);
  // A parked tail goes first: those packets were dequeued and
  // pacer-charged already, only the socket gates them.  No new dequeue
  // until the stash clears -- per-flow order is preserved and the stash
  // can never exceed one burst.
  if (!rec.pending.empty()) return send_pending(iface, me) || reaped;
  const SimTime t0 = now_ns();
  std::uint64_t budget = rec.pacer.budget_bytes(t0);
  if (budget == 0) return reaped;
  budget = std::min(budget, options_.burst_bytes);
  Shard& shard = *shards_[rec.shard];
  burst.clear();
  std::size_t count;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // t0 doubles as the burst timestamp (observer events / traces); it is
    // at most a lock acquisition older than "now", and reading the clock
    // again under the shard mutex would stretch the critical section.
    count = shard.sched->dequeue_burst(rec.local_id, budget, t0, burst);
    // Translate scheduler-local flow ids back to global ids while the maps
    // are still protected; everything after this runs lock-free.
    for (Packet& packet : burst) {
      packet.flow = shard.global_of_flow[packet.flow];
    }
  }
  if (count == 0) return reaped;
  const SimTime drained_at = now_ns();
  if (tracer_ != nullptr) {
    // The dequeue stamp closes the queue stage at the same instant the
    // existing wait accounting uses (drained_at); the egress stage opens
    // here and absorbs the send syscall below.
    for (const Packet& packet : burst) {
      if (packet.trace != 0) {
        tracer_->stamp_dequeue(packet.trace,
                               static_cast<std::uint64_t>(drained_at));
      }
    }
  }
  const io::EgressResult outcome = egress_->send_burst(
      iface, std::span<const Packet>(burst.data(), burst.size()), drained_at,
      me.dispositions);
  // Disabled tracing keeps the historical single clock read per burst;
  // enabled tracing pays one extra read so the egress stage is real.
  const SimTime sent_at = tracer_ != nullptr ? now_ns() : drained_at;
  std::uint64_t bytes = 0;
  if (outcome.clean) {
    // Everything left: the historical fast path, untouched.  Bursts are
    // runs of same-flow packets (DRR serves a flow until its deficit runs
    // out), so fold consecutive packets into one sent_by_flow_ fetch_add
    // per run instead of one per packet.
    FlowId run_flow = kInvalidFlow;
    std::uint64_t run_bytes = 0;
    for (const Packet& packet : burst) {
      bytes += packet.size_bytes;
      const SimTime waited = drained_at - packet.enqueued_at;
      const std::uint64_t wait_ns =
          waited > 0 ? static_cast<std::uint64_t>(waited) : 0;
      me.latency.record(wait_ns);
      if (packet.flow != run_flow) {
        if (run_bytes != 0) {
          sent_by_flow_[run_flow].fetch_add(run_bytes,
                                            std::memory_order_relaxed);
        }
        run_flow = packet.flow;
        run_bytes = 0;
      }
      run_bytes += packet.size_bytes;
      if (tracer_ != nullptr && packet.trace != 0) {
        complete_trace(packet, iface, sent_at);
      }
    }
    if (run_bytes != 0) {
      sent_by_flow_[run_flow].fetch_add(run_bytes, std::memory_order_relaxed);
    }
    rec.packets.fetch_add(count, std::memory_order_relaxed);
    rec.bytes.fetch_add(bytes, std::memory_order_relaxed);
    me.sent.fetch_add(count, std::memory_order_relaxed);
    me.sent_bytes.fetch_add(bytes, std::memory_order_relaxed);
  } else {
    // Mixed verdicts: per-packet accounting.  Requeued packets park in
    // dequeue order (the backend only pushes back suffixes, but the loop
    // does not rely on that); dropped packets are already counted inside
    // the backend's own series, here they feed the runtime identity.
    std::uint64_t pending_bytes = 0;
    std::uint64_t io_dropped = 0;
    for (std::size_t i = 0; i < burst.size(); ++i) {
      Packet& packet = burst[i];
      bytes += packet.size_bytes;
      switch (me.dispositions[i]) {
        case io::SendDisposition::kSent:
          account_sent(rec, me, packet, drained_at);
          if (tracer_ != nullptr && packet.trace != 0) {
            complete_trace(packet, iface, sent_at);
          }
          break;
        case io::SendDisposition::kRequeued:
          pending_bytes += packet.size_bytes;
          rec.pending.push_back(std::move(packet));
          break;
        case io::SendDisposition::kDropped:
          me.io_drops.fetch_add(1, std::memory_order_relaxed);
          ++io_dropped;
          drop_trace(packet);
          break;
        case io::SendDisposition::kInflight:
          // The backend holds its own reference; the verdict arrives via
          // reap_egress at the top of a later drain pass.  Nothing is
          // accounted here -- the packet is in the io_inflight term.
          break;
      }
    }
    rec.pending_packets.store(rec.pending.size(), std::memory_order_relaxed);
    rec.pending_bytes.store(
        rec.pending_bytes.load(std::memory_order_relaxed) + pending_bytes,
        std::memory_order_relaxed);
    if (outcome.requeued > 0) {
      me.io_requeued.fetch_add(outcome.requeued, std::memory_order_relaxed);
    }
    if (me.flight != nullptr && (outcome.requeued > 0 || io_dropped > 0)) {
      // Under a completion-driven backend every burst takes this branch
      // (fates deferred), so only real pushback/loss earns a flight entry.
      me.flight->log(static_cast<std::uint64_t>(sent_at),
                     telemetry::FlightCategory::kIo,
                     telemetry::FlightCode::kIoPushback, outcome.requeued,
                     io_dropped);
    }
  }
  // Pacer and backlog are charged for the WHOLE dequeued burst at dequeue
  // time: a requeued tail holds the link slot it already paid for (pacer
  // debt) and is not re-priced on retry.
  rec.pacer.consume(bytes);
  shard.backlog_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  me.dequeued.fetch_add(count, std::memory_order_relaxed);
  me.dequeued_bytes.fetch_add(bytes, std::memory_order_relaxed);
  me.bursts.fetch_add(1, std::memory_order_relaxed);
  if (me.span_cap != 0) {
    telemetry::TraceSpan span;
    span.kind = telemetry::TraceSpan::Kind::kDrain;
    span.worker = me.index;
    span.begin_ns = t0;
    span.end_ns = drained_at;
    span.iface = iface;
    span.packets = count;
    span.bytes = bytes;
    record_span(me, span);
  }
  burst.clear();
  return true;
}

void Runtime::record_span(Worker& me, telemetry::TraceSpan span) {
  if (me.spans.size() < me.span_cap) {
    me.spans.push_back(span);
  } else {
    me.spans_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Runtime::ingress_pending(const Worker& me) const {
  for (const std::uint32_t s : me.home_shards) {
    for (const auto& ring : shards_[s]->ingress) {
      if (!ring->empty_approx()) return true;
    }
  }
  return false;
}

void Runtime::park(Worker& me, SimTime hint_ns) {
  me.parks.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(me.park_mu);
  me.asleep.store(true, std::memory_order_seq_cst);
  // Fence-fence pairing with offer(): asleep is published before we
  // re-check the rings, and the producer fences between its ring push and
  // its asleep probe.  Whichever side's read happens "second" in the
  // seq_cst order sees the other's write -- so a packet pushed while we
  // park either finds asleep == true (and kicks) or is found by
  // ingress_pending() below.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!me.kicked.load(std::memory_order_seq_cst) &&
      running_.load(std::memory_order_acquire) && !ingress_pending(me)) {
    me.park_cv.wait_for(lock, std::chrono::nanoseconds(hint_ns), [&] {
      return me.kicked.load(std::memory_order_relaxed) ||
             !running_.load(std::memory_order_relaxed);
    });
  }
  me.kicked.store(false, std::memory_order_relaxed);
  me.asleep.store(false, std::memory_order_seq_cst);
}

void Runtime::kick(std::uint32_t worker) {
  if (worker >= workers_.size()) return;  // pre-start offers: nobody to wake
  Worker& target = *workers_[worker];
  target.kicked.store(true, std::memory_order_seq_cst);
  if (target.asleep.load(std::memory_order_seq_cst)) {
    // Taking the mutex orders us against the worker's check-then-wait; the
    // notify can then never fall between its predicate check and its wait.
    std::lock_guard<std::mutex> lock(target.park_mu);
    target.park_cv.notify_one();
  }
}

void Runtime::kick_if_asleep(std::uint32_t worker) {
  if (worker >= workers_.size()) return;  // pre-start offers: nobody to wake
  Worker& target = *workers_[worker];
  // Relaxed probe is enough: the caller's seq_cst fence (after its ring
  // push) paired with park()'s fence provides the Dekker guarantee; the
  // full kick() path below re-checks with its own ordering.
  if (target.asleep.load(std::memory_order_relaxed)) kick(worker);
}

// --- Runtime: introspection ----------------------------------------------

RuntimeStats Runtime::stats() const {
  RuntimeStats out;
  out.offered = offered_.load(std::memory_order_relaxed);
  out.ring_rejects = ring_rejects_.load(std::memory_order_relaxed);
  LatencySnapshot latency;
  for (const auto& worker : workers_) {
    out.enqueued += worker->enqueued.load(std::memory_order_relaxed);
    out.fanin_drops += worker->fanin_drops.load(std::memory_order_relaxed);
    out.tail_drops += worker->tail_drops.load(std::memory_order_relaxed);
    out.dequeued += worker->dequeued.load(std::memory_order_relaxed);
    out.dequeued_bytes +=
        worker->dequeued_bytes.load(std::memory_order_relaxed);
    out.sent += worker->sent.load(std::memory_order_relaxed);
    out.sent_bytes += worker->sent_bytes.load(std::memory_order_relaxed);
    out.io_requeued += worker->io_requeued.load(std::memory_order_relaxed);
    out.io_drops += worker->io_drops.load(std::memory_order_relaxed);
    out.bursts += worker->bursts.load(std::memory_order_relaxed);
    out.parks += worker->parks.load(std::memory_order_relaxed);
    out.shed_drops += worker->shed_drops.load(std::memory_order_relaxed);
    latency.add(worker->latency);
  }
  for (const auto& shard : shards_) {
    out.straggler_drops +=
        shard->straggler_drops.load(std::memory_order_relaxed);
  }
  for (IfaceId j = 0; j < ifaces_.size(); ++j) {
    out.io_pending +=
        ifaces_[j]->pending_packets.load(std::memory_order_relaxed);
    if (egress_ != nullptr) {
      out.io_send_errors += egress_->send_errors(j);
      out.io_inflight += egress_->inflight_packets(j);
    }
  }
  if (egress_ != nullptr) out.io_syscalls = egress_->syscalls();
  out.backpressure_rejects =
      backpressure_rejects_.load(std::memory_order_relaxed);
  out.quarantine_rejects = quarantine_rejects_.load(std::memory_order_relaxed);
  out.worker_restarts = worker_restarts_.load(std::memory_order_relaxed);
  out.latency_count = latency.count();
  out.latency_mean_ns = latency.mean_ns();
  out.latency_p50_ns = latency.quantile(0.50);
  out.latency_p90_ns = latency.quantile(0.90);
  out.latency_p99_ns = latency.quantile(0.99);
  out.latency_p999_ns = latency.quantile(0.999);
  return out;
}

std::uint64_t Runtime::sent_bytes(FlowId flow) const {
  if (flow >= sent_by_flow_.size()) return 0;
  return sent_by_flow_[flow].load(std::memory_order_relaxed);
}

std::uint64_t Runtime::iface_sent_bytes(IfaceId iface) const {
  MIDRR_REQUIRE(iface < ifaces_.size(), "unknown interface");
  return ifaces_[iface]->bytes.load(std::memory_order_relaxed);
}

std::uint64_t Runtime::iface_sent_packets(IfaceId iface) const {
  MIDRR_REQUIRE(iface < ifaces_.size(), "unknown interface");
  return ifaces_[iface]->packets.load(std::memory_order_relaxed);
}

std::uint64_t Runtime::iface_send_errors(IfaceId iface) const {
  MIDRR_REQUIRE(iface < ifaces_.size(), "unknown interface");
  return egress_ != nullptr ? egress_->send_errors(iface) : 0;
}

const io::EgressBackend& Runtime::egress() const {
  MIDRR_REQUIRE(egress_ != nullptr, "egress backend is bound at start()");
  return *egress_;
}

// --- Runtime: SupervisedRuntime (observe / actuate for fault::Supervisor) -

std::string Runtime::iface_name(IfaceId iface) const {
  MIDRR_REQUIRE(iface < ifaces_.size(), "unknown interface");
  return ifaces_[iface]->name;
}

double Runtime::iface_configured_bps(IfaceId iface, SimTime now) const {
  MIDRR_REQUIRE(iface < ifaces_.size(), "unknown interface");
  const RateProfile* profile = ifaces_[iface]->pacer.profile();
  return profile != nullptr ? profile->rate_at(now) : 0.0;
}

double Runtime::iface_tokens(IfaceId iface) const {
  MIDRR_REQUIRE(iface < ifaces_.size(), "unknown interface");
  return ifaces_[iface]->pacer.tokens_approx();
}

std::uint64_t Runtime::iface_backlog_bytes(IfaceId iface) const {
  MIDRR_REQUIRE(iface < ifaces_.size(), "unknown interface");
  return shards_[ifaces_[iface]->shard]->backlog_bytes.load(
      std::memory_order_relaxed);
}

std::uint64_t Runtime::worker_heartbeat(std::uint32_t worker) const {
  MIDRR_REQUIRE(worker < workers_.size(), "unknown worker");
  return workers_[worker]->heartbeat.load(std::memory_order_relaxed);
}

std::uint32_t Runtime::iface_shard(IfaceId iface) const {
  MIDRR_REQUIRE(iface < ifaces_.size(), "unknown interface");
  return static_cast<std::uint32_t>(ifaces_[iface]->shard);
}

bool Runtime::sample_e2e_buckets(LatencySnapshot& out) const {
  if (tracer_ == nullptr) return false;
  out = tracer_->e2e_merged();
  return true;
}

void Runtime::set_iface_down(IfaceId iface, bool down) {
  control().set_iface_down(iface, down);
}

bool Runtime::restart_worker(std::uint32_t worker) {
  if (options_.fault == nullptr || worker >= workers_.size()) return false;
  std::lock_guard<std::mutex> lock(restart_mu_);
  if (!running()) return false;
  Worker& slot = *workers_[worker];
  // begin_restart succeeds ONLY when the thread is parked at the stall
  // safe point (holding no locks, mid-operation state impossible); it
  // bumps the generation under the injector's stall mutex, so the old
  // thread observes kSuperseded before touching anything, and preempts
  // its park.  Shard state (scheduler queues, id maps, rings) lives in
  // the Shard/IfaceRec structures, not the thread -- the replacement
  // picks it all up untouched.
  if (!options_.fault->begin_restart(worker, slot.generation)) return false;
  retired_.push_back(std::move(slot.thread));
  const std::uint64_t generation =
      slot.generation.load(std::memory_order_relaxed);
  slot.thread = std::thread(
      [this, worker, generation] { worker_main(worker, generation); });
  worker_restarts_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// --- Runtime: telemetry ---------------------------------------------------

void Runtime::register_metrics() {
  auto& reg = *options_.metrics;
  const auto count_of = [](const std::atomic<std::uint64_t>& v) {
    return [&v] { return static_cast<double>(v.load(std::memory_order_relaxed)); };
  };
  reg.counter_fn("midrr_rt_offered_packets_total",
                 "Packets accepted into ingress rings.", {},
                 count_of(offered_));
  reg.counter_fn("midrr_rt_ring_rejects_total",
                 "Offers refused: ingress ring full or no hosting shard.", {},
                 count_of(ring_rejects_));
  reg.gauge_fn("midrr_rt_rcu_epoch_lag",
               "RCU epochs between the control plane and its slowest "
               "in-flight reader (persistently > 0 means a reader parks "
               "inside critical sections).",
               {}, [this] {
                 return static_cast<double>(control_->max_reader_lag());
               });
  reg.gauge_fn("midrr_rt_snapshot_version",
               "Version of the currently published configuration snapshot.",
               {}, [this] { return static_cast<double>(control_->version()); });
  reg.counter_fn("midrr_rt_backpressure_rejects_total",
                 "Offers refused by the shard-backlog admission watermark.",
                 {}, count_of(backpressure_rejects_));
  reg.counter_fn("midrr_rt_quarantine_rejects_total",
                 "Offers refused because the flow has no live willing "
                 "interface (quarantined until a revive re-steers it).",
                 {}, count_of(quarantine_rejects_));
  reg.counter_fn("midrr_rt_worker_restarts_total",
                 "Worker drain loops respawned by the supervision watchdog.",
                 {}, count_of(worker_restarts_));
  reg.gauge_fn("midrr_rt_quarantined_flows",
               "Live flows currently quarantined (non-empty Pi row, no live "
               "willing interface).",
               {}, [this] {
                 return static_cast<double>(control_->quarantined_count());
               });
  reg.gauge_fn("midrr_rt_flow_classes",
               "Live flow classes: distinct (Pi row, weight, queue bound) "
               "tuples currently holding members.  Publish cost and snapshot "
               "size scale with this, not with registered flows.",
               {}, [this] {
                 return static_cast<double>(control_->class_count());
               });
  reg.gauge_fn("midrr_rt_registered_flows",
               "Registered flows (summed members across live classes).", {},
               [this] {
                 return static_cast<double>(control_->flow_count());
               });

  for (const auto& wp : workers_) {
    Worker* w = wp.get();
    const telemetry::LabelSet labels{{"worker", std::to_string(w->index)}};
    reg.counter_fn("midrr_rt_enqueued_packets_total",
                   "Packets handed to shard schedulers by fan-in.", labels,
                   count_of(w->enqueued));
    reg.counter_fn("midrr_rt_straggler_drops_total",
                   "Ingress packets dropped at fan-in because their flow was "
                   "removed after they entered the ring.",
                   labels, count_of(w->fanin_drops));
    reg.counter_fn("midrr_rt_tail_drops_total",
                   "Packets refused by a flow's scheduler queue bound.",
                   labels, count_of(w->tail_drops));
    reg.counter_fn("midrr_rt_dequeued_packets_total",
                   "Packets pulled out of shard schedulers (handed to the "
                   "egress backend; not terminal -- see "
                   "midrr_rt_sent_packets_total).",
                   labels, count_of(w->dequeued));
    reg.counter_fn("midrr_rt_dequeued_bytes_total",
                   "Bytes pulled out of shard schedulers.", labels,
                   count_of(w->dequeued_bytes));
    reg.counter_fn("midrr_rt_sent_packets_total",
                   "Packets the egress backend delivered (== dequeued under "
                   "the sim backend).",
                   labels, count_of(w->sent));
    reg.counter_fn("midrr_rt_sent_bytes_total",
                   "Scheduler bytes of delivered packets.", labels,
                   count_of(w->sent_bytes));
    reg.counter_fn("midrr_rt_io_requeued_total",
                   "Egress requeue events in packets (socket pushback "
                   "parked for retry; retries that push back count again).",
                   labels, count_of(w->io_requeued));
    reg.counter_fn("midrr_rt_io_drops_total",
                   "Packets terminally dropped by the egress backend "
                   "(oversize, hard errno, unflushable at stop).",
                   labels, count_of(w->io_drops));
    reg.counter_fn("midrr_rt_bursts_total",
                   "dequeue_burst calls that moved at least one packet.",
                   labels, count_of(w->bursts));
    reg.counter_fn("midrr_rt_parks_total",
                   "Times this worker went to sleep with nothing to do.",
                   labels, count_of(w->parks));
    reg.counter_fn("midrr_rt_shed_drops_total",
                   "Packets shed at fan-in by the overload watermark "
                   "(weight-aware fair-share trimming).",
                   labels, count_of(w->shed_drops));
    reg.gauge_fn("midrr_rt_worker_heartbeat",
                 "Drain-loop liveness tick; a frozen value marks a stalled "
                 "worker.",
                 labels, count_of(w->heartbeat));
    if (options_.trace_spans > 0) {
      reg.counter_fn("midrr_rt_trace_spans_dropped_total",
                     "Work spans discarded because the per-worker trace "
                     "buffer was full (the exported timeline is truncated).",
                     labels, count_of(w->spans_dropped));
    }
  }

  for (const auto& rp : ifaces_) {
    IfaceRec* rec = rp.get();
    const telemetry::LabelSet labels{{"iface", rec->name}};
    reg.counter_fn("midrr_rt_iface_sent_packets_total",
                   "Packets drained through this interface.", labels,
                   count_of(rec->packets));
    reg.counter_fn("midrr_rt_iface_sent_bytes_total",
                   "Bytes drained through this interface.", labels,
                   count_of(rec->bytes));
    reg.gauge_fn("midrr_rt_pacer_tokens_bytes",
                 "Token-bucket balance in bytes; negative values are pacer "
                 "debt (an overshoot still being paid back).",
                 labels, [rec] { return rec->pacer.tokens_approx(); });
    reg.gauge_fn("midrr_rt_io_pending_packets",
                 "Packets parked by the egress backend awaiting a retry "
                 "(already dequeued and pacer-charged; bounded by one "
                 "burst).",
                 labels, count_of(rec->pending_packets));
    if (egress_completion_driven_) {
      const IfaceId rec_id = rec->id;
      reg.gauge_fn(
          "midrr_rt_io_inflight_packets",
          "Packets inside the completion-driven egress backend (accepted "
          "into the kernel, verdict pending; the io_inflight term of the "
          "conservation identity -- zero at quiescence).",
          labels, [this, rec_id] {
            return static_cast<double>(egress_->inflight_packets(rec_id));
          });
    }
    if (rec->pacer.profile() != nullptr) {
      reg.gauge_fn("midrr_rt_iface_capacity_bps",
                   "Instantaneous configured link capacity (bits/s) from "
                   "the interface's rate profile.",
                   labels, [this, rec] {
                     return rec->pacer.profile()->rate_at(now_ns());
                   });
    }
  }

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard* shard = shards_[s].get();
    const telemetry::LabelSet labels{{"shard", std::to_string(s)}};
    reg.gauge_fn("midrr_rt_shard_backlog_bytes",
                 "Bytes queued in this shard's scheduler (fan-in accepted "
                 "minus drained minus removed-flow discards).",
                 labels, count_of(shard->backlog_bytes));
    reg.counter_fn("midrr_rt_flow_backlog_drops_total",
                   "Queued packets discarded because their flow left this "
                   "shard (remove or interface-death re-steer); every one "
                   "is counted loss, never silent.",
                   labels, count_of(shard->straggler_drops));
    reg.gauge_fn("midrr_rt_ingress_ring_occupancy",
                 "Packets waiting in this shard's ingress rings (approximate"
                 "; summed over producers).",
                 labels, [shard] {
                   std::uint64_t waiting = 0;
                   for (const auto& ring : shard->ingress) {
                     waiting += ring->size_approx();
                   }
                   return static_cast<double>(waiting);
                 });
    if (shard->recorder != nullptr) {
      // overflowed() is written under the shard mutex; the scrape takes it
      // too (leaf lock, scrape-rate only -- never under another lock here).
      reg.counter_fn("midrr_rt_trace_events_lost_total",
                     "Scheduler trace events evicted from the ring buffer "
                     "(the captured timeline is truncated).",
                     labels, [shard] {
                       std::lock_guard<std::mutex> lock(shard->mu);
                       return static_cast<double>(shard->recorder->overflowed());
                     });
    }
  }

  // Egress: one info-style gauge naming the active backend, then whatever
  // midrr_io_* series the backend itself exports (syscalls, batch sizes,
  // send errors...).
  reg.gauge_fn("midrr_rt_egress_backend",
               "Constant 1; the label names the active egress backend.",
               {{"backend", egress_->name()}}, [] { return 1.0; });
  egress_->register_metrics(reg);

  if (tracer_ != nullptr) {
    std::vector<std::string> iface_names;
    iface_names.reserve(ifaces_.size());
    for (const auto& rec : ifaces_) iface_names.push_back(rec->name);
    tracer_->register_metrics(reg, iface_names);
  }
  if (options_.slo != nullptr) {
    options_.slo->register_metrics(
        reg, [this] { return static_cast<std::uint64_t>(now_ns()); });
  }
  if (options_.flight != nullptr) {
    telemetry::FlightRecorder* flight = options_.flight;
    reg.counter_fn("midrr_flight_events_total",
                   "Events logged into flight-recorder rings (all writers; "
                   "not capped by ring capacity).",
                   {}, [flight] {
                     return static_cast<double>(flight->events_logged());
                   });
    reg.counter_fn("midrr_flight_dumps_total",
                   "Post-mortem flight-recorder dumps written to disk.", {},
                   [flight] {
                     return static_cast<double>(flight->dumps());
                   });
  }
}

telemetry::FairnessSample Runtime::fairness_sample() {
  MIDRR_REQUIRE(control_ != nullptr,
                "fairness_sample needs the control plane (start() first)");
  telemetry::FairnessSample out;
  out.at_ns = now_ns();
  const std::size_t iface_total = ifaces_.size();
  out.capacities_bps.reserve(iface_total);
  out.iface_sent_bytes.reserve(iface_total);
  // Measured-capacity re-lowering: with an overlay armed, drooped links
  // report their EFFECTIVE capacity (configured x clamped drift ratio).
  // Every consumer of this sample -- the max-min solver, the fairness
  // drift sampler, the supervisor's Theorem-2 replay -- then reasons about
  // the link the hardware is actually providing, not the configured one.
  const fault::AdaptiveController* overlay =
      capacity_overlay_.load(std::memory_order_acquire);
  IfaceId overlay_iface = 0;
  for (const auto& rec : ifaces_) {
    const RateProfile* profile = rec->pacer.profile();
    double capacity =
        profile != nullptr ? profile->rate_at(out.at_ns) : -1.0;
    if (overlay != nullptr && capacity > 0.0) {
      capacity = overlay->effective_capacity_bps(overlay_iface, capacity);
    }
    out.capacities_bps.push_back(capacity);
    out.iface_sent_bytes.push_back(
        rec->bytes.load(std::memory_order_relaxed));
    ++overlay_iface;
  }
  // A fresh reader per call claims and releases an RCU slot (one CAS scan);
  // fine at sampler rates, and it keeps this callable from any thread.
  auto reader = control_->reader();
  {
    const auto guard = reader.lock();
    // One pass over the flow directory folds per-flow service counters
    // into per-class totals: O(max_flows) relaxed loads at sampler rate,
    // and everything downstream (rows, solver) stays O(classes).  A flow
    // removed mid-window takes its bytes out of its class's total; the
    // sampler clamps the resulting negative window delta to zero.
    std::vector<std::uint64_t> class_sent(guard->class_slots(), 0);
    for (FlowId f = 0; f < sent_by_flow_.size(); ++f) {
      const std::uint64_t bytes =
          sent_by_flow_[f].load(std::memory_order_relaxed);
      if (bytes == 0) continue;
      const ClassId c = control_->class_of(f);
      if (c != kInvalidClass && c < class_sent.size()) class_sent[c] += bytes;
    }
    out.flows.reserve(guard->live.size());
    for (const ClassId id : guard->live) {
      const SnapshotClass& entry = guard->entry(id);
      telemetry::FairnessFlowSample fs;
      fs.id = id;
      fs.name = entry.name.empty() ? "class" + std::to_string(id) : entry.name;
      fs.weight = entry.weight;
      fs.members = entry.members;
      fs.willing.assign(iface_total, false);
      for (const IfaceId j : entry.willing) {
        if (j < iface_total) fs.willing[j] = true;
      }
      fs.sent_bytes = class_sent[id];
      out.flows.push_back(std::move(fs));
    }
  }
  return out;
}

void Runtime::export_trace(telemetry::ChromeTraceBuilder& builder) const {
  MIDRR_REQUIRE(!running(),
                "export_trace requires a stopped runtime (recorders and "
                "span buffers are written by worker threads while running)");
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    if (shard.recorder == nullptr) continue;
    const std::uint32_t pid = static_cast<std::uint32_t>(2 + s);
    builder.set_process_name(pid, "shard " + std::to_string(s) + " scheduler");
    builder.add_recorder(*shard.recorder, pid);
  }
  std::vector<telemetry::TraceSpan> spans;
  for (const auto& worker : workers_) {
    spans.insert(spans.end(), worker->spans.begin(), worker->spans.end());
  }
  if (!spans.empty()) {
    builder.set_process_name(1, "runtime workers");
    builder.add_spans(spans, 1);
  }
}

const TraceRecorder* Runtime::shard_recorder(std::size_t shard) const {
  MIDRR_REQUIRE(shard < shards_.size(), "unknown shard");
  return shards_[shard]->recorder.get();
}

}  // namespace midrr::rt
