#include "telemetry/stage_latency.hpp"

#include "util/assert.hpp"

namespace midrr::telemetry {

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kRing: return "ring";
    case Stage::kQueue: return "queue";
    case Stage::kEgress: return "egress";
  }
  return "?";
}

StageTracer::StageTracer(std::size_t lanes, std::size_t ifaces,
                         std::size_t max_flows, Options options)
    : options_(options), records_(lanes * options.slots_per_lane) {
  MIDRR_REQUIRE(options_.sample_every >= 1, "sample_every must be >= 1");
  MIDRR_REQUIRE(options_.slots_per_lane >= 1, "slots_per_lane must be >= 1");
  MIDRR_REQUIRE(lanes >= 1, "tracer needs at least one lane");
  lanes_.resize(lanes);
  for (Lane& lane : lanes_) {
    lane.flow_count.assign(max_flows, 0);
    lane.generation.assign(options_.slots_per_lane, 0);
  }
  stats_.reserve(ifaces);
  for (std::size_t j = 0; j < ifaces; ++j) {
    stats_.push_back(std::make_unique<IfaceStats>());
  }
}

std::uint64_t StageTracer::maybe_begin(std::size_t lane_index, FlowId flow,
                                       std::uint64_t t_offer) {
  Lane& lane = lanes_[lane_index];
  if (flow >= lane.flow_count.size()) return 0;  // out-of-arena: never live
  if (lane.flow_count[flow]++ % options_.sample_every != 0) return 0;
  const std::uint32_t local = lane.cursor % options_.slots_per_lane;
  const std::uint64_t slot =
      static_cast<std::uint64_t>(lane_index) * options_.slots_per_lane + local;
  Record& rec = records_[slot];
  if (options_.reuse_grace_ns > 0) {
    // A held slot means its packet is still in flight (completion and
    // death both release).  Trampling it would starve the histograms of
    // completions exactly when a saturating producer outruns the drain --
    // skip this sample instead, and advance the cursor so consecutive
    // skips sweep the lane for out-of-order frees.  Holds older than the
    // grace are leaked records; fall through and recycle those.
    const std::uint64_t occupant = rec.tag.load(std::memory_order_acquire);
    if (occupant != 0) {
      const std::uint64_t held = rec.t_offer.load(std::memory_order_relaxed);
      if (t_offer >= held && t_offer - held < options_.reuse_grace_ns) {
        ++lane.cursor;
        skipped_.fetch_add(1, std::memory_order_relaxed);
        return 0;
      }
    }
  }
  ++lane.cursor;
  const std::uint32_t generation = ++lane.generation[local];  // starts at 1
  const std::uint64_t tag = (static_cast<std::uint64_t>(generation) << 32) |
                            slot;
  // Invalidate first so a racing completion of the PREVIOUS occupant fails
  // its tag check instead of reading half-reset stamps, then publish the
  // new tag last.
  rec.tag.store(0, std::memory_order_relaxed);
  rec.t_fanin.store(0, std::memory_order_relaxed);
  rec.t_dequeue.store(0, std::memory_order_relaxed);
  rec.t_offer.store(t_offer, std::memory_order_relaxed);
  rec.flow.store(flow, std::memory_order_relaxed);
  rec.tag.store(tag, std::memory_order_release);
  started_.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

void StageTracer::stamp(std::uint64_t tag, std::uint64_t t, unsigned field) {
  const std::uint64_t slot = tag & 0xffffffffULL;
  if (slot >= records_.size()) return;
  Record& rec = records_[slot];
  // Check-then-write: a slot recycled inside this nanosecond-scale window
  // could take a stale stamp, but the completion-side coherence checks
  // (t_offer match + stage monotonicity) catch the fallout -- at worst one
  // counted lost sample, never a corrupt histogram.
  if (rec.tag.load(std::memory_order_acquire) != tag) return;
  (field == 1 ? rec.t_fanin : rec.t_dequeue)
      .store(t, std::memory_order_relaxed);
}

bool StageTracer::complete(std::uint64_t tag, std::uint64_t t_offer_expected,
                          std::uint64_t t_sent, IfaceId iface,
                          std::uint64_t* e2e_ns, FlowId* flow_out) {
  const std::uint64_t slot = tag & 0xffffffffULL;
  if (slot >= records_.size() || iface >= stats_.size()) {
    lost_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Record& rec = records_[slot];
  if (rec.tag.load(std::memory_order_acquire) != tag) {
    lost_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::uint64_t t_offer = rec.t_offer.load(std::memory_order_relaxed);
  const std::uint64_t t_fanin = rec.t_fanin.load(std::memory_order_relaxed);
  const std::uint64_t t_dequeue =
      rec.t_dequeue.load(std::memory_order_relaxed);
  const FlowId flow = rec.flow.load(std::memory_order_relaxed);
  // Seqlock-style re-validation: if the lane recycled the slot while we
  // were reading, the tag has moved on and the stamps above may mix two
  // packets -- discard.
  if (rec.tag.load(std::memory_order_acquire) != tag) {
    lost_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Coherence: the record must belong to THIS packet (offer stamps are
  // clock reads, unique enough with the tag to rule out aliasing) and the
  // stamps must be monotone through the pipeline.
  if (t_offer != t_offer_expected || t_fanin < t_offer ||
      t_dequeue < t_fanin || t_sent < t_dequeue || t_fanin == 0 ||
      t_dequeue == 0) {
    lost_.fetch_add(1, std::memory_order_relaxed);
    release(tag);  // this packet's record: done with it either way
    return false;
  }
  IfaceStats& stats = *stats_[iface];
  const std::uint64_t durations[kStageCount] = {
      t_fanin - t_offer, t_dequeue - t_fanin, t_sent - t_dequeue};
  for (std::size_t s = 0; s < kStageCount; ++s) {
    stats.stage[s].record(durations[s]);
  }
  const std::uint64_t e2e = t_sent - t_offer;
  stats.e2e.record(e2e);
  completed_.fetch_add(1, std::memory_order_relaxed);
  release(tag);
  if (e2e_ns != nullptr) *e2e_ns = e2e;
  if (flow_out != nullptr) *flow_out = flow;
  return true;
}

void StageTracer::release(std::uint64_t tag) {
  const std::uint64_t slot = tag & 0xffffffffULL;
  if (tag == 0 || slot >= records_.size()) return;
  // CAS: only free the record if this sample still owns it -- a lane that
  // already trampled and re-claimed the slot must not lose its occupant.
  std::uint64_t expected = tag;
  records_[slot].tag.compare_exchange_strong(expected, 0,
                                             std::memory_order_release,
                                             std::memory_order_relaxed);
}

double StageTracer::reconciliation_error() const {
  std::uint64_t stage_sum = 0;
  std::uint64_t e2e_sum = 0;
  for (const auto& stats : stats_) {
    for (const LatencyHistogram& grid : stats->stage) {
      stage_sum += grid.sum_raw();
    }
    e2e_sum += stats->e2e.sum_raw();
  }
  if (e2e_sum == 0) return 0.0;
  const double diff = stage_sum >= e2e_sum
                          ? static_cast<double>(stage_sum - e2e_sum)
                          : static_cast<double>(e2e_sum - stage_sum);
  return diff / static_cast<double>(e2e_sum);
}

LatencySnapshot StageTracer::stage_merged(Stage stage) const {
  LatencySnapshot out;
  for (const auto& stats : stats_) {
    out.add(stats->stage[static_cast<std::size_t>(stage)]);
  }
  return out;
}

LatencySnapshot StageTracer::e2e_merged() const {
  LatencySnapshot out;
  for (const auto& stats : stats_) out.add(stats->e2e);
  return out;
}

void StageTracer::register_metrics(
    MetricsRegistry& registry, const std::vector<std::string>& iface_names) {
  const auto count_of = [](const std::atomic<std::uint64_t>& v) {
    return [&v] {
      return static_cast<double>(v.load(std::memory_order_relaxed));
    };
  };
  registry.gauge_fn("midrr_stage_sample_every",
                    "Deterministic per-flow sampling period: every Nth "
                    "packet of each flow is stage-traced.",
                    {}, [this] {
                      return static_cast<double>(options_.sample_every);
                    });
  registry.counter_fn("midrr_stage_samples_total",
                      "Stage-trace samples claimed at ingress.",
                      {{"outcome", "started"}}, count_of(started_));
  registry.counter_fn("midrr_stage_samples_total",
                      "Stage-trace samples that completed with coherent "
                      "stamps (folded into the stage histograms).",
                      {{"outcome", "completed"}}, count_of(completed_));
  registry.counter_fn("midrr_stage_samples_total",
                      "Stage-trace samples discarded at completion: the "
                      "arena slot was recycled mid-flight or the stamps "
                      "were incoherent.  Never corrupts, only loses.",
                      {{"outcome", "lost"}}, count_of(lost_));
  registry.counter_fn("midrr_stage_samples_total",
                      "Stage-traced packets that died before egress "
                      "(shed, straggler, io drop).",
                      {{"outcome", "dropped"}}, count_of(dropped_));
  registry.counter_fn("midrr_stage_samples_total",
                      "Claims skipped because every lane slot was held by "
                      "an in-flight sample (producer outrunning the drain; "
                      "sampling degrades to the completion rate instead of "
                      "trampling live records).",
                      {{"outcome", "skipped"}}, count_of(skipped_));
  registry.gauge_fn("midrr_stage_reconciliation_error_ratio",
                    "|sum(ring)+sum(queue)+sum(egress) - sum(e2e)| / "
                    "sum(e2e) across all interfaces.  The stages partition "
                    "the end-to-end latency by construction, so anything "
                    "but 0 is a tracer bug.",
                    {}, [this] { return reconciliation_error(); });
  for (std::size_t j = 0; j < stats_.size(); ++j) {
    const std::string name =
        j < iface_names.size() ? iface_names[j] : "if" + std::to_string(j);
    const IfaceStats& stats = *stats_[j];
    for (std::size_t s = 0; s < kStageCount; ++s) {
      registry.histogram_grid(
          "midrr_stage_latency_ns",
          "Per-stage latency of sampled packets: ring = ingress-ring "
          "residence, queue = scheduler queue + pacer gating, egress = "
          "syscall + requeue stash.  Stages sum to midrr_stage_e2e_ns.",
          {{"iface", name}, {"stage", to_string(static_cast<Stage>(s))}},
          stats.stage[s]);
    }
    registry.histogram_grid(
        "midrr_stage_e2e_ns",
        "End-to-end (offer to egress resolution) latency of sampled "
        "packets, attributed to the interface the packet left on.",
        {{"iface", name}}, stats.e2e);
  }
}

}  // namespace midrr::telemetry
