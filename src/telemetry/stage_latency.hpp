// Per-packet stage tracing: where a packet's time goes, not just how much.
//
// The runtime's one latency series (midrr_rt_packet_wait_ns) collapses the
// whole pipeline into enqueue->drain.  This layer attributes a sampled
// subset of packets to every lifecycle stage instead:
//
//   offer (IngressPort)     t_offer    -- ingress-ring entry
//   fan-in pop + enqueue    t_fanin    -- one stamp per fan-in batch
//   pacer grant + dequeue   t_dequeue  -- dequeue happens only when the
//                                         pacer granted budget, so this
//                                         covers pacer gating too
//   egress resolution       t_sent     -- sendmmsg return (or sim sink),
//                                         including stash/retry residence
//
// giving three measured stages per sample plus the end-to-end total:
//
//   ring   = t_fanin   - t_offer     (SPSC ring residence)
//   queue  = t_dequeue - t_fanin     (scheduler queue + pacer gating)
//   egress = t_sent    - t_dequeue   (syscall + requeue stash)
//   e2e    = t_sent    - t_offer     == ring + queue + egress, EXACTLY
//
// All four durations are computed from the same stamps at the single
// completion point, so the reconciliation invariant holds on histogram
// SUMS exactly (quantiles carry the usual <= 12.5% bucket error).
//
// Zero-alloc transport: stamps live in a preallocated arena of
// generation-tagged records; the Packet carries only a 64-bit trace tag
// (0 = untraced).  Each producer lane owns a private slot range used
// round-robin -- no freelist, no cross-thread coordination on the claim
// path.  Completion and death release the record (a single CAS), and a
// claim SKIPS a slot still held by an in-flight sample younger than
// `reuse_grace_ns` rather than trampling it -- otherwise a saturating
// producer (offer rate >> drain rate) recycles every live record before
// its packet completes and the histograms starve of samples exactly when
// overload control needs them.  Slots held past the grace (a leaked
// record whose packet died on an unaccounted path) are reclaimed by the
// old trample-and-detect rule: the stale completion fails its tag check
// and is counted lost; it can never corrupt the histograms.  Every record
// field is a relaxed atomic, so concurrent stale writers are benign races
// by construction (TSan-clean).
//
// Sampling is deterministic 1-in-N per flow per lane: lane-local per-flow
// offer counters, sample when count % N == 0.  N == 1 traces everything
// (tests); the runtime default is 64, budgeted at <= 5% pps overhead
// (measured by bench/rt_throughput's latency_attribution cells).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flow/ids.hpp"
#include "telemetry/metrics.hpp"
#include "util/latency_histogram.hpp"

namespace midrr::telemetry {

/// The measured stages, in pipeline order.
enum class Stage : std::uint8_t { kRing = 0, kQueue = 1, kEgress = 2 };
inline constexpr std::size_t kStageCount = 3;

const char* to_string(Stage stage);

class StageTracer {
 public:
  struct Options {
    /// Sample every Nth packet of each flow (per lane); >= 1.
    std::uint32_t sample_every = 64;
    /// In-flight records per producer lane; recycling a slot whose packet
    /// is still in flight loses that one sample (counted), so this bounds
    /// lanes * slots concurrent traced packets.
    std::uint32_t slots_per_lane = 1024;
    /// A claim finding its slot held by a sample younger than this skips
    /// (counted) instead of recycling the live record; older holds are
    /// presumed leaked and trampled as before.  0 restores unconditional
    /// recycling.
    std::uint64_t reuse_grace_ns = 100'000'000;
  };

  /// `lanes` = producer count (one claim cursor each); `ifaces` sizes the
  /// per-interface histogram grids; `max_flows` bounds the per-lane
  /// sampling counters (flow ids are arena-bounded upstream).
  StageTracer(std::size_t lanes, std::size_t ifaces, std::size_t max_flows,
              Options options);

  StageTracer(const StageTracer&) = delete;
  StageTracer& operator=(const StageTracer&) = delete;

  // --- Producer side (lane-owned; exactly one thread per lane) -----------

  /// Decides whether this flow's next packet is sampled; claims a record
  /// and returns its non-zero trace tag if so, 0 (untraced) otherwise.
  std::uint64_t maybe_begin(std::size_t lane, FlowId flow,
                            std::uint64_t t_offer);

  // --- Stage writers (any thread; no-ops on a recycled tag) --------------

  void stamp_fanin(std::uint64_t tag, std::uint64_t t) {
    stamp(tag, t, /*field=*/1);
  }
  void stamp_dequeue(std::uint64_t tag, std::uint64_t t) {
    stamp(tag, t, /*field=*/2);
  }

  // --- Completion (the worker that resolved the packet's egress) ---------

  /// Validates the record against `t_offer_expected` (the packet's own
  /// enqueue stamp) and, if it survived, folds all four durations into
  /// `iface`'s histograms.  Returns true with `*e2e_ns` set on success;
  /// false (counted lost) when the record was recycled or its stamps are
  /// incoherent.  `*flow_out` (optional) receives the GLOBAL flow id the
  /// sample was claimed for at maybe_begin -- the authoritative identity
  /// for class attribution, since the packet's own flow field is
  /// rewritten to a shard-local id at fan-in.
  bool complete(std::uint64_t tag, std::uint64_t t_offer_expected,
                std::uint64_t t_sent, IfaceId iface, std::uint64_t* e2e_ns,
                FlowId* flow_out = nullptr);

  /// The traced packet died before egress (shed, straggler, io drop...).
  /// Counts the death and releases the record (if still this sample's) so
  /// the lane can re-claim the slot immediately.
  void drop_sample(std::uint64_t tag) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    release(tag);
  }

  // --- Exposition ---------------------------------------------------------

  /// Registers midrr_stage_* series: per-(iface, stage) latency histograms,
  /// per-iface e2e histograms, sample outcome counters, and the
  /// reconciliation error gauge.  `iface_names` indexes by IfaceId.
  void register_metrics(MetricsRegistry& registry,
                        const std::vector<std::string>& iface_names);

  // --- Introspection (tests, reports) -------------------------------------

  std::uint32_t sample_every() const { return options_.sample_every; }
  std::uint64_t started() const {
    return started_.load(std::memory_order_relaxed);
  }
  std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  std::uint64_t lost() const { return lost_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t skipped() const {
    return skipped_.load(std::memory_order_relaxed);
  }

  const LatencyHistogram& stage_grid(IfaceId iface, Stage stage) const {
    return stats_[iface]->stage[static_cast<std::size_t>(stage)];
  }
  const LatencyHistogram& e2e_grid(IfaceId iface) const {
    return stats_[iface]->e2e;
  }
  /// `stage`'s grids, or the e2e grids, summed over interfaces.
  LatencySnapshot stage_merged(Stage stage) const;
  LatencySnapshot e2e_merged() const;

  /// Sum over interfaces of (ring + queue + egress) histogram sums minus
  /// the e2e sums, as a fraction of the e2e sum.  0 when the invariant
  /// holds (it always should -- the stages partition e2e by construction);
  /// exported so a regression is visible on any dashboard.
  double reconciliation_error() const;

 private:
  /// One in-flight sample.  Fields are relaxed atomics so stale writers
  /// (a recycled slot's old packet) are benign; coherence is enforced at
  /// completion, not at write time.
  struct Record {
    std::atomic<std::uint64_t> tag{0};
    std::atomic<std::uint64_t> t_offer{0};
    std::atomic<std::uint64_t> t_fanin{0};
    std::atomic<std::uint64_t> t_dequeue{0};
    std::atomic<FlowId> flow{kInvalidFlow};  ///< global id, set at claim
  };

  struct Lane {
    std::vector<std::uint32_t> flow_count;  ///< per-flow offers seen
    std::vector<std::uint32_t> generation;  ///< per local slot, starts at 1
    std::uint32_t cursor = 0;               ///< round-robin local slot
  };

  /// register_metrics exports these grids as the midrr_stage_* histograms.
  struct IfaceStats {
    LatencyHistogram stage[kStageCount];
    LatencyHistogram e2e;
  };

  void stamp(std::uint64_t tag, std::uint64_t t, unsigned field);
  /// Frees `tag`'s record if it is still the live occupant (a CAS, so a
  /// slot already re-claimed by the lane is left alone).
  void release(std::uint64_t tag);

  Options options_;
  std::vector<Record> records_;  ///< [lane * slots_per_lane + local]
  std::vector<Lane> lanes_;
  std::vector<std::unique_ptr<IfaceStats>> stats_;  ///< by IfaceId
  std::atomic<std::uint64_t> started_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> lost_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> skipped_{0};
};

}  // namespace midrr::telemetry
