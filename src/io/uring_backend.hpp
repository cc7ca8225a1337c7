// UringBackend: completion-driven io_uring egress -- the fast path that
// amortizes transmit syscalls (one io_uring_enter per paced burst, fewer
// under load) and sends straight from PacketPool slab memory.
//
// Submission model: all interfaces driven by one worker thread share one
// ring (attach_topology maps iface -> ring).  send_burst serializes each
// packet, pushes one SQE, and issues a SINGLE submit for the whole burst;
// every accepted packet is answered kInflight and its terminal fate
// arrives later as a CQE.
//
// Zero-copy path: when the frame is pooled with enough headroom, solely
// owned (use_count() == 1 -- a fault-injected duplicate shares the frame
// and must not race the scratch bytes), and its slab was registered via
// register_frame_pool, the wire header is written into the frame's
// headroom so [header|payload] is ONE contiguous range inside a
// registered buffer: IORING_OP_SEND_ZC + IORING_RECVSEND_FIXED_BUF, no
// payload copy anywhere in user space and no page pinning per send.
// Everything else (heap frames, shared frames, unregistered slabs,
// frameless packets) takes the fallback: header in a per-slot arena,
// plain SENDMSG sqe (kernel copies, like the UDP backend).  Both paths
// are counted (fixed_sends / fallback_sends) so the zero-copy claim is
// testable, not aspirational.
//
// Completion contract (the heart of this backend):
//   * res == wire bytes            -> kSent, staged for poll_completions.
//   * res >= 0 but short           -> kDropped (counted short_write; the
//     sequence number stays consumed, a receiver gap IS this loss).
//   * transient errno (EAGAIN/ENOBUFS/EINTR/ENOMEM) -> retried INTERNALLY:
//     the slot keeps its serialized header -- same sequence number -- so
//     the retry can never punch a phantom gap into the wire ledger.  The
//     runtime's stash only ever receives SUBMISSION-time pushback (SQ or
//     slot exhaustion), which is unstamped and needs no seq rewind.
//   * hard errno                   -> kDropped + send_errors.
//   * SEND_ZC posts TWO CQEs: the result (F_MORE) and a buffer-release
//     notification (F_NOTIF).  The slot -- and the frame reference pinning
//     the slab slot -- is held until the notification, because the kernel
//     may still be reading the buffer after the result lands.
//
// The runtime extends its conservation identity with the in-flight term:
//   dequeued == sent + io_drops + io_pending + io_inflight
// inflight_packets() counts packets accepted by send_burst and not yet
// handed back through poll_completions/reclaim_inflight; it drains to
// zero at quiescence (flush() submits stragglers and waits briefly for
// their CQEs; reclaim_inflight force-drops whatever the kernel never
// answered, so stop() always closes the ledger).
//
// Threading: attach/attach_topology/register_frame_pool run before the
// workers start driving bursts (matching UringApi's attach-time contract
// for ring_create/register_buffer; registration additionally swaps an
// immutable region table behind an atomic shared_ptr, so a reader racing
// the publish still sees a complete old-or-new table).
// send_burst/poll_completions/flush/reclaim_inflight for an interface run
// only on its owning worker (single-threaded during stop()).
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/dest.hpp"
#include "io/egress.hpp"
#include "io/socket_api.hpp"
#include "io/uring_api.hpp"
#include "io/wire.hpp"
#include "net/frame_pool.hpp"

namespace midrr::io {

struct UringBackendOptions {
  /// Destination resolution -- identical semantics to UdpBackendOptions.
  std::unordered_map<std::string, UdpDestination> dest_by_name;
  std::string default_host = "127.0.0.1";
  std::uint16_t base_port = 0;
  /// Submission-queue entries per ring (kernel may clamp).
  unsigned sq_entries = 1024;
  /// In-flight slot arena per ring; a burst that would exceed it gets its
  /// tail pushed back to the runtime stash (kRequeued).  Sized to the CQ
  /// (4x SQ) by default so the SQ, not the arena, is the usual limiter.
  std::size_t inflight_limit = 4096;
  /// Registered-buffer table slots per ring (sparse; filled by
  /// register_frame_pool one slab at a time).
  unsigned buffer_table_size = 128;
  /// Frame bytes per datagram after the header (truncating), as UDP.
  std::size_t max_payload_bytes = 1400;
  /// Allow SEND_ZC when the kernel supports it; off forces the SENDMSG
  /// fallback for every packet (a debugging escape hatch).
  bool zerocopy = true;
  /// Doorbell coalescing: number of consecutive completion-less
  /// poll_completions passes tolerated before pending SQEs are
  /// force-submitted.  0 (default) rings the doorbell at the end of every
  /// burst; higher values let SQEs from several bursts share one
  /// io_uring_enter, at the cost of up to that many drain passes of added
  /// submission latency.  Independent of the threshold: once pushed SQEs
  /// reach half the SQ, the submit happens regardless.  flush() always
  /// submits.
  unsigned submit_coalesce_polls = 0;
  /// Seams; null = the real thing.  Must outlive the backend.
  UringApi* api = nullptr;
  SocketApi* sockets = nullptr;
};

class UringBackend final : public EgressBackend {
 public:
  static constexpr std::size_t kMaxDatagramBytes = 65507;

  explicit UringBackend(UringBackendOptions options);
  ~UringBackend() override;

  UringBackend(const UringBackend&) = delete;
  UringBackend& operator=(const UringBackend&) = delete;

  std::string name() const override { return "uring"; }
  void attach_topology(
      const std::vector<std::uint32_t>& worker_of_iface) override;
  void attach(const std::vector<std::string>& iface_names) override;
  bool completion_driven() const override { return true; }
  EgressResult send_burst(IfaceId iface, std::span<const Packet> burst,
                          SimTime now,
                          std::vector<SendDisposition>& dispositions) override;
  std::size_t poll_completions(IfaceId iface,
                               std::vector<EgressCompletion>& out) override;
  std::uint64_t inflight_packets(IfaceId iface) const override;
  std::size_t reclaim_inflight(IfaceId iface,
                               std::vector<EgressCompletion>& out) override;
  void flush(IfaceId iface) override;
  std::uint64_t send_errors(IfaceId iface) const override;
  std::uint64_t syscalls() const override;
  void register_metrics(telemetry::MetricsRegistry& registry) override;

  /// Registers every slab of `pool`'s PacketPool as a fixed buffer on
  /// every ring (same table index everywhere) and enables the zero-copy
  /// fast path for frames living in those slabs.  The pool should be
  /// precarved (PacketPoolOptions::precarve) so the slab directory is
  /// complete; requires headroom >= kWireScratchBytes for the contiguous
  /// [header|payload] trick.  Call after attach() and before workers
  /// start driving the ring: register_buffer shares UringApi's
  /// attach-time threading contract (the region table is still published
  /// atomically, so a send_burst racing the publish sees old-or-new and
  /// stays correct -- but the register syscall itself is not part of the
  /// worker-concurrent API).  Returns false (with a warning, never a
  /// throw) when the
  /// kernel lacks sparse tables / SEND_ZC or the pool has no headroom --
  /// the backend then runs entirely on the fallback path.
  bool register_frame_pool(const net::FramePool& pool);

  // --- Introspection (reports, tests) ------------------------------------
  std::uint64_t sent_datagrams(IfaceId iface) const;
  std::uint64_t sent_wire_bytes(IfaceId iface) const;
  std::uint64_t fixed_sends(IfaceId iface) const;
  std::uint64_t fallback_sends(IfaceId iface) const;
  std::uint64_t cqe_requeues(IfaceId iface) const;
  std::uint64_t short_writes(IfaceId iface) const;
  std::uint64_t oversize_drops(IfaceId iface) const;
  std::uint64_t error_drops(IfaceId iface) const;
  std::uint64_t zc_notifs(IfaceId iface) const;
  std::uint64_t zc_copied(IfaceId iface) const;
  std::uint64_t cq_overflows() const;
  std::uint16_t dest_port(IfaceId iface) const;
  /// True when at least one ring supports SEND_ZC and zerocopy is on.
  bool zerocopy_active() const;
  /// Registered slab regions (across the pool(s) registered so far).
  std::size_t registered_buffers() const;

 private:
  /// One in-flight (or retrying) packet.  Slots live in a per-ring arena
  /// sized once at attach; all pointers into a slot (msghdr, iovecs,
  /// header bytes) are stable for the backend's lifetime.
  struct Slot {
    enum class State : std::uint8_t {
      kFree = 0,
      kInflight = 1,      ///< SQE pushed, awaiting result CQE
      kAwaitNotif = 2,    ///< result seen, awaiting ZC buffer-release CQE
      kRetryPending = 3,  ///< transient failure, waiting for resubmit
      /// Force-dropped by reclaim_inflight while the kernel still owed a
      /// CQE.  The slot is parked (never freed, never resubmitted) so a
      /// late CQE retires it silently instead of landing on a recycled
      /// slot and tripping the state asserts.
      kReclaimed = 4
    };
    State state = State::kFree;
    bool retry_after_notif = false;  ///< transient failure seen under F_MORE
    IfaceId iface = 0;
    std::uint32_t wire_bytes = 0;
    Packet packet;  ///< owns the frame until the slot resolves
    /// SEND_ZC only: once the result CQE hands `packet` back to the
    /// runtime, this keeps the slab bytes alive (kernel may still read
    /// them) until the buffer-release notification lands.
    std::shared_ptr<const net::Frame> frame_keepalive;
    UringOp op;     ///< resubmittable as-is (internal retry)
    msghdr msg{};
    iovec iov[2]{};
  };

  struct RingState {
    int handle = -1;
    bool zc = false;  ///< kernel supports SEND_ZC on this ring
    std::vector<Slot> slots;
    std::vector<net::Byte> header_arena;  ///< kWireScratchBytes per slot
    std::vector<std::uint32_t> free_slots;
    std::vector<std::uint32_t> retry;  ///< kRetryPending slot indices
    std::vector<UringCqe> cqes;        ///< reap scratch
    unsigned pushed_since_submit = 0;
    unsigned idle_polls = 0;  ///< completion-less polls since last reap
  };

  struct IfaceState {
    std::string name;
    int fd = -1;
    sockaddr_in dest{};
    std::uint32_t ring = 0;
    std::vector<std::uint64_t> seq_next;  ///< per-flow, grown lazily
    /// Resolved completions staged by CQE processing, spliced out by
    /// poll_completions/reclaim_inflight (owning worker only).
    std::vector<EgressCompletion> completions;
    // Scrape-rate counters.
    std::atomic<std::uint64_t> inflight{0};
    std::atomic<std::uint64_t> sent_datagrams{0};
    std::atomic<std::uint64_t> sent_wire_bytes{0};
    std::atomic<std::uint64_t> send_errors{0};
    std::atomic<std::uint64_t> error_drops{0};
    std::atomic<std::uint64_t> oversize_drops{0};
    std::atomic<std::uint64_t> short_writes{0};
    std::atomic<std::uint64_t> cqe_requeues{0};
    std::atomic<std::uint64_t> requeued_packets{0};
    std::atomic<std::uint64_t> fixed_sends{0};
    std::atomic<std::uint64_t> fallback_sends{0};
    std::atomic<std::uint64_t> zc_notifs{0};
    std::atomic<std::uint64_t> zc_copied{0};
    std::atomic<std::uint64_t> reclaimed{0};
  };

  /// One registered slab: [base, base+bytes) lives at table slot `index`
  /// on every ring.  The table is immutable once published (see
  /// register_frame_pool's atomic swap).
  struct Region {
    const std::uint8_t* base = nullptr;
    std::size_t bytes = 0;
    std::uint16_t index = 0;
  };
  using RegionTable = std::vector<Region>;

  UringApi& api() { return options_.api != nullptr ? *options_.api : real_; }
  SocketApi& sockets() {
    return options_.sockets != nullptr ? *options_.sockets : real_sockets_;
  }
  /// Drains CQEs of `ring`, classifying each into its slot's interface
  /// (stage / internal retry / release).  When `wait_ns` > 0 and no CQE
  /// is immediately ready, blocks up to that long for the first batch
  /// (flush's bounded straggler wait) -- waited-for completions go
  /// through the same classification as polled ones, never discarded.
  /// Returns CQEs processed.
  std::size_t reap_ring(RingState& ring, std::uint64_t wait_ns = 0);
  /// Pushes kRetryPending slots back onto the SQ (stops at SQ-full).
  void push_retries(RingState& ring);
  int submit_ring(RingState& ring);
  void release_slot(RingState& ring, std::uint32_t idx);
  /// The registered region containing [p, p+len), or nullptr.
  const Region* find_region(const RegionTable& table, const net::Byte* p,
                            std::size_t len) const;

  UringBackendOptions options_;
  /// Coalescing escape valve: pending SQEs at or past this mark are
  /// submitted immediately (half the SQ, so pushback stays rare).
  unsigned submit_force_threshold_ = 1;
  RealUringApi real_;
  RealSocketApi real_sockets_;
  std::vector<std::uint32_t> worker_of_iface_;
  std::vector<std::unique_ptr<RingState>> rings_;
  std::vector<std::unique_ptr<IfaceState>> states_;
  /// Immutable published region table (workers load once per burst).
  std::atomic<std::shared_ptr<const RegionTable>> regions_;
  std::atomic<std::uint32_t> next_buf_index_{0};
  bool zerocopy_active_ = false;
  LatencyHistogram* sqe_batch_hist_ = nullptr;
  LatencyHistogram* cqe_batch_hist_ = nullptr;
};

/// True when this build carries the io_uring backend (MIDRR_WITH_URING).
/// (Declared in uring_api.hpp; re-exported here for existing includers.)
bool uring_supported();

/// The real backend when built with -DMIDRR_WITH_URING (or when `options`
/// injects a mock UringApi, which works everywhere -- that is what keeps
/// the submission/completion logic unit-testable on locked-down hosts);
/// otherwise throws "reconfigure with -DMIDRR_WITH_URING=ON".
std::unique_ptr<EgressBackend> make_uring_backend(
    UringBackendOptions options = {});

}  // namespace midrr::io
