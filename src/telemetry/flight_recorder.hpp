// Flight recorder: the runtime process's one event log.  Bounded
// per-writer lanes keep the newest N events each, and two sinks read them:
// the post-mortem JSON dump (dump_json, on a /healthz degrade, a tripped
// conservation identity, or a fatal signal; the newest kDumpLaneEvents of
// each lane) and the Chrome trace (telemetry/chrome_trace.hpp, after a
// traced run).  Both name events and arguments from one catalog,
// kFlightCodes below.
//
// Design:
//   * One FlightLog per writer: a runtime worker (its transitions, and
//     when tracing its spans on a second lane, so packet-rate events never
//     overwrite transitions), a shard scheduler, the supervisor, the
//     tool's health monitor.  log() is wait-free and never allocates: the
//     writer reserves the next slot, fills its relaxed-atomic fields, then
//     publishes a head counter with release.
//   * One live writer at a time per lane.  A lane is single-writer, or its
//     writers are serialized by a lock they already hold: a shard's lane is
//     written only under that shard's mutex (any worker that owns one of the
//     shard's interfaces may be dequeuing there), and a worker's lanes by
//     the slot's current thread (stop() writes them after joining).
//   * Readers never block writers: copy the ring, then use the reserve
//     counter (bumped BEFORE the slot is written) to discard any entry the
//     writer may have been overwriting mid-copy.  The two fences make this
//     a seqlock under the C++ memory model (Boehm 2012): a reader that saw
//     any field of an overwrite also sees the reserve that announced it.
//   * The fatal-signal path is async-signal-safe: the dump fd is opened
//     when the handler is armed, and the handler formats integers into a
//     stack buffer with write(2) only -- no malloc, no streams, no locks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

namespace midrr {
class JsonWriter;
}

namespace midrr::telemetry {

enum class FlightCategory : std::uint16_t {
  kRuntime = 0,   ///< worker lifecycle, drops, shedding, work spans
  kIo = 1,        ///< egress pushback / errors
  kFault = 2,     ///< injected transitions
  kSupervisor = 3,///< link verdicts, restarts, Theorem-2 replays
  kHealth = 4,    ///< /healthz transitions, identity checks
  kSched = 5,     ///< scheduler micro-events (global flow and iface ids)
};

enum class FlightCode : std::uint16_t {
  kWorkerStart = 0,
  kWorkerExit = 1,
  kWorkerRestart = 2,
  kShedDrops = 3,
  kStragglerDrops = 4,  ///< packets of removed flows
  kTailDrops = 5,       ///< per-flow queue-bound drops
  kIoPushback = 6,      ///< one burst's requeued and dropped packets
  kIoFlushDrops = 7,    ///< packets unflushable at stop
  kFaultScale = 8,
  kLinkSuspect = 9,
  kLinkDead = 10,
  kLinkHealthy = 11,
  kHealthDegraded = 12,
  kHealthRecovered = 13,
  kConservationTrip = 14,
  kNote = 15,           ///< free-form marker (a, b, c caller-defined)
  kGrant = 16,
  kSkip = 17,
  kSend = 18,
  kFlowDrained = 19,
  kFanInSpan = 20,
  kDrainSpan = 21,
  kWorkerStall = 22,
  kRestartRefused = 23,
  kClusteringConsistent = 24,
  kClusteringViolation = 25,
};

/// A code's name and what its a, b and c mean (null: unused).
struct FlightCodeInfo {
  const char* name = "?";
  const char* a = nullptr;
  const char* b = nullptr;
  const char* c = nullptr;
  bool span = false;         ///< t = begin, a = end (ns)
  bool a_iface = false;      ///< a is a global interface id
  bool b_packets = false;    ///< b = span_where(x, packets); `b` names x
  bool c_signed = false;     ///< c holds an int64
  bool packet_rate = false;  ///< logged per packet or burst, not per change
};

/// The catalog, indexed by FlightCode: both sinks name events and their
/// arguments from it.  A drop run sums one kind of fan-in drop over a
/// worker's passes (t = the first dropping pass, a = the last); a worker
/// logs at most one run per kind per 100 ms, so overload cannot flood its
/// lane with one event per pass.
inline constexpr FlightCodeInfo kFlightCodes[] = {
    {.name = "worker_start", .a = "worker", .b = "generation"},
    {.name = "worker_exit", .a = "worker", .b = "generation"},
    {.name = "worker_restart", .a = "worker", .b = "generation"},
    {.name = "shed_drops", .a = "end_ns", .b = "packets", .c = "passes",
     .span = true},
    {.name = "straggler_drops", .a = "end_ns", .b = "packets", .c = "passes",
     .span = true},
    {.name = "tail_drops", .a = "end_ns", .b = "packets", .c = "passes",
     .span = true},
    {.name = "io_pushback", .a = "requeued", .b = "dropped"},
    {.name = "io_flush_drops", .a = "iface", .b = "packets", .a_iface = true},
    {.name = "fault_scale", .a = "iface", .b = "scale_milli", .a_iface = true},
    {.name = "link_suspect", .a = "iface", .b = "from_state", .a_iface = true},
    {.name = "link_dead", .a = "iface", .b = "from_state", .a_iface = true},
    {.name = "link_healthy", .a = "iface", .b = "from_state", .a_iface = true},
    {.name = "health_degraded"},
    {.name = "health_recovered"},
    {.name = "conservation_trip", .a = "lhs", .b = "rhs"},
    {.name = "note", .a = "a", .b = "b", .c = "c"},
    {.name = "grant", .a = "flow", .b = "iface", .c = "deficit_after",
     .c_signed = true, .packet_rate = true},
    {.name = "skip", .a = "flow", .b = "iface", .packet_rate = true},
    {.name = "send", .a = "flow", .b = "iface", .c = "bytes",
     .packet_rate = true},
    {.name = "flow_drained", .a = "flow", .packet_rate = true},
    {.name = "fanin_span", .a = "end_ns", .b = "shard", .c = "bytes",
     .span = true, .b_packets = true, .packet_rate = true},
    {.name = "drain_span", .a = "end_ns", .b = "iface", .c = "bytes",
     .span = true, .b_packets = true, .packet_rate = true},
    {.name = "worker_stall", .a = "worker", .b = "stall_ns"},
    {.name = "restart_refused", .a = "worker"},
    {.name = "clustering_consistent", .a = "flows", .b = "total_bps"},
    {.name = "clustering_violation", .a = "flows"},
};
static_assert(std::size(kFlightCodes) ==
              static_cast<std::size_t>(FlightCode::kClusteringViolation) + 1);

inline const FlightCodeInfo& flight_info(FlightCode code) {
  static constexpr FlightCodeInfo kUnknown;
  const auto i = static_cast<std::size_t>(code);
  return i < std::size(kFlightCodes) ? kFlightCodes[i] : kUnknown;
}

const char* to_string(FlightCategory category);
inline const char* to_string(FlightCode code) { return flight_info(code).name; }

/// A work span's `b`: the shard (fan-in) or interface (drain) in the high
/// half, the packets it moved in the low half.
inline std::uint64_t span_where(std::uint32_t where, std::uint32_t packets) {
  return (static_cast<std::uint64_t>(where) << 32) | packets;
}

/// One recorded event, as surfaced by a dump.
struct FlightEvent {
  std::uint64_t t_ns = 0;
  FlightCategory category = FlightCategory::kRuntime;
  FlightCode code = FlightCode::kNote;
  std::uint32_t writer = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// Writes `e`'s a, b and c into the open JSON object `out`, named by the
/// catalog (a packed span `b` as its shard or interface, then "packets").
/// Both sinks write arguments through here.
void write_args(JsonWriter& out, const FlightEvent& e);

/// Lock-free ring with one live writer at a time.  Obtain via
/// FlightRecorder::add_writer.
class FlightLog {
 public:
  void log(std::uint64_t t_ns, FlightCategory category, FlightCode code,
           std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t c = 0) {
    const std::uint64_t i = reserve_.load(std::memory_order_relaxed);
    // Reserve first: a concurrent dumper copying this slot sees reserve_
    // past it and discards the possibly-torn entry.  The fence keeps the
    // slot stores below from moving above the reserve.
    reserve_.store(i + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    Slot& slot = slots_[i % slots_.size()];
    slot.t_ns.store(t_ns, std::memory_order_relaxed);
    slot.meta.store(pack(category, code), std::memory_order_relaxed);
    slot.a.store(a, std::memory_order_relaxed);
    slot.b.store(b, std::memory_order_relaxed);
    slot.c.store(c, std::memory_order_relaxed);
    head_.store(i + 1, std::memory_order_release);
  }

  std::uint64_t logged() const { return head_.load(std::memory_order_relaxed); }
  /// Events the ring has overwritten so far.
  std::uint64_t lost() const {
    const std::uint64_t h = logged();
    return h > slots_.size() ? h - slots_.size() : 0;
  }

  const std::string& name() const { return name_; }
  std::uint32_t id() const { return id_; }

  /// Appends the surviving window -- at most its `newest` events -- to
  /// `out` in logging order and returns how many older events it lacks
  /// (overwritten before or during the copy, or past `newest`).  Entries
  /// the writer overwrote mid-copy are discarded, never torn.  Safe against
  /// the live writer.
  std::uint64_t snapshot(std::vector<FlightEvent>& out,
                         std::uint64_t newest = UINT64_MAX) const;

 private:
  friend class FlightRecorder;

  struct Slot {
    std::atomic<std::uint64_t> t_ns{0};
    std::atomic<std::uint32_t> meta{0};  ///< category << 16 | code
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<std::uint64_t> c{0};
  };

  FlightLog(std::size_t capacity, std::uint32_t id, std::string name)
      : slots_(capacity), id_(id), name_(std::move(name)) {}

  static std::uint32_t pack(FlightCategory category, FlightCode code) {
    return (static_cast<std::uint32_t>(category) << 16) |
           static_cast<std::uint32_t>(code);
  }

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> reserve_{0};  ///< bumped before a slot write
  std::atomic<std::uint64_t> head_{0};     ///< bumped after (published)
  std::uint32_t id_ = 0;
  std::string name_;
};

class FlightRecorder {
 public:
  /// The default lane size, and what a post-mortem dump keeps of each lane
  /// whatever its size: deep tracing lanes do not make a dump costlier.
  static constexpr std::size_t kDumpLaneEvents = 256;

  /// `per_writer_capacity` events are retained per writer ring.
  explicit FlightRecorder(std::size_t per_writer_capacity = kDumpLaneEvents);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Registers a writer ring.  NOT thread-safe against concurrent dumps or
  /// other add_writer calls: wire every writer up before threads run (the
  /// runtime does this at construction and start()).  The returned log
  /// lives as long as the recorder.
  FlightLog& add_writer(std::string name);

  /// Every lane, in registration order (a lane's id is its index).
  const std::vector<std::unique_ptr<FlightLog>>& lanes() const {
    return logs_;
  }

  /// Merged timeline (sorted by t_ns) of every writer's surviving window,
  /// at most its `per_lane` newest events each.
  std::vector<FlightEvent> snapshot(std::uint64_t per_lane = UINT64_MAX) const;

  /// Renders {"reason", "dumped_at_ns", "writers", "events": [...]} with
  /// the newest kDumpLaneEvents of each lane in timestamp order, their
  /// arguments named by flight_info.
  std::string dump_json(const std::string& reason,
                        std::uint64_t now_ns) const;

  /// dump_json to `path` (overwriting).  Returns false on I/O failure.
  /// Bumps dumps(); callers typically gate on a transition so a flapping
  /// health state does not rewrite the post-mortem every probe.
  bool dump_to_file(const std::string& path, const std::string& reason,
                    std::uint64_t now_ns);

  std::uint64_t dumps() const { return dumps_.load(std::memory_order_relaxed); }

  /// Total events logged across all writers (not capped by ring capacity).
  std::uint64_t events_logged() const {
    std::uint64_t total = 0;
    for (const auto& log : logs_) total += log->logged();
    return total;
  }

  /// Arms an async-signal-safe fatal dump: opens `path` now and installs
  /// handlers for SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT that write a
  /// minimal JSON dump (unsorted, integer codes) using only write(2),
  /// then re-raise with default disposition.  One recorder per process
  /// may be armed; re-arming replaces the previous target.
  bool arm_fatal_dump(const std::string& path);

  /// The fatal handler's body: a minimal JSON dump to `fd` using only
  /// write(2) and stack buffers (async-signal-safe; categories and codes
  /// are emitted as integers, every slot field raw, the newest
  /// kDumpLaneEvents per writer in ring order, unsorted).
  /// Public so the signal handler can reach it; callable from tests.
  void write_signal_dump(int fd, int signo) const;

 private:
  std::size_t capacity_;
  std::vector<std::unique_ptr<FlightLog>> logs_;
  std::atomic<std::uint64_t> dumps_{0};
};

}  // namespace midrr::telemetry
