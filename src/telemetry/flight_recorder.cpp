#include "telemetry/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>

#include "util/json.hpp"

namespace midrr::telemetry {

const char* to_string(FlightCategory category) {
  switch (category) {
    case FlightCategory::kRuntime: return "runtime";
    case FlightCategory::kIo: return "io";
    case FlightCategory::kFault: return "fault";
    case FlightCategory::kSupervisor: return "supervisor";
    case FlightCategory::kHealth: return "health";
  }
  return "?";
}

const char* to_string(FlightCode code) {
  switch (code) {
    case FlightCode::kWorkerStart: return "worker_start";
    case FlightCode::kWorkerExit: return "worker_exit";
    case FlightCode::kWorkerRestart: return "worker_restart";
    case FlightCode::kShedDrops: return "shed_drops";
    case FlightCode::kStragglerDrops: return "straggler_drops";
    case FlightCode::kTailDrops: return "tail_drops";
    case FlightCode::kIoPushback: return "io_pushback";
    case FlightCode::kIoFlushDrops: return "io_flush_drops";
    case FlightCode::kFaultScale: return "fault_scale";
    case FlightCode::kLinkSuspect: return "link_suspect";
    case FlightCode::kLinkDead: return "link_dead";
    case FlightCode::kLinkHealthy: return "link_healthy";
    case FlightCode::kHealthDegraded: return "health_degraded";
    case FlightCode::kHealthRecovered: return "health_recovered";
    case FlightCode::kConservationTrip: return "conservation_trip";
    case FlightCode::kNote: return "note";
  }
  return "?";
}

void FlightLog::snapshot(std::vector<FlightEvent>& out) const {
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t first = h > cap ? h - cap : 0;
  struct Raw {
    std::uint64_t index, t_ns, a, b;
    std::uint32_t meta;
  };
  std::vector<Raw> raw;
  raw.reserve(static_cast<std::size_t>(h - first));
  for (std::uint64_t i = first; i < h; ++i) {
    const Slot& slot = slots_[i % cap];
    Raw r;
    r.index = i;
    r.t_ns = slot.t_ns.load(std::memory_order_relaxed);
    r.meta = slot.meta.load(std::memory_order_relaxed);
    r.a = slot.a.load(std::memory_order_relaxed);
    r.b = slot.b.load(std::memory_order_relaxed);
    raw.push_back(r);
  }
  // Anything the writer RESERVED past our copy may have overwritten the
  // slots we read: entry i is torn-suspect when the writer reached logical
  // index i + cap or later.  reserve_ is bumped before the slot write, so
  // this check is conservative (may discard an intact entry, never keeps a
  // torn one).
  const std::uint64_t reserved = reserve_.load(std::memory_order_acquire);
  for (const Raw& r : raw) {
    if (reserved > r.index + cap) continue;  // overwritten mid-copy
    FlightEvent event;
    event.t_ns = r.t_ns;
    event.category = static_cast<FlightCategory>(r.meta >> 16);
    event.code = static_cast<FlightCode>(r.meta & 0xffffu);
    event.writer = id_;
    event.a = r.a;
    event.b = r.b;
    out.push_back(event);
  }
}

FlightRecorder::FlightRecorder(std::size_t per_writer_capacity)
    : capacity_(per_writer_capacity == 0 ? 1 : per_writer_capacity) {}

FlightLog& FlightRecorder::add_writer(std::string name) {
  logs_.push_back(std::unique_ptr<FlightLog>(new FlightLog(
      capacity_, static_cast<std::uint32_t>(logs_.size()), std::move(name))));
  return *logs_.back();
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> events;
  for (const auto& log : logs_) log->snapshot(events);
  std::stable_sort(events.begin(), events.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.t_ns < y.t_ns;
                   });
  return events;
}

std::string FlightRecorder::dump_json(const std::string& reason,
                                      std::uint64_t now_ns) const {
  const std::vector<FlightEvent> events = snapshot();
  JsonWriter out;
  out.begin_object().field("reason", reason).field("dumped_at_ns", now_ns)
      .key("writers").begin_array();
  for (const auto& log : logs_) out.value(log->name());
  out.end_array().key("events").begin_array();
  for (const FlightEvent& e : events) {
    out.begin_object().field("t_ns", e.t_ns)
        .field("writer", logs_[e.writer]->name())
        .field("category", to_string(e.category))
        .field("code", to_string(e.code)).field("a", e.a).field("b", e.b)
        .end_object();
  }
  return out.end_array().end_object().str() + "\n";
}

bool FlightRecorder::dump_to_file(const std::string& path,
                                  const std::string& reason,
                                  std::uint64_t now_ns) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << dump_json(reason, now_ns);
  out.flush();
  if (!out) return false;
  dumps_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// --- Fatal-signal path ----------------------------------------------------

namespace {

/// Handler state, written once at arm time.  Plain (not atomic) because
/// arming happens-before any signal the handler is installed for.
FlightRecorder* g_fatal_recorder = nullptr;
int g_fatal_fd = -1;

/// write(2) a NUL-terminated literal; async-signal-safe.
void sig_write(int fd, const char* s) {
  std::size_t n = 0;
  while (s[n] != '\0') ++n;
  ssize_t rc = ::write(fd, s, n);
  (void)rc;
}

/// write(2) an unsigned integer in decimal; async-signal-safe.
void sig_write_u64(int fd, std::uint64_t v) {
  char buf[24];
  std::size_t i = sizeof(buf);
  do {
    buf[--i] = static_cast<char>('0' + (v % 10));
    v /= 10;
  } while (v != 0);
  ssize_t rc = ::write(fd, buf + i, sizeof(buf) - i);
  (void)rc;
}

extern "C" void fatal_dump_handler(int signo) {
  if (g_fatal_recorder != nullptr && g_fatal_fd >= 0) {
    g_fatal_recorder->write_signal_dump(g_fatal_fd, signo);
    // fsync is async-signal-safe; make the dump durable before the default
    // disposition kills the process.
    ::fsync(g_fatal_fd);
  }
  // Handlers were installed with SA_RESETHAND: re-raising takes the
  // default action (core/terminate) so the exit status stays honest.
  ::raise(signo);
}

}  // namespace

void FlightRecorder::write_signal_dump(int fd, int signo) const {
  // Only write(2), relaxed atomic loads, and stack buffers below: this runs
  // inside a fatal-signal handler.  Events are emitted per writer in ring
  // order with integer category/code -- a consumer sorts by t_ns.
  sig_write(fd, "{\"reason\":\"fatal_signal\",\"signal\":");
  sig_write_u64(fd, static_cast<std::uint64_t>(signo));
  sig_write(fd, ",\"events\":[");
  bool first = true;
  for (const auto& log : logs_) {
    const std::uint64_t h = log->head_.load(std::memory_order_acquire);
    const std::uint64_t cap = log->slots_.size();
    const std::uint64_t start = h > cap ? h - cap : 0;
    for (std::uint64_t i = start; i < h; ++i) {
      const FlightLog::Slot& slot = log->slots_[i % cap];
      const std::uint32_t meta = slot.meta.load(std::memory_order_relaxed);
      if (!first) sig_write(fd, ",");
      first = false;
      sig_write(fd, "\n{\"t_ns\":");
      sig_write_u64(fd, slot.t_ns.load(std::memory_order_relaxed));
      sig_write(fd, ",\"writer\":");
      sig_write_u64(fd, log->id_);
      sig_write(fd, ",\"category\":");
      sig_write_u64(fd, meta >> 16);
      sig_write(fd, ",\"code\":");
      sig_write_u64(fd, meta & 0xffffu);
      sig_write(fd, ",\"a\":");
      sig_write_u64(fd, slot.a.load(std::memory_order_relaxed));
      sig_write(fd, ",\"b\":");
      sig_write_u64(fd, slot.b.load(std::memory_order_relaxed));
      sig_write(fd, "}");
    }
  }
  sig_write(fd, "\n]}\n");
}

bool FlightRecorder::arm_fatal_dump(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return false;
  if (g_fatal_fd >= 0) ::close(g_fatal_fd);
  g_fatal_fd = fd;
  g_fatal_recorder = this;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = fatal_dump_handler;
  action.sa_flags = static_cast<int>(SA_RESETHAND);
  sigemptyset(&action.sa_mask);
  const int signals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};
  for (const int signo : signals) ::sigaction(signo, &action, nullptr);
  return true;
}

FlightRecorder::~FlightRecorder() {
  if (g_fatal_recorder == this) {
    g_fatal_recorder = nullptr;
    if (g_fatal_fd >= 0) ::close(g_fatal_fd);
    g_fatal_fd = -1;
  }
}

}  // namespace midrr::telemetry
