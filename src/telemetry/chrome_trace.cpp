#include "telemetry/chrome_trace.hpp"

namespace midrr::telemetry {

namespace {

/// SimTime ns -> trace-format microseconds, preserving sub-us precision.
double us(SimTime ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

ChromeTraceBuilder::ChromeTraceBuilder() {
  out_.begin_object().key("traceEvents").begin_array();
}

JsonWriter& ChromeTraceBuilder::event() {
  ++events_;
  return out_.begin_object();
}

void ChromeTraceBuilder::thread_name(std::uint32_t pid, std::uint32_t tid,
                                     const std::string& name) {
  event().field("name", "thread_name").field("ph", "M").field("pid", pid)
      .field("tid", tid).key("args").begin_object().field("name", name)
      .end_object().end_object();
}

void ChromeTraceBuilder::set_process_name(std::uint32_t pid,
                                          const std::string& name) {
  event().field("name", "process_name").field("ph", "M").field("pid", pid)
      .key("args").begin_object().field("name", name).end_object()
      .end_object();
}

void ChromeTraceBuilder::add_recorder(const TraceRecorder& recorder,
                                      std::uint32_t pid) {
  // One track per interface; drain events (no interface) go to a track of
  // their own so the per-interface lanes stay clean.
  constexpr std::uint32_t kDrainTid = 9999;
  std::vector<bool> named;
  bool drain_named = false;
  SimTime last_at = 0;
  for (const TraceRecorder::Entry& entry : recorder.entries()) {
    if (entry.at > last_at) last_at = entry.at;
    std::uint32_t tid;
    if (entry.iface == kInvalidIface) {
      tid = kDrainTid;
      if (!drain_named) {
        thread_name(pid, kDrainTid, "flow drains");
        drain_named = true;
      }
    } else {
      tid = static_cast<std::uint32_t>(entry.iface);
      if (named.size() <= entry.iface) named.resize(entry.iface + 1, false);
      if (!named[entry.iface]) {
        thread_name(pid, tid, "iface " + std::to_string(entry.iface));
        named[entry.iface] = true;
      }
    }
    JsonWriter& e = event().field(
        "name", std::string(to_string(entry.event)) + " flow" +
                    std::to_string(entry.flow));
    e.field("cat", "sched").field("ph", "i").field("s", "t")
        .field("ts", us(entry.at)).field("pid", pid).field("tid", tid)
        .key("args").begin_object().field("flow", entry.flow);
    if (entry.event == TraceRecorder::Event::kGrant) {
      e.field("deficit_after", entry.value);
    } else if (entry.event == TraceRecorder::Event::kSend) {
      e.field("bytes", entry.value);
    }
    e.end_object().end_object();
  }
  if (recorder.overflowed() > 0) {
    // The metadata record survives for tooling, but viewers do not render
    // "ph":"M" on the timeline -- a truncated capture used to look merely
    // sparse.  The global instant below puts a visible marker at the time
    // of the last retained event, where the missing history would end.
    event().field("name", "trace_truncated").field("ph", "M")
        .field("pid", pid).key("args").begin_object()
        .field("events_lost", recorder.overflowed()).end_object()
        .end_object();
    event().field("name", "trace_overflow").field("cat", "sched")
        .field("ph", "i").field("s", "g").field("ts", us(last_at))
        .field("pid", pid).field("tid", 0).key("args").begin_object()
        .field("events_lost", recorder.overflowed()).end_object()
        .end_object();
  }
}

void ChromeTraceBuilder::add_spans(const std::vector<TraceSpan>& spans,
                                   std::uint32_t pid) {
  std::vector<bool> named;
  for (const TraceSpan& span : spans) {
    if (named.size() <= span.worker) named.resize(span.worker + 1, false);
    if (!named[span.worker]) {
      thread_name(pid, span.worker, "worker " + std::to_string(span.worker));
      named[span.worker] = true;
    }
    const bool fan_in = span.kind == TraceSpan::Kind::kFanIn;
    const double dur = us(span.end_ns - span.begin_ns);
    JsonWriter& e = event().field(
        "name", fan_in ? "fan-in shard" + std::to_string(span.shard)
                       : "drain if" + std::to_string(span.iface));
    e.field("cat", "runtime").field("ph", "X").field("ts", us(span.begin_ns))
        .field("dur", dur > 0 ? dur : 0.001).field("pid", pid)
        .field("tid", span.worker).key("args").begin_object()
        .field("packets", span.packets).field("bytes", span.bytes);
    if (fan_in) {
      e.field("shard", span.shard);
    } else {
      e.field("iface", span.iface);
    }
    e.end_object().end_object();
  }
}

void ChromeTraceBuilder::add_counter(std::uint32_t pid, const std::string& name,
                                     SimTime at, double value) {
  event().field("name", name).field("ph", "C").field("ts", us(at))
      .field("pid", pid).key("args").begin_object().field("value", value)
      .end_object().end_object();
}

void ChromeTraceBuilder::add_instant(std::uint32_t pid, std::uint32_t tid,
                                     const std::string& name, SimTime at) {
  event().field("name", name).field("cat", "fault").field("ph", "i")
      .field("s", "p").field("ts", us(at)).field("pid", pid)
      .field("tid", tid).end_object();
}

std::string ChromeTraceBuilder::json() const {
  JsonWriter doc = out_;
  doc.end_array().field("displayTimeUnit", "ms").end_object();
  return doc.str() + "\n";
}

}  // namespace midrr::telemetry
