#include "telemetry/chrome_trace.hpp"

#include <ostream>
#include <sstream>

#include "util/json_escape.hpp"

namespace midrr::telemetry {

namespace {

/// SimTime ns -> trace-format microseconds, preserving sub-us precision.
double us(SimTime ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

void ChromeTraceBuilder::thread_name(std::uint32_t pid, std::uint32_t tid,
                                     const std::string& name) {
  std::ostringstream e;
  e << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
    << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << json_escape(name)
    << "\"}}";
  events_.push_back(e.str());
}

void ChromeTraceBuilder::set_process_name(std::uint32_t pid,
                                          const std::string& name) {
  std::ostringstream e;
  e << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
    << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  events_.push_back(e.str());
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
    std::ostringstream e;
    e << "{\"name\":\"" << to_string(entry.event) << " flow" << entry.flow
      << "\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
      << us(entry.at) << ",\"pid\":" << pid << ",\"tid\":" << tid
      << ",\"args\":{\"flow\":" << entry.flow;
    if (entry.event == TraceRecorder::Event::kGrant) {
      e << ",\"deficit_after\":" << entry.value;
    } else if (entry.event == TraceRecorder::Event::kSend) {
      e << ",\"bytes\":" << entry.value;
    }
    e << "}}";
    events_.push_back(e.str());
  }
  if (recorder.overflowed() > 0) {
    // The metadata record survives for tooling, but viewers do not render
    // "ph":"M" on the timeline -- a truncated capture used to look merely
    // sparse.  The global instant below puts a visible marker at the time
    // of the last retained event, where the missing history would end.
    std::ostringstream meta;
    meta << "{\"name\":\"trace_truncated\",\"ph\":\"M\",\"pid\":" << pid
         << ",\"args\":{\"events_lost\":" << recorder.overflowed() << "}}";
    events_.push_back(meta.str());
    std::ostringstream e;
    e << "{\"name\":\"trace_overflow\",\"cat\":\"sched\",\"ph\":\"i\","
      << "\"s\":\"g\",\"ts\":" << us(last_at) << ",\"pid\":" << pid
      << ",\"tid\":0,\"args\":{\"events_lost\":" << recorder.overflowed()
      << "}}";
    events_.push_back(e.str());
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
    std::ostringstream e;
    const double dur = us(span.end_ns - span.begin_ns);
    e << "{\"name\":\"";
    if (span.kind == TraceSpan::Kind::kFanIn) {
      e << "fan-in shard" << span.shard;
    } else {
      e << "drain if" << span.iface;
    }
    e << "\",\"cat\":\"runtime\",\"ph\":\"X\",\"ts\":" << us(span.begin_ns)
      << ",\"dur\":" << (dur > 0 ? dur : 0.001) << ",\"pid\":" << pid
      << ",\"tid\":" << span.worker << ",\"args\":{\"packets\":"
      << span.packets << ",\"bytes\":" << span.bytes;
    if (span.kind == TraceSpan::Kind::kFanIn) {
      e << ",\"shard\":" << span.shard;
    } else {
      e << ",\"iface\":" << span.iface;
    }
    e << "}}";
    events_.push_back(e.str());
  }
}

void ChromeTraceBuilder::add_counter(std::uint32_t pid, const std::string& name,
                                     SimTime at, double value) {
  std::ostringstream e;
  e << "{\"name\":\"" << json_escape(name) << "\",\"ph\":\"C\",\"ts\":"
    << us(at) << ",\"pid\":" << pid << ",\"args\":{\"value\":" << value
    << "}}";
  events_.push_back(e.str());
}

void ChromeTraceBuilder::add_instant(std::uint32_t pid, std::uint32_t tid,
                                     const std::string& name, SimTime at) {
  std::ostringstream e;
  e << "{\"name\":\"" << json_escape(name)
    << "\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\",\"ts\":" << us(at)
    << ",\"pid\":" << pid << ",\"tid\":" << tid << "}";
  events_.push_back(e.str());
}

std::string ChromeTraceBuilder::json() const {
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i != 0) out += ',';
    out += '\n';
    out += events_[i];
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void ChromeTraceBuilder::write(std::ostream& out) const { out << json(); }

}  // namespace midrr::telemetry
