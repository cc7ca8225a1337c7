#include "telemetry/chrome_trace.hpp"

#include <algorithm>
#include <cstdint>

#include "util/indexed_name.hpp"
#include "util/json.hpp"

namespace midrr::telemetry {

namespace {

/// Nanoseconds -> trace-format microseconds, preserving sub-us precision.
double us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// The track of a shard lane's flow drains, which name no interface; past
/// any interface id, so the per-interface tracks stay clean.
constexpr std::uint32_t kDrainTid = 9999;

class Renderer {
 public:
  explicit Renderer(const std::vector<std::string>& iface_names)
      : iface_names_(iface_names) {
    out_.begin_object().key("traceEvents").begin_array();
  }

  /// One lane's row: its name, its overflow markers, and its events --
  /// the packet-rate ones only from the window `start` on.
  void lane(const FlightLog& log, const std::vector<FlightEvent>& events,
            std::uint64_t lost, std::uint64_t start) {
    const std::uint32_t pid = log.id() + 1;
    metadata("process_name", pid).key("args").begin_object()
        .field("name", log.name()).end_object().end_object();
    if (lost > 0) {
      // The metadata record survives for tooling, but viewers do not
      // render "ph":"M" on the timeline; the global instant puts a visible
      // marker where the drawn history begins.
      metadata("trace_truncated", pid).key("args").begin_object()
          .field("events_lost", lost).end_object().end_object();
      instant("trace_overflow", "trace", "g", start, pid, 0)
          .field("events_lost", lost).end_object().end_object();
    }
    named_.clear();
    for (const FlightEvent& e : events) {
      const FlightCodeInfo& info = flight_info(e.code);
      if (info.packet_rate && e.t_ns < start) continue;
      JsonWriter& out = info.span ? span(e, info, pid) : point(e, info, pid);
      write_args(out, e);
      out.end_object().end_object();
    }
  }

  ChromeTrace finish() {
    out_.end_array().field("displayTimeUnit", "ms").end_object();
    return ChromeTrace{out_.str() + "\n", events_};
  }

 private:
  /// Opens the next event object in the traceEvents array.
  JsonWriter& event() {
    ++events_;
    return out_.begin_object();
  }

  JsonWriter& metadata(const char* name, std::uint32_t pid) {
    return event().field("name", name).field("ph", "M").field("pid", pid);
  }

  /// Opens an instant event on track `tid` of row `pid`, leaving its args
  /// object open.
  JsonWriter& instant(const std::string& name, const char* category,
                      const char* scope, std::uint64_t t_ns, std::uint32_t pid,
                      std::uint32_t tid) {
    return event().field("name", name).field("cat", category)
        .field("ph", "i").field("s", scope).field("ts", us(t_ns))
        .field("pid", pid).field("tid", tid).key("args").begin_object();
  }

  std::string iface_name(std::uint64_t iface) const {
    return iface < iface_names_.size() ? iface_names_[iface]
                                       : indexed_name("if", iface);
  }

  /// Names track `tid` of row `pid` the first time the row uses it.
  void name_track(std::uint32_t pid, std::uint32_t tid,
                  const std::string& name) {
    if (std::find(named_.begin(), named_.end(), tid) != named_.end()) return;
    named_.push_back(tid);
    metadata("thread_name", pid).field("tid", tid).key("args").begin_object()
        .field("name", name).end_object().end_object();
  }

  /// A duration event, its args object left open.  Work spans share the
  /// lane's track 0; a drop run spans many passes, so each drop kind gets
  /// a track of its own.
  JsonWriter& span(const FlightEvent& e, const FlightCodeInfo& info,
                   std::uint32_t pid) {
    std::string name = info.name;
    std::uint32_t tid = 0;
    if (e.code == FlightCode::kFanInSpan) {
      name = indexed_name("fan-in shard ", e.b >> 32);
    } else if (e.code == FlightCode::kDrainSpan) {
      name = "drain ";
      name += iface_name(e.b >> 32);
    } else {
      tid = static_cast<std::uint32_t>(e.code);
      name_track(pid, tid, name);
    }
    const double dur = e.a > e.t_ns ? us(e.a - e.t_ns) : 0.0;
    return event().field("name", name).field("cat", to_string(e.category))
        .field("ph", "X").field("ts", us(e.t_ns))
        .field("dur", dur > 0 ? dur : 0.001).field("pid", pid)
        .field("tid", tid).key("args").begin_object();
  }

  /// An instant, its args object left open: a scheduler micro-event on its
  /// interface's track (flow drains on one of their own), anything else --
  /// lifecycle, faults, verdicts -- on the lane's track, named after the
  /// interface when its first argument is one.
  JsonWriter& point(const FlightEvent& e, const FlightCodeInfo& info,
                    std::uint32_t pid) {
    std::string name = info.name;
    std::uint32_t tid = 0;
    if (e.category == FlightCategory::kSched) {
      const bool drained = e.code == FlightCode::kFlowDrained;
      tid = drained ? kDrainTid : static_cast<std::uint32_t>(e.b);
      name_track(pid, tid, drained ? "flow drains" : iface_name(tid));
      name += indexed_name(" flow", e.a);
    } else if (info.a_iface) {
      name += ' ';
      name += iface_name(e.a);
    }
    return instant(name, to_string(e.category), "t", e.t_ns, pid, tid);
  }

  const std::vector<std::string>& iface_names_;
  JsonWriter out_;  ///< the document, traceEvents array still open
  std::size_t events_ = 0;
  std::vector<std::uint32_t> named_;  ///< tracks named in the current row
};

}  // namespace

ChromeTrace render_chrome_trace(const FlightRecorder& recorder,
                                const std::vector<std::string>& iface_names) {
  struct Lane {
    std::vector<FlightEvent> events;  ///< logging order
    std::uint64_t lost = 0;
  };
  std::vector<Lane> lanes(recorder.lanes().size());
  std::uint64_t start = 0;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    Lane& lane = lanes[i];
    lane.lost = recorder.lanes()[i]->snapshot(lane.events);
    // A wrapped lane's lost history ends at its oldest retained event; the
    // window opens at the latest such end, where every lane is complete up
    // to one lock wait or one burst: lanes are in logging order, not stamp
    // order (a shard event is stamped before its shard mutex is taken, a
    // span is logged at its end with its begin stamp), so an overwritten
    // event may carry a stamp that far past the start.
    if (lane.lost > 0 && !lane.events.empty()) {
      start = std::max(start, lane.events.front().t_ns);
    }
  }
  Renderer renderer(iface_names);
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    renderer.lane(*recorder.lanes()[i], lanes[i].events, lanes[i].lost, start);
  }
  return renderer.finish();
}

}  // namespace midrr::telemetry
