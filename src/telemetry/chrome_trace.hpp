// Chrome trace-event (about://tracing / Perfetto) JSON export.
//
// Two sources feed one timeline:
//   * SchedulerObserver event streams captured by a TraceRecorder --
//     grants, flag skips, sends, drains -- rendered as instant events on
//     one track per interface (this is Fig 1(c)'s "interface 2 skips flow
//     a" as something you can scroll through), and
//   * runtime worker spans (fan-in batches and per-interface drain bursts)
//     rendered as duration events on one track per worker thread, so the
//     enqueue -> dequeue -> wire pipeline is visible end to end.
//
// Timestamps are microseconds (the format's unit); SimTime nanoseconds are
// divided down, keeping sub-us precision as fractions.  Load the output
// via chrome://tracing "Load" or ui.perfetto.dev.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/ids.hpp"
#include "sched/observer.hpp"
#include "util/json.hpp"
#include "util/time.hpp"

namespace midrr::telemetry {

/// One completed runtime work span (recorded by a worker thread).
struct TraceSpan {
  enum class Kind : std::uint8_t { kFanIn, kDrain };

  Kind kind = Kind::kDrain;
  std::uint32_t worker = 0;
  SimTime begin_ns = 0;
  SimTime end_ns = 0;
  IfaceId iface = kInvalidIface;  ///< kDrain only
  std::uint32_t shard = 0;        ///< kFanIn only
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

class ChromeTraceBuilder {
 public:
  ChromeTraceBuilder();

  /// Names the process row for a pid (emitted as metadata events).
  void set_process_name(std::uint32_t pid, const std::string& name);

  /// Adds a recorder's event stream under `pid`, one thread row per
  /// interface (tid = iface; drain events land on tid 0).  If the recorder
  /// overflowed, a metadata counter notes how many events were lost.
  void add_recorder(const TraceRecorder& recorder, std::uint32_t pid);

  /// Adds runtime worker spans under `pid`, one thread row per worker.
  void add_spans(const std::vector<TraceSpan>& spans, std::uint32_t pid);

  /// Adds one counter sample (rendered as a "C" event; chrome plots a
  /// stacked area per counter name).
  void add_counter(std::uint32_t pid, const std::string& name, SimTime at,
                   double value);

  /// Adds one process-scoped instant marker (fault injections, supervisor
  /// verdicts) on thread row `tid` under `pid`.
  void add_instant(std::uint32_t pid, std::uint32_t tid,
                   const std::string& name, SimTime at);

  std::size_t event_count() const { return events_; }

  /// The full {"traceEvents": [...]} document.
  std::string json() const;

 private:
  /// Opens the next event object in the traceEvents array.
  JsonWriter& event();
  void thread_name(std::uint32_t pid, std::uint32_t tid,
                   const std::string& name);

  JsonWriter out_;  ///< the document, traceEvents array still open
  std::size_t events_ = 0;
};

}  // namespace midrr::telemetry
