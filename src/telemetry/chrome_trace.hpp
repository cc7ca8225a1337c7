// Chrome trace-event (about://tracing / Perfetto) JSON export: the flight
// recorder's second sink, beside the post-mortem dump.
//
// Every lane becomes one process row named after it.  A shard lane's
// scheduler micro-events -- grants, flag skips, sends, drains -- are
// instants on one track per interface (this is Fig 1(c)'s "interface 2
// skips flow a" as something you can scroll through); a worker's span
// lane holds its fan-in and drain spans as duration events, so the enqueue
// -> dequeue -> wire pipeline is visible end to end; drop runs are
// duration events on one track per drop kind; everything else (lifecycle,
// faults, supervisor verdicts) is an instant on the lane's row.  Names
// and arguments come from kFlightCodes, the catalog the dump uses too.
//
// One window: each lane keeps its newest events, so the window starts at
// the newest "oldest retained event" among the lanes that overwrote, and
// no packet-rate event (scheduler micro-event, work span) before it is
// drawn, on any lane: those rows all show the same stretch of time.  A
// transition -- lifecycle, fault, drop run, verdict -- is drawn wherever a
// lane kept it, so a run's whole fault history shows.  Lanes are in
// logging order, not stamp order, so "every lane is complete from the
// start" holds up to one shard lock wait or one drain burst.  Each wrapped
// lane carries a visible trace_overflow instant at that start and a
// trace_truncated metadata record, both with its events_lost.
//
// Timestamps are microseconds (the format's unit); nanoseconds are divided
// down, keeping sub-us precision as fractions.  Load the output via
// chrome://tracing "Load" or ui.perfetto.dev.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "telemetry/flight_recorder.hpp"

namespace midrr::telemetry {

struct ChromeTrace {
  std::string json;         ///< the {"traceEvents": [...]} document
  std::size_t events = 0;   ///< entries in traceEvents
};

/// Renders every lane of `recorder`; `iface_names` names the global
/// interface ids the events carry.  Safe while writers run.
ChromeTrace render_chrome_trace(const FlightRecorder& recorder,
                                const std::vector<std::string>& iface_names);

}  // namespace midrr::telemetry
