// Discrete-event simulator.
//
// A single-threaded event loop over simulated nanoseconds.  Events at equal
// timestamps fire in scheduling order (a monotone tie-break sequence), so
// runs are fully deterministic.  This is the testbed substitute for the
// paper's laptop + wireless NICs: links, sources and schedulers all hang
// off this clock.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.hpp"

namespace midrr {

class Simulator {
 public:
  using Action = std::function<void()>;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `action` to run at absolute time `at` (>= now).  Once the
  /// queue has grown, this allocates only when `action` itself does: a
  /// trivially copyable capture of up to two pointers (libstdc++) fits
  /// std::function's inline buffer, so per-packet events keep theirs there.
  void schedule_at(SimTime at, Action action);

  /// Schedules `action` to run `delay` (>= 0) after now.
  void schedule_in(SimDuration delay, Action action);

  /// Runs events until the queue empties or the next event is past
  /// `horizon`; the clock ends at min(horizon, last event time).
  void run_until(SimTime horizon);

  /// Runs until the event queue is empty.
  void run();

  /// Executes exactly one event if present; returns false when idle.
  bool step();

  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> queue_;  // binary heap under Later; front() is next
};

}  // namespace midrr
