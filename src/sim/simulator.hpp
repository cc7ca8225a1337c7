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
#include <limits>
#include <memory>
#include <vector>

#include "util/time.hpp"

namespace midrr {

class Simulator {
 public:
  using Action = std::function<void()>;

  /// Names a recurring event registered with make_event.
  struct EventHandle {
    std::uint32_t slot = std::numeric_limits<std::uint32_t>::max();
  };

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Registers `action` as a recurring event and returns its handle; the
  /// action runs once per arming (schedule_at / schedule_in with the
  /// handle), not at registration.  The action stays in its slot for the
  /// simulator's lifetime and runs there, so it may re-arm its own handle.
  EventHandle make_event(Action action);

  /// Arms `event` to fire at absolute time `at` (>= now).  Constructs and
  /// moves no Action: the heap entry is a (time, sequence, slot) triple.
  /// A handle armed n times fires n times.
  void schedule_at(SimTime at, EventHandle event);

  /// Arms `event` to fire `delay` (>= 0) after now.
  void schedule_in(SimDuration delay, EventHandle event);

  /// Schedules the one-shot `action` to run at absolute time `at` (>= now).
  /// The action moves into a recycled slot here and out of it when it
  /// fires, never while the heap reorders; recurring events should use a
  /// handle instead.
  void schedule_at(SimTime at, Action action);

  /// Schedules the one-shot `action` to run `delay` (>= 0) after now.
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
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Action action;
    bool recurring = false;
  };
  // Slots live in fixed chunks, so growing the table never moves an action
  // (a running action may schedule events that grow it).
  static constexpr std::uint32_t kChunkBits = 6;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

  Slot& slot(std::uint32_t index) {
    return chunks_[index >> kChunkBits][index & (kChunkSlots - 1)];
  }
  std::uint32_t new_slot();
  void push(SimTime at, std::uint32_t slot);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> queue_;  // binary heap under Later; front() is next
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;  // fired one-shot slots
};

}  // namespace midrr
