#include "sim/simulator.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace midrr {

std::uint32_t Simulator::new_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  if ((slot_count_ >> kChunkBits) == chunks_.size()) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return slot_count_++;
}

void Simulator::push(SimTime at, std::uint32_t slot) {
  queue_.push_back(Entry{at, next_seq_++, slot});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

Simulator::EventHandle Simulator::make_event(Action action) {
  MIDRR_REQUIRE(action != nullptr, "null event action");
  const std::uint32_t index = new_slot();
  Slot& s = slot(index);
  s.action = std::move(action);
  s.recurring = true;
  return EventHandle{index};
}

void Simulator::schedule_at(SimTime at, EventHandle event) {
  MIDRR_REQUIRE(at >= now_, "scheduling into the past");
  MIDRR_REQUIRE(event.slot < slot_count_ && slot(event.slot).recurring,
                "unknown event handle");
  push(at, event.slot);
}

void Simulator::schedule_in(SimDuration delay, EventHandle event) {
  MIDRR_REQUIRE(delay >= 0, "negative delay");
  schedule_at(now_ + delay, event);
}

void Simulator::schedule_at(SimTime at, Action action) {
  MIDRR_REQUIRE(at >= now_, "scheduling into the past");
  MIDRR_REQUIRE(action != nullptr, "null event action");
  const std::uint32_t index = new_slot();
  slot(index).action = std::move(action);
  push(at, index);
}

void Simulator::schedule_in(SimDuration delay, Action action) {
  MIDRR_REQUIRE(delay >= 0, "negative delay");
  schedule_at(now_ + delay, std::move(action));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  const Entry e = queue_.back();
  queue_.pop_back();
  MIDRR_ASSERT(e.at >= now_, "event queue went backwards");
  now_ = e.at;
  ++executed_;
  Slot& s = slot(e.slot);
  if (s.recurring) {
    s.action();
  } else {
    // Free the slot before running, so the action may reuse it; clearing
    // it drops the captures even where a moved-from function keeps them.
    const Action action = std::move(s.action);
    s.action = nullptr;
    free_slots_.push_back(e.slot);
    action();
  }
  return true;
}

void Simulator::run_until(SimTime horizon) {
  while (!queue_.empty() && queue_.front().at <= horizon) {
    step();
  }
  if (now_ < horizon) now_ = horizon;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace midrr
