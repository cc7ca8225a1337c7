#include "sim/simulator.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace midrr {

void Simulator::schedule_at(SimTime at, Action action) {
  MIDRR_REQUIRE(at >= now_, "scheduling into the past");
  MIDRR_REQUIRE(action != nullptr, "null event action");
  queue_.push_back(Entry{at, next_seq_++, std::move(action)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

void Simulator::schedule_in(SimDuration delay, Action action) {
  MIDRR_REQUIRE(delay >= 0, "negative delay");
  schedule_at(now_ + delay, std::move(action));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Entry e = std::move(queue_.back());
  queue_.pop_back();
  MIDRR_ASSERT(e.at >= now_, "event queue went backwards");
  now_ = e.at;
  ++executed_;
  e.action();
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
