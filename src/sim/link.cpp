#include "sim/link.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace midrr {

LinkTransmitter::LinkTransmitter(Simulator& sim, IfaceId iface,
                                 RateProfile profile, PacketProvider provider,
                                 DepartureCallback on_departure)
    : sim_(sim),
      iface_(iface),
      profile_(std::move(profile)),
      provider_(std::move(provider)),
      on_departure_(std::move(on_departure)) {
  MIDRR_REQUIRE(provider_ != nullptr, "link needs a packet provider");
  completion_ = sim_.make_event([this] { complete(); });
  wakeup_ = sim_.make_event([this] {
    wakeup_pending_ = false;
    notify_backlog();
  });
}

void LinkTransmitter::set_enabled(bool enabled) {
  enabled_ = enabled;
  if (enabled_) notify_backlog();
}

void LinkTransmitter::set_jitter(double fraction, std::uint64_t seed) {
  MIDRR_REQUIRE(fraction >= 0.0 && fraction < 1.0,
                "jitter fraction must be in [0, 1)");
  jitter_ = fraction;
  if (fraction > 0.0) {
    jitter_rng_.emplace(seed);
  } else {
    jitter_rng_.reset();
  }
}

void LinkTransmitter::notify_backlog() {
  if (!busy_ && enabled_) try_send();
}

SimDuration LinkTransmitter::jittered(SimDuration duration) {
  if (jitter_ <= 0.0) return duration;
  const double factor = jitter_rng_->uniform(1.0 - jitter_, 1.0 + jitter_);
  return std::max<SimDuration>(
      1, static_cast<SimDuration>(static_cast<double>(duration) * factor));
}

void LinkTransmitter::try_send() {
  // Re-entrancy guard: pulling a packet from the provider can trigger a
  // source refill, whose enqueue notifies this very transmitter again.
  if (busy_ || !enabled_) return;
  busy_ = true;

  const double rate = profile_.rate_at(sim_.now());
  if (rate <= 0.0) {
    busy_ = false;
    // Link is down; wake up when the profile next changes.  Only one wakeup
    // is kept pending so repeated notify_backlog calls don't pile up events.
    const SimTime next = profile_.next_change_after(sim_.now());
    if (next != kSimTimeMax && !wakeup_pending_) {
      wakeup_pending_ = true;
      sim_.schedule_at(next, wakeup_);
    }
    return;
  }

  auto packet = provider_(iface_, sim_.now());
  if (!packet) {
    busy_ = false;
    return;
  }

  in_flight_duration_ = jittered(transmission_time(packet->size_bytes, rate));
  in_flight_ = std::move(*packet);
  sim_.schedule_in(in_flight_duration_, completion_);
}

void LinkTransmitter::complete() {
  MIDRR_ASSERT(busy_, "completion while idle");
  // The departure callback may re-enter notify_backlog and refill the slot,
  // so the packet it is handed lives here, not in in_flight_.
  const Packet p = std::move(in_flight_);
  busy_ = false;
  busy_time_ += in_flight_duration_;
  bytes_sent_ += p.size_bytes;
  ++packets_sent_;
  if (on_departure_) on_departure_(iface_, p, sim_.now());
  try_send();
}

}  // namespace midrr
