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
}

void LinkTransmitter::set_enabled(bool enabled) {
  enabled_ = enabled;
  if (enabled_) notify_backlog();
}

void LinkTransmitter::set_burst(BurstProvider provider,
                                SimDuration opportunity) {
  MIDRR_REQUIRE(provider == nullptr || opportunity > 0,
                "burst opportunity must be positive");
  burst_provider_ = std::move(provider);
  burst_opportunity_ = burst_provider_ ? opportunity : 0;
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
      sim_.schedule_at(next, [this] {
        wakeup_pending_ = false;
        notify_backlog();
      });
    }
    return;
  }

  if (burst_provider_) {
    try_send_burst(rate);
    return;
  }

  auto packet = provider_(iface_, sim_.now());
  if (!packet) {
    busy_ = false;
    return;
  }

  const SimDuration duration =
      jittered(transmission_time(packet->size_bytes, rate));
  in_flight_ = std::move(*packet);
  sim_.schedule_in(duration, [this, duration] { complete(duration); });
}

void LinkTransmitter::try_send_burst(double rate) {
  // Byte budget the link can move within one opportunity at the rate in
  // effect at the burst's start (rate changes mid-burst are not re-priced;
  // keep the opportunity shorter than the profile's change granularity).
  // At least one byte so the provider never sees an empty budget.
  const double budget_bytes = rate * to_seconds(burst_opportunity_) / 8.0;
  const std::uint64_t budget =
      budget_bytes < 1.0 ? 1 : static_cast<std::uint64_t>(budget_bytes);

  burst_.clear();
  burst_durations_.clear();
  if (burst_provider_(iface_, budget, sim_.now(), burst_) == 0) {
    busy_ = false;
    return;
  }

  SimDuration total = 0;
  for (const Packet& p : burst_) {
    const SimDuration d = jittered(transmission_time(p.size_bytes, rate));
    burst_durations_.push_back(d);
    total += d;
  }
  const SimTime started = sim_.now();
  sim_.schedule_in(total, [this, started] { complete_burst(started); });
}

void LinkTransmitter::complete(SimDuration duration) {
  MIDRR_ASSERT(busy_, "completion while idle");
  // The departure callback may re-enter notify_backlog and refill the slot,
  // so the packet it is handed lives here, not in in_flight_.
  const Packet p = std::move(in_flight_);
  busy_ = false;
  busy_time_ += duration;
  bytes_sent_ += p.size_bytes;
  ++packets_sent_;
  if (on_departure_) on_departure_(iface_, p, sim_.now());
  try_send();
}

void LinkTransmitter::complete_burst(SimTime started_at) {
  MIDRR_ASSERT(busy_, "completion while idle");
  // busy_ stays set while departures are replayed: a departure callback can
  // refill sources and re-enter notify_backlog, which must not start a new
  // burst while burst_ is still being drained.
  SimTime at = started_at;
  for (std::size_t i = 0; i < burst_.size(); ++i) {
    const SimDuration d = burst_durations_[i];
    at += d;
    busy_time_ += d;
    bytes_sent_ += burst_[i].size_bytes;
    ++packets_sent_;
    if (on_departure_) on_departure_(iface_, burst_[i], at);
  }
  burst_.clear();
  burst_durations_.clear();
  busy_ = false;
  try_send();
}

}  // namespace midrr
