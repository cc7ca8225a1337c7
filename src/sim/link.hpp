// A simulated network interface transmitter.
//
// When idle, the transmitter asks its packet provider (the scheduler) for
// the next packet -- exactly the paper's "when interface j is free, which
// packet should be sent?" contract -- transmits it for size/rate seconds,
// reports the departure, and repeats.  A zero rate (link down) parks the
// transmitter until the profile's next change point.
//
// The provider pull happens *at transmission time*, never ahead of it, so
// scheduling decisions always see the freshest queue and flag state.
//
// The in-flight packet and its duration wait in members, and the
// completion and the link-down wakeup are simulator handles registered
// once, so a transmission constructs no event action and allocates
// nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "flow/ids.hpp"
#include "flow/packet.hpp"
#include "sim/rate_profile.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace midrr {

/// Supplies the next packet for an interface, or nullopt if nothing is
/// eligible right now.  (Scheduler::dequeue matches this signature.)
using PacketProvider =
    std::function<std::optional<Packet>(IfaceId, SimTime now)>;

/// Observes completed transmissions.
using DepartureCallback =
    std::function<void(IfaceId, const Packet&, SimTime completed_at)>;

class LinkTransmitter {
 public:
  LinkTransmitter(Simulator& sim, IfaceId iface, RateProfile profile,
                  PacketProvider provider, DepartureCallback on_departure);
  // The simulator's event slots hold this transmitter's address.
  LinkTransmitter(const LinkTransmitter&) = delete;
  LinkTransmitter& operator=(const LinkTransmitter&) = delete;

  /// Tells the transmitter that packets may have become available; cheap
  /// and idempotent (no-op while a transmission is in flight).
  void notify_backlog();

  /// Administrative up/down control (an interface disappearing is modeled
  /// by set_enabled(false); its queue contents stay with the scheduler).
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  /// Multiplies every transmission duration by uniform[1-f, 1+f] -- the
  /// service-time jitter real wireless MACs exhibit (rate adaptation,
  /// contention, retries).  Besides realism this matters for fidelity:
  /// perfectly constant service times phase-lock the service-flag dynamics
  /// of miDRR against other interfaces' rounds in ways no physical testbed
  /// would (see DESIGN.md section 8).  Default 0 (deterministic).
  void set_jitter(double fraction, std::uint64_t seed = 1);

  IfaceId iface() const { return iface_; }
  bool busy() const { return busy_; }

  double current_rate_bps() const { return profile_.rate_at(sim_.now()); }
  const RateProfile& profile() const { return profile_; }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  /// Total time spent actually transmitting (for utilization checks).
  SimDuration busy_time() const { return busy_time_; }

 private:
  void try_send();
  void complete();
  SimDuration jittered(SimDuration duration);

  Simulator& sim_;
  IfaceId iface_;
  RateProfile profile_;
  PacketProvider provider_;
  DepartureCallback on_departure_;
  Packet in_flight_;
  SimDuration in_flight_duration_ = 0;
  Simulator::EventHandle completion_;
  Simulator::EventHandle wakeup_;
  bool busy_ = false;
  bool enabled_ = true;
  bool wakeup_pending_ = false;
  double jitter_ = 0.0;
  std::optional<Rng> jitter_rng_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t packets_sent_ = 0;
  SimDuration busy_time_ = 0;
};

}  // namespace midrr
