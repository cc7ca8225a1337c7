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
// Burst mode (set_burst): instead of one simulator event per packet, the
// transmitter drains a whole transmit opportunity from a BurstProvider
// (Scheduler::dequeue_burst) and schedules ONE completion event for the
// batch.  Departures are still reported with each packet's exact
// completion time; what changes is that all packets of a burst are chosen
// at the burst's start (scheduling state is `opportunity` older at the
// tail of a burst) and the link rate is sampled once per burst.  This
// trades a bounded amount of decision freshness for fewer simulator
// events.  A per-packet event allocates nothing (the packet waits in the
// in-flight slot, and the completion captures only the link and the
// duration), so a burst saves per-packet call overhead -- an event-heap
// push and pop, the completion and the provider call -- not allocations:
// bench/sweep_scalability reads 1.4-1.7x the per-packet decision rate
// with 25 ms bursts (Release, 4-core Xeon).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

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

/// Supplies up to `byte_budget` worth of packets for an interface in one
/// call, appended to `out`; returns how many were appended.
/// (Scheduler::dequeue_burst matches this signature.)
using BurstProvider = std::function<std::size_t(
    IfaceId, std::uint64_t byte_budget, SimTime now, std::vector<Packet>& out)>;

/// Observes completed transmissions.
using DepartureCallback =
    std::function<void(IfaceId, const Packet&, SimTime completed_at)>;

class LinkTransmitter {
 public:
  LinkTransmitter(Simulator& sim, IfaceId iface, RateProfile profile,
                  PacketProvider provider, DepartureCallback on_departure);

  /// Tells the transmitter that packets may have become available; cheap
  /// and idempotent (no-op while a transmission is in flight).
  void notify_backlog();

  /// Administrative up/down control (an interface disappearing is modeled
  /// by set_enabled(false); its queue contents stay with the scheduler).
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  /// Enables batched draining: when idle, pull up to `opportunity` worth
  /// of transmission time from `provider` in one call and simulate the
  /// batch under a single completion event.  Pass a null provider to
  /// return to per-packet operation.  The per-packet provider is still
  /// required (construction) and is unused while burst mode is active.
  void set_burst(BurstProvider provider, SimDuration opportunity);

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
  void try_send_burst(double rate);
  void complete(SimDuration duration);
  void complete_burst(SimTime started_at);
  SimDuration jittered(SimDuration duration);

  Simulator& sim_;
  IfaceId iface_;
  RateProfile profile_;
  PacketProvider provider_;
  BurstProvider burst_provider_;
  SimDuration burst_opportunity_ = 0;
  Packet in_flight_;                      // in-flight packet (per-packet mode)
  std::vector<Packet> burst_;             // in-flight batch (burst mode)
  std::vector<SimDuration> burst_durations_;
  DepartureCallback on_departure_;
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
