// Simulated-time primitives.
//
// Simulation time is kept as an integral nanosecond count so that event
// ordering is exact and runs are bit-reproducible; rates are double
// bits-per-second.  Conversions between (bytes, rate) and durations live
// here so rounding policy is in one place: transmission durations round up
// to the next nanosecond, so a link can never send faster than its rate.
#pragma once

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

#include "util/assert.hpp"

namespace midrr {

/// Simulated time in nanoseconds since the start of the run.
using SimTime = std::int64_t;

/// Simulated duration in nanoseconds.
using SimDuration = std::int64_t;

inline constexpr SimTime kSimTimeMax = std::numeric_limits<SimTime>::max();

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1'000;
inline constexpr SimDuration kMillisecond = 1'000'000;
inline constexpr SimDuration kSecond = 1'000'000'000;

/// Converts a duration in (fractional) seconds to nanoseconds, rounding to
/// nearest.
constexpr SimDuration from_seconds(double seconds) {
  return static_cast<SimDuration>(seconds * static_cast<double>(kSecond) + 0.5);
}

/// Converts nanoseconds to fractional seconds (for reporting only).
constexpr double to_seconds(SimDuration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// `ms` milliseconds as nanoseconds (rounded), or nullopt unless finite
/// and in [0, 1e9] (about 11.6 days; every such count is below 2^51 ns and
/// round-trips exactly through a double).  The one path for millisecond
/// inputs -- fault plans, CLI flags, /adapt, --slo -- because casting an
/// out-of-range double to an integer is undefined behaviour.
inline std::optional<SimDuration> checked_ms_to_ns(double ms) {
  if (!(ms >= 0.0 && ms <= 1e9)) return std::nullopt;  // NaN fails too
  return static_cast<SimDuration>(ms * 1e6 + 0.5);
}

/// checked_ms_to_ns of a whole token ("0.25", "1e3"); nullopt on "5abc".
inline std::optional<SimDuration> parse_ms(std::string_view text) {
  double ms = 0.0;
  const char* end = text.data() + text.size();
  const std::from_chars_result res = std::from_chars(text.data(), end, ms);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  return checked_ms_to_ns(ms);
}

/// Duration needed to transmit `bytes` at `rate_bps` bits per second,
/// rounded up to a whole nanosecond.  `rate_bps` must be positive.
inline SimDuration transmission_time(std::uint64_t bytes, double rate_bps) {
  MIDRR_REQUIRE(rate_bps > 0.0, "transmission over a zero/negative-rate link");
  const double seconds =
      static_cast<double>(bytes) * 8.0 / rate_bps;
  return static_cast<SimDuration>(
      std::ceil(seconds * static_cast<double>(kSecond)));
}

/// Average rate in bits per second achieved by sending `bytes` over `d`.
inline double rate_bps(std::uint64_t bytes, SimDuration d) {
  MIDRR_REQUIRE(d > 0, "rate over an empty interval");
  return static_cast<double>(bytes) * 8.0 / to_seconds(d);
}

/// Absolute steady-clock nanoseconds (CLOCK_MONOTONIC).  Unlike a
/// Runtime's now_ns() -- which is relative to that runtime's start() --
/// this is comparable across processes on the same host, which is what
/// the wire-level latency attribution (tx stamp in the WireHeader, rx
/// stamp in midrr_rx) needs.
inline std::uint64_t mono_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Convenience literals-ish helpers (Mb/s is the paper's reporting unit).
constexpr double mbps(double v) { return v * 1e6; }
constexpr double kbps(double v) { return v * 1e3; }
constexpr double gbps(double v) { return v * 1e9; }
constexpr double to_mbps(double bps) { return bps / 1e6; }

}  // namespace midrr
