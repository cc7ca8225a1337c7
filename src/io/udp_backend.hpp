// UdpBackend: real datagrams out of non-blocking UDP sockets, one socket
// per interface, flushed with sendmmsg so a whole paced burst costs one
// syscall.
//
// Wire format: every datagram is WireHeader (io/wire.hpp) followed by up
// to `max_payload_bytes` of the packet's net::Frame (truncated, or absent
// for frameless packets).  The header carries the SCHEDULER's size_bytes,
// so the receiver's per-flow totals compare directly against the max-min
// solver no matter how payloads were capped.
//
// Outcome classification (the heart of the requeue contract):
//   * sendmmsg returns n < requested     -> messages [n..) are kRequeued
//     (the kernel stopped at the first message it could not take).
//   * -1 with EAGAIN/EWOULDBLOCK/ENOBUFS/EINTR/ENOMEM -> the whole
//     remainder is kRequeued; transient, not an error.
//   * -1 with any other errno            -> counted as a send error and
//     the remainder is kDropped (terminal, but visible: a persistently
//     dead socket must not grow an unbounded stash, it must show up in
//     midrr_io_send_errors_total and the Supervisor's link verdicts).
//   * a packet whose capped payload would exceed the 65507-byte UDP
//     datagram limit is kDropped upfront and counted separately
//     (oversize_drops) -- it could never leave, retrying is pointless.
//
// Sequence numbers: the backend stamps a per-(interface, flow) sequence
// into each header at serialization time.  Requeued messages are a strict
// suffix of the attempted send order, so their sequence numbers are
// rewound and re-stamped on retry; terminal drops keep their number, so
// a receiver-side gap is exactly a lost datagram.
//
// Threading: send_burst(iface) runs only on the worker owning `iface`
// (scratch buffers and sequence counters are worker-owned, no locks);
// the counters scraped by telemetry/supervisor are relaxed atomics.
#pragma once

#include <netinet/in.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/dest.hpp"
#include "io/egress.hpp"
#include "io/socket_api.hpp"
#include "io/wire.hpp"

namespace midrr::io {

struct UdpBackendOptions {
  /// Explicit per-interface destinations, keyed by interface name.
  std::unordered_map<std::string, UdpDestination> dest_by_name;
  /// Fallback for interfaces absent from dest_by_name: global interface
  /// index j goes to default_host:base_port+j.  base_port == 0 means "no
  /// fallback" and an unmapped interface is a configuration error.
  std::string default_host = "127.0.0.1";
  std::uint16_t base_port = 0;
  /// Messages per sendmmsg call; a burst larger than this is flushed in
  /// chunks.  The bench sweeps 1/32/256.
  std::size_t max_batch = 64;
  /// Frame bytes copied into each datagram after the header (truncating;
  /// 0 = header-only datagrams).  A packet whose CAPPED payload would
  /// still blow the 65507-byte datagram limit is an oversize drop.
  std::size_t max_payload_bytes = 1400;
  /// Syscall seam; null = the real thing.  Must outlive the backend.
  SocketApi* api = nullptr;
};

class UdpBackend final : public EgressBackend {
 public:
  /// Largest UDP payload over IPv4 (65535 - 20 IP - 8 UDP).
  static constexpr std::size_t kMaxDatagramBytes = 65507;

  explicit UdpBackend(UdpBackendOptions options);
  ~UdpBackend() override;

  UdpBackend(const UdpBackend&) = delete;
  UdpBackend& operator=(const UdpBackend&) = delete;

  std::string name() const override { return "udp"; }
  void attach(const std::vector<std::string>& iface_names) override;
  EgressResult send_burst(IfaceId iface, std::span<const Packet> burst,
                          SimTime now,
                          std::vector<SendDisposition>& dispositions) override;
  std::uint64_t send_errors(IfaceId iface) const override;
  std::uint64_t syscalls() const override;
  void register_metrics(telemetry::MetricsRegistry& registry) override;

  // --- Introspection (reports, tests) ------------------------------------
  std::uint64_t oversize_drops(IfaceId iface) const;
  std::uint64_t sent_datagrams(IfaceId iface) const;
  std::uint64_t sent_wire_bytes(IfaceId iface) const;
  std::uint64_t requeue_events(IfaceId iface) const;
  /// The resolved destination port for `iface` (tests, report output).
  std::uint16_t dest_port(IfaceId iface) const;

 private:
  struct IfaceState {
    std::string name;
    int fd = -1;
    sockaddr_in dest{};
    // Worker-owned scratch, sized on first use: one mmsghdr + two iovecs
    // (header, payload) + one serialized header per in-flight message.
    // Header buffers are sized for the tx-timestamp trailer; untraced
    // packets only transmit the first kSize bytes.
    std::vector<mmsghdr> msgs;
    std::vector<iovec> iovs;
    std::vector<
        std::array<net::Byte, WireHeader::kSize + WireHeader::kTimestampSize>>
        headers;
    std::vector<std::size_t> packet_of_msg;  // msg index -> burst index
    std::vector<std::uint64_t> seq_next;     // per-flow, grown lazily
    // Scrape-rate counters (read by telemetry/supervisor threads).
    std::atomic<std::uint64_t> syscalls{0};
    std::atomic<std::uint64_t> send_errors{0};
    std::atomic<std::uint64_t> sent_datagrams{0};
    std::atomic<std::uint64_t> sent_wire_bytes{0};
    std::atomic<std::uint64_t> requeued_packets{0};
    std::atomic<std::uint64_t> requeued_bytes{0};
    std::atomic<std::uint64_t> requeue_events{0};
    std::atomic<std::uint64_t> oversize_drops{0};
    std::atomic<std::uint64_t> error_drops{0};
  };

  SocketApi& api() { return options_.api != nullptr ? *options_.api : real_; }

  UdpBackendOptions options_;
  RealSocketApi real_;
  std::vector<std::unique_ptr<IfaceState>> states_;
  LatencyHistogram* batch_hist_ = nullptr;  ///< messages per sendmmsg
};

}  // namespace midrr::io
