// midrr_rx: loopback verification receiver for the UDP egress backend.
//
//   midrr_rx --ports 4 --base-port 9000 --duration 12 --json
//
// Binds one non-blocking UDP socket per "interface" (127.0.0.1:base+j),
// parses the WireHeader on every datagram, and credits each flow with the
// SCHEDULER's size_bytes from the header -- so the per-flow totals it
// prints are directly comparable to the max-min solver's ideal allocation
// and to the runtime's own sent_by_flow accounting, regardless of how
// payloads were truncated on the wire.
//
// Exit conditions (whichever comes first):
//   * --duration seconds of wall clock, or
//   * --idle-ms of silence AFTER at least one datagram arrived (so CI can
//     start the receiver first, run midrr_rt, and have the receiver exit
//     shortly after the sender finishes instead of sleeping out the full
//     window).
//
// Sequence numbers are per (port, flow): a jump forward is a gap (real
// datagram loss -- the sender rewinds sequence numbers for requeued
// packets, so transient EAGAIN pushback never shows up here), and a jump
// backward is counted as a reorder.  Loopback should show zero of both.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/wire.hpp"
#include "telemetry/build_info.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/metrics.hpp"
#include "util/json.hpp"
#include "util/time.hpp"

namespace {

struct FlowTally {
  std::uint64_t datagrams = 0;
  std::uint64_t credited_bytes = 0;  // sum of WireHeader::size_bytes
  std::uint64_t wire_bytes = 0;      // datagram bytes actually received
};

// Counters are relaxed atomics: the receive loop is the only writer, but
// --telemetry scrapes them live from the server thread.
struct PortTally {
  std::atomic<std::uint64_t> datagrams{0};
  std::atomic<std::uint64_t> wire_bytes{0};
  std::atomic<std::uint64_t> parse_errors{0};
  std::atomic<std::uint64_t> gaps{0};      // datagrams skipped (seq jumped)
  std::atomic<std::uint64_t> reorders{0};  // seq stepped backward
  std::map<std::uint32_t, std::uint64_t> next_seq;  // loop-owned, unscraped
};

int usage() {
  std::cerr << "usage: midrr_rx [options]\n"
               "  --ports N      UDP sockets to bind (default 4)\n"
               "  --base-port P  first port; socket j binds 127.0.0.1:P+j\n"
               "                 (default 19000)\n"
               "  --duration S   max seconds to listen (default 30)\n"
               "  --idle-ms M    exit after M ms of silence once traffic has\n"
               "                 been seen (0 = wait out --duration;\n"
               "                 default 1000)\n"
               "  --json         machine-readable report on stdout\n"
               "  --telemetry P  serve Prometheus /metrics on 127.0.0.1:P\n"
               "                 while listening (0 = ephemeral port)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using midrr::io::WireHeader;

  std::size_t ports = 4;
  std::uint16_t base_port = 19000;
  double duration_s = 30.0;
  long idle_ms = 1000;
  bool json = false;
  int telemetry_port = -1;  // <0 = telemetry off

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
        return argv[++i];
      };
      if (key == "--ports") ports = std::stoul(value());
      else if (key == "--base-port")
        base_port = static_cast<std::uint16_t>(std::stoul(value()));
      else if (key == "--duration") duration_s = std::stod(value());
      else if (key == "--idle-ms") idle_ms = std::stol(value());
      else if (key == "--json") json = true;
      else if (key == "--telemetry") telemetry_port = std::stoi(value());
      else return usage();
    }
    if (ports == 0 || base_port == 0 || duration_s <= 0.0) return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return usage();
  }

  std::vector<int> fds;
  fds.reserve(ports);
  for (std::size_t j = 0; j < ports; ++j) {
    const int fd =
        ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      std::cerr << "error: socket: " << std::strerror(errno) << "\n";
      return 1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(base_port + j));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      std::cerr << "error: bind 127.0.0.1:" << base_port + j << ": "
                << std::strerror(errno) << "\n";
      return 1;
    }
    fds.push_back(fd);
  }
  std::cerr << "midrr_rx: listening on 127.0.0.1:" << base_port << "-"
            << base_port + ports - 1 << "\n";

  std::vector<PortTally> by_port(ports);
  std::map<std::uint32_t, FlowTally> by_flow;
  std::uint64_t total_datagrams = 0;
  std::atomic<std::uint64_t> traced_datagrams{0};

  // Registry lives whether or not --telemetry is given: the wire-latency
  // histogram doubles as the report's data source (one relaxed fetch_add
  // per sample into the registry-owned grid).
  // Declared after by_port so scrape callbacks never outlive the tallies.
  midrr::telemetry::MetricsRegistry registry;
  midrr::LatencyHistogram& wire_hist = registry.histogram(
      "midrr_rx_wire_latency_ns",
      "One-way wire latency: receive time minus the sender's WireHeader tx "
      "timestamp (traced datagrams only)");
  registry.counter_fn(
      "midrr_rx_traced_datagrams_total",
      "Datagrams carrying a tx timestamp (latency-attribution samples)", {},
      [&traced_datagrams] {
        return static_cast<double>(
            traced_datagrams.load(std::memory_order_relaxed));
      });
  for (std::size_t j = 0; j < ports; ++j) {
    const std::string port_label = std::to_string(base_port + j);
    const auto count_of = [](const std::atomic<std::uint64_t>& c) {
      return [&c] {
        return static_cast<double>(c.load(std::memory_order_relaxed));
      };
    };
    using midrr::telemetry::LabelSet;
    registry.counter_fn("midrr_rx_datagrams_total", "Datagrams received",
                        LabelSet{{"port", port_label}},
                        count_of(by_port[j].datagrams));
    registry.counter_fn("midrr_rx_wire_bytes_total",
                        "Datagram bytes received off the wire",
                        LabelSet{{"port", port_label}},
                        count_of(by_port[j].wire_bytes));
    registry.counter_fn("midrr_rx_parse_errors_total",
                        "Datagrams that failed WireHeader::decode",
                        LabelSet{{"port", port_label}},
                        count_of(by_port[j].parse_errors));
    registry.counter_fn("midrr_rx_gaps_total",
                        "Sequence numbers skipped (real datagram loss)",
                        LabelSet{{"port", port_label}},
                        count_of(by_port[j].gaps));
    registry.counter_fn("midrr_rx_reorders_total",
                        "Sequence numbers that stepped backward",
                        LabelSet{{"port", port_label}},
                        count_of(by_port[j].reorders));
  }

  std::unique_ptr<midrr::telemetry::TelemetryServer> server;
  if (telemetry_port >= 0) {
    midrr::telemetry::register_build_info(registry);
    midrr::telemetry::TelemetryServer::Options sopts;
    sopts.port = static_cast<std::uint16_t>(telemetry_port);
    server = std::make_unique<midrr::telemetry::TelemetryServer>(sopts);
    server->serve_registry(registry);
    try {
      server->start();
    } catch (const std::exception& e) {
      std::cerr << "error: telemetry: " << e.what() << "\n";
      return 1;
    }
    std::cerr << "midrr_rx: telemetry on http://127.0.0.1:" << server->port()
              << "/metrics\n";
  }

  std::vector<pollfd> pfds(ports);
  for (std::size_t j = 0; j < ports; ++j) {
    pfds[j].fd = fds[j];
    pfds[j].events = POLLIN;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(duration_s));
  auto last_rx = t0;
  std::vector<midrr::net::Byte> buf(65536);

  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    if (idle_ms > 0 && total_datagrams > 0 &&
        now - last_rx > std::chrono::milliseconds(idle_ms)) {
      break;
    }
    const auto until = std::min(
        deadline, last_rx + std::chrono::milliseconds(
                                idle_ms > 0 ? idle_ms : 250));
    const long wait_ms = std::max<long>(
        1, std::chrono::duration_cast<std::chrono::milliseconds>(until - now)
               .count());
    const int ready = ::poll(pfds.data(), pfds.size(),
                             static_cast<int>(std::min<long>(wait_ms, 250)));
    if (ready < 0) {
      if (errno == EINTR) continue;
      std::cerr << "error: poll: " << std::strerror(errno) << "\n";
      return 1;
    }
    if (ready == 0) continue;
    for (std::size_t j = 0; j < ports; ++j) {
      if ((pfds[j].revents & POLLIN) == 0) continue;
      PortTally& port = by_port[j];
      // Drain the socket: non-blocking reads until EAGAIN, so one poll
      // wake-up consumes a whole burst.
      while (true) {
        const ssize_t n = ::recvfrom(fds[j], buf.data(), buf.size(), 0,
                                     nullptr, nullptr);
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
          std::cerr << "error: recvfrom: " << std::strerror(errno) << "\n";
          return 1;
        }
        last_rx = std::chrono::steady_clock::now();
        ++total_datagrams;
        port.datagrams.fetch_add(1, std::memory_order_relaxed);
        port.wire_bytes.fetch_add(static_cast<std::uint64_t>(n),
                                  std::memory_order_relaxed);
        const auto header = WireHeader::decode(
            std::span<const midrr::net::Byte>(buf.data(),
                                              static_cast<std::size_t>(n)));
        if (!header.has_value()) {
          port.parse_errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (header->has_tx_timestamp()) {
          // The sender stamps CLOCK_MONOTONIC at egress for traced packets;
          // both processes share the clock on loopback, so the delta is the
          // true one-way wire+stack latency.  Clamp at zero rather than
          // wrap when the clocks disagree (e.g. a cross-host capture).
          const std::uint64_t now_ns = midrr::mono_now_ns();
          const std::uint64_t lat = now_ns > header->tx_timestamp_ns
                                        ? now_ns - header->tx_timestamp_ns
                                        : 0;
          traced_datagrams.fetch_add(1, std::memory_order_relaxed);
          wire_hist.record(lat);
        }
        FlowTally& flow = by_flow[header->flow];
        ++flow.datagrams;
        flow.credited_bytes += header->size_bytes;
        flow.wire_bytes += static_cast<std::uint64_t>(n);
        auto [it, fresh] = port.next_seq.try_emplace(header->flow, 0);
        if (!fresh || header->seq != 0) {
          if (header->seq > it->second) {
            port.gaps.fetch_add(header->seq - it->second,
                                std::memory_order_relaxed);
          } else if (header->seq < it->second) {
            port.reorders.fetch_add(1, std::memory_order_relaxed);
          }
        }
        it->second = std::max(it->second, header->seq) + 1;
      }
    }
  }

  for (const int fd : fds) ::close(fd);
  if (server) server->stop();

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::uint64_t credited = 0, wire = 0, parse_errors = 0, gaps = 0,
                reorders = 0;
  for (const auto& [flow, tally] : by_flow) credited += tally.credited_bytes;
  for (const PortTally& port : by_port) {
    wire += port.wire_bytes.load(std::memory_order_relaxed);
    parse_errors += port.parse_errors.load(std::memory_order_relaxed);
    gaps += port.gaps.load(std::memory_order_relaxed);
    reorders += port.reorders.load(std::memory_order_relaxed);
  }
  const std::uint64_t traced = traced_datagrams.load(std::memory_order_relaxed);
  const double wire_p50_ns = traced > 0 ? wire_hist.quantile(0.50) : 0.0;
  const double wire_p99_ns = traced > 0 ? wire_hist.quantile(0.99) : 0.0;

  if (json) {
    midrr::JsonWriter out;
    out.begin_object().field("ports", ports).field("base_port", base_port)
        .field("duration_s", elapsed).field("datagrams", total_datagrams)
        .field("wire_bytes", wire).field("credited_bytes", credited)
        .field("parse_errors", parse_errors).field("gaps", gaps)
        .field("reorders", reorders).field("traced_datagrams", traced)
        .field("wire_p50_ns", wire_p50_ns).field("wire_p99_ns", wire_p99_ns)
        .key("flows").begin_array();
    for (const auto& [flow, tally] : by_flow) {
      out.begin_object().field("flow", flow)
          .field("datagrams", tally.datagrams)
          .field("credited_bytes", tally.credited_bytes)
          .field("wire_bytes", tally.wire_bytes).end_object();
    }
    out.end_array().key("by_port").begin_array();
    for (std::size_t j = 0; j < ports; ++j) {
      const PortTally& port = by_port[j];
      constexpr auto kRelaxed = std::memory_order_relaxed;
      out.begin_object().field("port", base_port + j)
          .field("datagrams", port.datagrams.load(kRelaxed))
          .field("wire_bytes", port.wire_bytes.load(kRelaxed))
          .field("parse_errors", port.parse_errors.load(kRelaxed))
          .field("gaps", port.gaps.load(kRelaxed))
          .field("reorders", port.reorders.load(kRelaxed)).end_object();
    }
    out.end_array().end_object();
    std::cout << out.str() << "\n";
  } else {
    std::cout << "midrr_rx: " << total_datagrams << " datagrams / " << wire
              << " wire bytes on " << ports << " ports in " << elapsed
              << " s\n"
              << "  credited  " << credited << " scheduler bytes across "
              << by_flow.size() << " flows\n"
              << "  anomalies " << parse_errors << " parse errors, " << gaps
              << " gaps, " << reorders << " reorders\n";
    if (traced > 0) {
      std::cout << "  wire      " << traced << " traced datagrams, latency p50 "
                << wire_p50_ns / 1e3 << " us / p99 " << wire_p99_ns / 1e3
                << " us\n";
    }
  }
  return 0;
}
