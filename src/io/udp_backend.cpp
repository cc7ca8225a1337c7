#include "io/udp_backend.hpp"

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/logging.hpp"
#include "util/time.hpp"

namespace midrr::io {

namespace {

/// Kernel pushback the drain loop should simply retry later; everything
/// else is a hard error (dead route, bad fd, shrunk buffers...).
bool transient_errno(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS ||
         err == EINTR || err == ENOMEM;
}

}  // namespace

UdpBackend::UdpBackend(UdpBackendOptions options)
    : options_(std::move(options)) {
  if (options_.max_batch == 0) options_.max_batch = 1;
}

UdpBackend::~UdpBackend() {
  for (auto& st : states_) {
    if (st != nullptr && st->fd >= 0) api().close_fd(st->fd);
  }
}

void UdpBackend::attach(const std::vector<std::string>& iface_names) {
  if (!states_.empty()) {
    throw std::runtime_error("UdpBackend: attached twice");
  }
  DestConfig dest_config{options_.dest_by_name, options_.default_host,
                         options_.base_port};
  states_.reserve(iface_names.size());
  for (std::size_t j = 0; j < iface_names.size(); ++j) {
    auto st = std::make_unique<IfaceState>();
    st->name = iface_names[j];
    const UdpDestination* conf = nullptr;
    st->dest = resolve_dest(dest_config, st->name, j, &conf);
    st->fd = open_egress_socket(api(), conf, st->name);
    states_.push_back(std::move(st));
  }
}

EgressResult UdpBackend::send_burst(IfaceId iface,
                                    std::span<const Packet> burst, SimTime now,
                                    std::vector<SendDisposition>& dispositions) {
  (void)now;
  IfaceState& st = *states_[iface];
  EgressResult result;
  const std::size_t n = burst.size();
  if (n == 0) return result;
  dispositions.assign(n, SendDisposition::kSent);

  // --- Serialize: one (header, payload) message per sendable packet ------
  st.msgs.resize(n);
  st.iovs.resize(2 * n);
  st.headers.resize(n);
  st.packet_of_msg.clear();
  std::size_t msg_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Packet& packet = burst[i];
    const std::size_t frame_bytes =
        packet.frame != nullptr ? packet.frame->size() : 0;
    const std::size_t payload =
        std::min(frame_bytes, options_.max_payload_bytes);
    const std::size_t header_bytes =
        WireHeader::kSize +
        (packet.trace != 0 ? WireHeader::kTimestampSize : 0);
    if (header_bytes + payload > kMaxDatagramBytes) {
      // Could never leave the host; terminal, counted apart from socket
      // errors so a misconfigured payload cap is distinguishable.
      dispositions[i] = SendDisposition::kDropped;
      st.oversize_drops.fetch_add(1, std::memory_order_relaxed);
      result.dropped += 1;
      result.dropped_bytes += packet.size_bytes;
      continue;
    }
    if (st.seq_next.size() <= packet.flow) {
      st.seq_next.resize(packet.flow + 1, 0);
    }
    WireHeader header;
    header.payload_bytes = static_cast<std::uint16_t>(payload);
    header.flow = packet.flow;
    header.seq = st.seq_next[packet.flow]++;
    header.size_bytes = packet.size_bytes;
    if (packet.trace != 0) {
      // Stage-traced packet: carry the send stamp so a same-host receiver
      // can extend the latency attribution to on-wire delivery.
      header.flags |= WireHeader::kFlagTxTimestamp;
      header.tx_timestamp_ns = mono_now_ns();
    }
    net::BufWriter writer(std::span<net::Byte>(st.headers[msg_count]));
    header.encode(writer);
    iovec* iov = &st.iovs[2 * msg_count];
    iov[0].iov_base = st.headers[msg_count].data();
    iov[0].iov_len = header.wire_size();
    std::size_t iov_count = 1;
    if (payload > 0) {
      // iovec wants void*; the kernel only reads from a transmit iovec.
      iov[1].iov_base =
          const_cast<net::Byte*>(packet.frame->bytes().data());
      iov[1].iov_len = payload;
      iov_count = 2;
    }
    mmsghdr& msg = st.msgs[msg_count];
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_hdr.msg_name = &st.dest;
    msg.msg_hdr.msg_namelen = sizeof(st.dest);
    msg.msg_hdr.msg_iov = iov;
    msg.msg_hdr.msg_iovlen = iov_count;
    st.packet_of_msg.push_back(i);
    ++msg_count;
  }

  // --- Flush in max_batch chunks; stop at the first pushback -------------
  // Whatever stays unsent is requeued, unless a hard error set drop_rest.
  std::size_t done = 0;
  bool drop_rest = false;
  while (done < msg_count) {
    const unsigned int chunk = static_cast<unsigned int>(
        std::min(options_.max_batch, msg_count - done));
    const int rc = api().send_many(st.fd, st.msgs.data() + done, chunk);
    st.syscalls.fetch_add(1, std::memory_order_relaxed);
    if (rc < 0) {
      if (!transient_errno(errno)) {
        st.send_errors.fetch_add(1, std::memory_order_relaxed);
        drop_rest = true;
      }
      break;
    }
    if (rc == 0) break;  // defensive: no progress must not spin
    if (batch_hist_ != nullptr) {
      batch_hist_->record(static_cast<std::uint64_t>(rc));
    }
    done += static_cast<std::size_t>(rc);
    if (static_cast<unsigned int>(rc) < chunk) {
      // Partial return: the kernel took [0..rc) and stopped; the tail is
      // transient pushback, exactly like EAGAIN on the next call.
      break;
    }
  }

  // --- Classify ------------------------------------------------------------
  for (std::size_t m = 0; m < done; ++m) {
    const std::size_t i = st.packet_of_msg[m];
    const Packet& packet = burst[i];
    result.sent += 1;
    result.sent_bytes += packet.size_bytes;
    const iovec* iov = st.msgs[m].msg_hdr.msg_iov;
    std::uint64_t wire = iov[0].iov_len;
    if (st.msgs[m].msg_hdr.msg_iovlen == 2) wire += iov[1].iov_len;
    st.sent_datagrams.fetch_add(1, std::memory_order_relaxed);
    st.sent_wire_bytes.fetch_add(wire, std::memory_order_relaxed);
  }
  for (std::size_t m = done; m < msg_count; ++m) {
    const std::size_t i = st.packet_of_msg[m];
    const Packet& packet = burst[i];
    if (drop_rest) {
      dispositions[i] = SendDisposition::kDropped;
      st.error_drops.fetch_add(1, std::memory_order_relaxed);
      result.dropped += 1;
      result.dropped_bytes += packet.size_bytes;
      // The consumed sequence number stays consumed: a receiver-side gap
      // IS this loss.
    } else {
      dispositions[i] = SendDisposition::kRequeued;
      st.requeued_packets.fetch_add(1, std::memory_order_relaxed);
      st.requeued_bytes.fetch_add(packet.size_bytes,
                                  std::memory_order_relaxed);
      result.requeued += 1;
      result.requeued_bytes += packet.size_bytes;
    }
  }
  if (result.requeued > 0) {
    st.requeue_events.fetch_add(1, std::memory_order_relaxed);
    // Requeued messages are a strict suffix of the attempted order, so
    // per flow they hold the top sequence numbers: rewind them and the
    // retry re-stamps the same values (no phantom receiver gaps).
    for (std::size_t m = done; m < msg_count; ++m) {
      --st.seq_next[burst[st.packet_of_msg[m]].flow];
    }
  }
  result.clean = result.sent == n;
  return result;
}

std::uint64_t UdpBackend::send_errors(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->send_errors.load(std::memory_order_relaxed);
}

std::uint64_t UdpBackend::syscalls() const {
  std::uint64_t total = 0;
  for (const auto& st : states_) {
    total += st->syscalls.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t UdpBackend::oversize_drops(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->oversize_drops.load(std::memory_order_relaxed);
}

std::uint64_t UdpBackend::sent_datagrams(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->sent_datagrams.load(std::memory_order_relaxed);
}

std::uint64_t UdpBackend::sent_wire_bytes(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->sent_wire_bytes.load(std::memory_order_relaxed);
}

std::uint64_t UdpBackend::requeue_events(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->requeue_events.load(std::memory_order_relaxed);
}

std::uint16_t UdpBackend::dest_port(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return ntohs(states_[iface]->dest.sin_port);
}

void UdpBackend::register_metrics(telemetry::MetricsRegistry& registry) {
  const auto count_of = [](const std::atomic<std::uint64_t>& v) {
    return [&v] {
      return static_cast<double>(v.load(std::memory_order_relaxed));
    };
  };
  batch_hist_ = &registry.histogram(
      "midrr_io_batch_size",
      "Messages accepted per transmit syscall (sendmmsg return value).",
      {{"backend", "udp"}});
  for (const auto& sp : states_) {
    IfaceState* st = sp.get();
    const telemetry::LabelSet labels{{"backend", "udp"}, {"iface", st->name}};
    registry.counter_fn("midrr_io_syscalls_total",
                        "Transmit syscalls issued by the egress backend.",
                        labels, count_of(st->syscalls));
    registry.counter_fn(
        "midrr_io_send_errors_total",
        "Hard (non-transient) transmit syscall failures; feeds the "
        "Supervisor's link-health verdicts.",
        labels, count_of(st->send_errors));
    registry.counter_fn("midrr_io_sent_datagrams_total",
                        "Datagrams handed to the kernel.", labels,
                        count_of(st->sent_datagrams));
    registry.counter_fn(
        "midrr_io_sent_wire_bytes_total",
        "Wire bytes handed to the kernel (headers + capped payloads; "
        "scheduler accounting uses packet size_bytes instead).",
        labels, count_of(st->sent_wire_bytes));
    registry.counter_fn(
        "midrr_io_requeued_packets_total",
        "Packets pushed back by the socket (EAGAIN/ENOBUFS/partial "
        "sendmmsg) and parked for retry; each retry that is pushed back "
        "again counts again.",
        labels, count_of(st->requeued_packets));
    registry.counter_fn("midrr_io_requeued_bytes_total",
                        "Scheduler bytes of requeued packets (cumulative "
                        "over retries).",
                        labels, count_of(st->requeued_bytes));
    registry.counter_fn(
        "midrr_io_oversize_drops_total",
        "Packets dropped because header + capped payload exceeds the "
        "65507-byte UDP datagram limit (terminal, distinct from socket "
        "errors).",
        labels, count_of(st->oversize_drops));
    registry.counter_fn(
        "midrr_io_error_drops_total",
        "Packets dropped terminally after a hard transmit error.", labels,
        count_of(st->error_drops));
  }
}

}  // namespace midrr::io
