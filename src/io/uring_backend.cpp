#include "io/uring_backend.hpp"

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/time.hpp"

namespace midrr::io {

namespace {

/// Kernel pushback worth an internal retry (same set the UDP backend
/// treats as requeue-not-drop).
bool transient_errno(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS ||
         err == EINTR || err == ENOMEM;
}

/// How long flush() waits for straggler CQEs per round (stop() calls it
/// a bounded number of rounds, so this caps shutdown latency, not loss).
constexpr std::uint64_t kFlushWaitNs = 2'000'000;  // 2 ms

}  // namespace

UringBackend::UringBackend(UringBackendOptions options)
    : options_(std::move(options)) {
  if (options_.sq_entries == 0) options_.sq_entries = 8;
  if (options_.inflight_limit == 0) options_.inflight_limit = 1;
  submit_force_threshold_ = std::max(1u, options_.sq_entries / 2);
  regions_.store(std::make_shared<const RegionTable>(),
                 std::memory_order_release);
}

UringBackend::~UringBackend() {
  for (auto& ring : rings_) {
    if (ring != nullptr && ring->handle >= 0) api().ring_destroy(ring->handle);
  }
  for (auto& st : states_) {
    if (st != nullptr && st->fd >= 0) sockets().close_fd(st->fd);
  }
}

void UringBackend::attach_topology(
    const std::vector<std::uint32_t>& worker_of_iface) {
  worker_of_iface_ = worker_of_iface;
}

void UringBackend::attach(const std::vector<std::string>& iface_names) {
  if (!states_.empty()) {
    throw std::runtime_error("UringBackend: attached twice");
  }
  // Interfaces of one worker share one ring; without topology everything
  // lands on ring 0 (still correct, just one shared submission queue --
  // only reachable when the embedding never calls attach_topology).
  std::unordered_map<std::uint32_t, std::uint32_t> ring_of_worker;
  DestConfig dest_config{options_.dest_by_name, options_.default_host,
                         options_.base_port};
  states_.reserve(iface_names.size());
  for (std::size_t j = 0; j < iface_names.size(); ++j) {
    const std::uint32_t worker =
        j < worker_of_iface_.size() ? worker_of_iface_[j] : 0;
    auto [it, fresh] =
        ring_of_worker.emplace(worker, static_cast<std::uint32_t>(rings_.size()));
    if (fresh) {
      auto ring = std::make_unique<RingState>();
      const int handle =
          api().ring_create(options_.sq_entries, options_.buffer_table_size);
      if (handle < 0) {
        throw std::runtime_error(
            std::string("io_uring egress: ring_create failed: ") +
            std::strerror(-handle) +
            (handle == -ENOSYS
                 ? " (build without MIDRR_WITH_URING, or kernel too old)"
                 : ""));
      }
      ring->handle = handle;
      ring->zc = options_.zerocopy && api().supports_zerocopy(handle);
      ring->slots.resize(options_.inflight_limit);
      ring->header_arena.resize(options_.inflight_limit * kWireScratchBytes);
      ring->free_slots.reserve(options_.inflight_limit);
      for (std::size_t s = options_.inflight_limit; s > 0; --s) {
        ring->free_slots.push_back(static_cast<std::uint32_t>(s - 1));
      }
      ring->cqes.resize(256);
      rings_.push_back(std::move(ring));
    }
    auto st = std::make_unique<IfaceState>();
    st->name = iface_names[j];
    st->ring = it->second;
    const UdpDestination* conf = nullptr;
    st->dest = resolve_dest(dest_config, st->name, j, &conf);
    st->fd = open_egress_socket(sockets(), conf, st->name);
    states_.push_back(std::move(st));
  }
  zerocopy_active_ = false;
  for (const auto& ring : rings_) zerocopy_active_ |= ring->zc;
  MIDRR_LOG_INFO() << "uring egress: " << rings_.size() << " ring(s), "
                   << iface_names.size() << " iface(s), sq="
                   << options_.sq_entries
                   << (zerocopy_active_ ? ", SEND_ZC" : ", sendmsg only");
}

bool UringBackend::register_frame_pool(const net::FramePool& pool) {
  if (rings_.empty()) {
    MIDRR_LOG_WARN() << "uring egress: register_frame_pool before attach()";
    return false;
  }
  if (!zerocopy_active_) {
    MIDRR_LOG_WARN() << "uring egress: kernel lacks SEND_ZC (or zerocopy "
                        "disabled); fixed-buffer path stays off";
    return false;
  }
  if (pool.headroom_bytes() < kWireScratchBytes) {
    MIDRR_LOG_WARN() << "uring egress: frame pool has " << pool.headroom_bytes()
                     << "B headroom, need " << kWireScratchBytes
                     << "B for the contiguous header; fixed-buffer path off";
    return false;
  }
  const auto slabs = pool.pool().slab_regions();
  if (slabs.empty()) {
    MIDRR_LOG_WARN() << "uring egress: frame pool has no slabs to register "
                        "(construct it with precarve)";
    return false;
  }
  // Build the successor table off to the side, register each slab on every
  // ring (same index everywhere -- an all-or-nothing per slab), then
  // publish atomically.  Workers loading mid-registration see either the
  // old table (fallback path, correct) or the new one.
  auto old = regions_.load(std::memory_order_acquire);
  auto table = std::make_shared<RegionTable>(*old);
  for (const auto& slab : slabs) {
    const auto index =
        static_cast<std::uint16_t>(next_buf_index_.load(std::memory_order_relaxed));
    if (index >= options_.buffer_table_size) {
      MIDRR_LOG_WARN() << "uring egress: buffer table full ("
                       << options_.buffer_table_size << " slots); "
                       << "remaining slabs take the fallback path";
      break;
    }
    bool ok = true;
    std::size_t rings_registered = 0;
    for (const auto& ring : rings_) {
      const int rc =
          api().register_buffer(ring->handle, index, slab.base, slab.bytes);
      if (rc < 0) {
        MIDRR_LOG_WARN() << "uring egress: register_buffer(slab @" << index
                         << ", " << slab.bytes
                         << "B) failed: " << std::strerror(-rc)
                         << "; slab takes the fallback path";
        ok = false;
        break;
      }
      ++rings_registered;
    }
    if (!ok) {
      if (rings_registered > 0) {
        // Some rings now hold this slab at `index`.  Burn the slot so the
        // next slab cannot silently replace a partial registration; the
        // fast path keys off the region table, which never learns this
        // index, so the stale per-ring entries are inert.
        next_buf_index_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    next_buf_index_.fetch_add(1, std::memory_order_relaxed);
    table->push_back(Region{slab.base, slab.bytes, index});
  }
  const bool grew = table->size() > old->size();
  std::sort(table->begin(), table->end(),
            [](const Region& a, const Region& b) { return a.base < b.base; });
  regions_.store(std::shared_ptr<const RegionTable>(std::move(table)),
                 std::memory_order_release);
  if (grew) {
    MIDRR_LOG_INFO() << "uring egress: " << registered_buffers()
                     << " slab(s) registered as fixed buffers";
  }
  return grew;
}

const UringBackend::Region* UringBackend::find_region(const RegionTable& table,
                                                      const net::Byte* p,
                                                      std::size_t len) const {
  // First region whose base is > p, step back one: regions never overlap.
  auto it = std::upper_bound(
      table.begin(), table.end(), p,
      [](const net::Byte* ptr, const Region& r) { return ptr < r.base; });
  if (it == table.begin()) return nullptr;
  --it;
  if (p >= it->base && p + len <= it->base + it->bytes) return &*it;
  return nullptr;
}

void UringBackend::release_slot(RingState& ring, std::uint32_t idx) {
  Slot& slot = ring.slots[idx];
  slot.packet = Packet{};  // drops the frame reference -> pool slot recycles
  slot.frame_keepalive.reset();
  slot.state = Slot::State::kFree;
  slot.retry_after_notif = false;
  ring.free_slots.push_back(idx);
}

std::size_t UringBackend::reap_ring(RingState& ring, std::uint64_t wait_ns) {
  std::size_t total = 0;
  for (;;) {
    // Only the FIRST reap may block (flush's straggler wait); once
    // something arrived the rest of the drain is non-blocking.
    const int n = api().reap(ring.handle, ring.cqes.data(),
                             static_cast<unsigned>(ring.cqes.size()),
                             total == 0 ? wait_ns : 0);
    if (n <= 0) break;
    if (cqe_batch_hist_ != nullptr) {
      cqe_batch_hist_->record(static_cast<std::uint64_t>(n));
    }
    for (int c = 0; c < n; ++c) {
      const UringCqe& cqe = ring.cqes[static_cast<std::size_t>(c)];
      const auto idx = static_cast<std::uint32_t>(cqe.user_data);
      MIDRR_ASSERT(idx < ring.slots.size(), "uring CQE with bogus user_data");
      Slot& slot = ring.slots[idx];
      IfaceState& st = *states_[slot.iface];
      if (slot.state == Slot::State::kReclaimed) {
        // Late kernel answer for a slot reclaim_inflight() already
        // force-dropped: the ledger recorded the drop, so the CQE only
        // retires the slot.  A SEND_ZC result (F_MORE) still has its
        // buffer-release notification coming -- stay parked until then.
        if (!cqe.more) release_slot(ring, idx);
        ++total;
        continue;
      }
      if (cqe.notif) {
        // Buffer-release notification of a SEND_ZC: the kernel is done
        // reading the slab bytes; the packet itself was resolved when the
        // result CQE (F_MORE) landed.
        st.zc_notifs.fetch_add(1, std::memory_order_relaxed);
        if (cqe.zc_copied) {
          st.zc_copied.fetch_add(1, std::memory_order_relaxed);
        }
        MIDRR_ASSERT(slot.state == Slot::State::kAwaitNotif,
                     "uring notif CQE for a slot not awaiting one");
        if (slot.retry_after_notif) {
          // The result CQE was a transient failure; now that the buffer is
          // released the slot may be resubmitted (same serialized header,
          // same sequence number).
          slot.retry_after_notif = false;
          slot.state = Slot::State::kRetryPending;
          ring.retry.push_back(idx);
        } else {
          release_slot(ring, idx);
        }
        ++total;
        continue;
      }
      MIDRR_ASSERT(slot.state == Slot::State::kInflight,
                   "uring result CQE for a slot not in flight");
      if (cqe.res < 0 && transient_errno(-cqe.res)) {
        // Internal retry: the packet is NOT handed back to the runtime --
        // its wire header (and sequence number) is already fixed, so
        // re-sending from the slot is the only gap-free option.
        st.cqe_requeues.fetch_add(1, std::memory_order_relaxed);
        if (cqe.more) {
          slot.state = Slot::State::kAwaitNotif;
          slot.retry_after_notif = true;
        } else {
          slot.state = Slot::State::kRetryPending;
          ring.retry.push_back(idx);
        }
        ++total;
        continue;
      }
      EgressCompletion done;
      if (cqe.res == static_cast<std::int32_t>(slot.wire_bytes)) {
        done.verdict = SendDisposition::kSent;
        st.sent_datagrams.fetch_add(1, std::memory_order_relaxed);
        st.sent_wire_bytes.fetch_add(slot.wire_bytes,
                                     std::memory_order_relaxed);
      } else if (cqe.res >= 0) {
        // Short write: part of the datagram left, which UDP cannot mend.
        // Terminal; the consumed sequence number makes it a receiver gap.
        done.verdict = SendDisposition::kDropped;
        st.short_writes.fetch_add(1, std::memory_order_relaxed);
        st.error_drops.fetch_add(1, std::memory_order_relaxed);
      } else {
        done.verdict = SendDisposition::kDropped;
        st.send_errors.fetch_add(1, std::memory_order_relaxed);
        st.error_drops.fetch_add(1, std::memory_order_relaxed);
      }
      if (cqe.more) {
        // SEND_ZC result: a notification follows and the kernel may still
        // read the slab bytes, so the slot keeps a frame reference -- but
        // only the frame; the packet itself moves to the runtime now
        // (one refcount bump instead of a full Packet copy per send).
        slot.frame_keepalive = slot.packet.frame;
        done.packet = std::move(slot.packet);
        slot.state = Slot::State::kAwaitNotif;
      } else {
        done.packet = std::move(slot.packet);
        release_slot(ring, idx);
      }
      st.completions.push_back(std::move(done));
      ++total;
    }
  }
  return total;
}

void UringBackend::push_retries(RingState& ring) {
  std::size_t kept = 0;
  for (std::size_t r = 0; r < ring.retry.size(); ++r) {
    const std::uint32_t idx = ring.retry[r];
    Slot& slot = ring.slots[idx];
    MIDRR_ASSERT(slot.state == Slot::State::kRetryPending,
                 "uring retry list holds a non-retrying slot");
    if (api().push(ring.handle, slot.op)) {
      slot.state = Slot::State::kInflight;
      ++ring.pushed_since_submit;
    } else {
      ring.retry[kept++] = idx;  // SQ full: stays parked for next pass
    }
  }
  ring.retry.resize(kept);
}

int UringBackend::submit_ring(RingState& ring) {
  if (ring.pushed_since_submit == 0) return 0;
  if (sqe_batch_hist_ != nullptr) {
    sqe_batch_hist_->record(ring.pushed_since_submit);
  }
  ring.pushed_since_submit = 0;
  return api().submit(ring.handle);
}

EgressResult UringBackend::send_burst(
    IfaceId iface, std::span<const Packet> burst, SimTime now,
    std::vector<SendDisposition>& dispositions) {
  (void)now;
  IfaceState& st = *states_[iface];
  RingState& ring = *rings_[st.ring];
  EgressResult result;
  const std::size_t n = burst.size();
  if (n == 0) return result;
  result.clean = false;  // fates are deferred; dispositions are the truth
  dispositions.assign(n, SendDisposition::kInflight);

  // Stalled retries go first: they hold sequence numbers OLDER than this
  // burst's, and per-flow FIFO on the wire depends on them leaving first.
  reap_ring(ring);
  push_retries(ring);

  const auto regions = regions_.load(std::memory_order_acquire);
  std::size_t accepted = 0;
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
      dispositions[i] = SendDisposition::kDropped;
      st.oversize_drops.fetch_add(1, std::memory_order_relaxed);
      result.dropped += 1;
      result.dropped_bytes += packet.size_bytes;
      continue;
    }
    if (ring.free_slots.empty()) {
      // Slot arena exhausted: push the tail back to the runtime stash.
      // These packets were never serialized -- no sequence consumed, no
      // rewind needed.
      for (std::size_t k = i; k < n; ++k) {
        dispositions[k] = SendDisposition::kRequeued;
        result.requeued += 1;
        result.requeued_bytes += burst[k].size_bytes;
        st.requeued_packets.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    const std::uint32_t idx = ring.free_slots.back();
    Slot& slot = ring.slots[idx];

    if (st.seq_next.size() <= packet.flow) {
      st.seq_next.resize(packet.flow + 1, 0);
    }
    WireHeader header;
    header.payload_bytes = static_cast<std::uint16_t>(payload);
    header.flow = packet.flow;
    header.seq = st.seq_next[packet.flow];
    header.size_bytes = packet.size_bytes;
    if (packet.trace != 0) {
      header.flags |= WireHeader::kFlagTxTimestamp;
      header.tx_timestamp_ns = mono_now_ns();
    }

    // Fixed zero-copy path: pooled frame, registered slab, enough
    // headroom, and -- decisive -- sole ownership.  use_count() == 1 on
    // the burst's reference means no fault-injected duplicate shares this
    // frame, so writing the header into the shared slab bytes cannot race
    // another in-flight send of the same frame.
    const Region* region = nullptr;
    net::Byte* wire_base = nullptr;
    if (ring.zc && packet.frame != nullptr && payload == frame_bytes &&
        frame_bytes > 0 && packet.frame->headroom_bytes() >= header_bytes &&
        packet.frame.use_count() == 1) {
      net::Byte* payload_base =
          const_cast<net::Byte*>(packet.frame->bytes().data());
      wire_base = payload_base - header_bytes;
      region = find_region(*regions, wire_base, header_bytes + payload);
    }

    UringOp op;
    op.fd = st.fd;
    op.user_data = idx;
    const std::size_t wire_bytes = header_bytes + payload;
    if (region != nullptr) {
      net::BufWriter writer(std::span<net::Byte>(wire_base, header_bytes));
      header.encode(writer);
      op.kind = UringOp::Kind::kSendZcFixed;
      op.buf = wire_base;
      op.len = wire_bytes;
      op.buf_index = region->index;
      op.addr = reinterpret_cast<const sockaddr*>(&st.dest);
      op.addr_len = sizeof(st.dest);
    } else {
      // Fallback: header in the slot's arena bytes, payload gathered from
      // the frame, plain SENDMSG (kernel copies -- exactly the UDP
      // backend's data path, minus its per-burst syscalls).
      net::Byte* hdr = ring.header_arena.data() + idx * kWireScratchBytes;
      net::BufWriter writer(std::span<net::Byte>(hdr, kWireScratchBytes));
      header.encode(writer);
      slot.iov[0].iov_base = hdr;
      slot.iov[0].iov_len = header_bytes;
      std::size_t iov_count = 1;
      if (payload > 0) {
        slot.iov[1].iov_base =
            const_cast<net::Byte*>(packet.frame->bytes().data());
        slot.iov[1].iov_len = payload;
        iov_count = 2;
      }
      std::memset(&slot.msg, 0, sizeof(slot.msg));
      slot.msg.msg_name = &st.dest;
      slot.msg.msg_namelen = sizeof(st.dest);
      slot.msg.msg_iov = slot.iov;
      slot.msg.msg_iovlen = iov_count;
      op.kind = UringOp::Kind::kSendmsg;
      op.msg = &slot.msg;
    }

    if (!api().push(ring.handle, op)) {
      // SQ full: the header was written but no sequence number was
      // consumed (seq_next bumps below, only on acceptance) -- the suffix
      // is plain submission-time pushback.
      for (std::size_t k = i; k < n; ++k) {
        dispositions[k] = SendDisposition::kRequeued;
        result.requeued += 1;
        result.requeued_bytes += burst[k].size_bytes;
        st.requeued_packets.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    ring.free_slots.pop_back();
    ++ring.pushed_since_submit;
    ++st.seq_next[packet.flow];
    // Path counters tick only once the ring accepted the SQE -- an
    // SQ-full requeue would otherwise count the same packet again on
    // its resend.
    if (region != nullptr) {
      st.fixed_sends.fetch_add(1, std::memory_order_relaxed);
    } else {
      st.fallback_sends.fetch_add(1, std::memory_order_relaxed);
    }
    slot.state = Slot::State::kInflight;
    slot.iface = iface;
    slot.wire_bytes = static_cast<std::uint32_t>(wire_bytes);
    slot.packet = packet;  // copy: holds the frame until the CQE resolves
    slot.op = op;
    st.inflight.fetch_add(1, std::memory_order_relaxed);
    result.inflight += 1;
    result.inflight_bytes += packet.size_bytes;
    ++accepted;
  }

  // ONE submit for the whole burst (retries included) -- the syscall
  // amortization this backend exists for.  With doorbell coalescing the
  // submit is deferred further: SQEs from several bursts accumulate until
  // they fill half the SQ or poll_completions sees the ring go quiet.
  if (options_.submit_coalesce_polls == 0 ||
      ring.pushed_since_submit >= submit_force_threshold_) {
    const int rc = submit_ring(ring);
    if (rc < 0) {
      MIDRR_LOG_WARN() << "uring egress: submit failed on iface " << st.name
                       << ": " << std::strerror(-rc);
      st.send_errors.fetch_add(1, std::memory_order_relaxed);
    }
    // Opportunistic reap: loopback completes near-instantly, so harvesting
    // now keeps slot occupancy (and the runtime's inflight gauge) low.
    if (accepted > 0) reap_ring(ring);
  }
  return result;
}

std::size_t UringBackend::poll_completions(IfaceId iface,
                                           std::vector<EgressCompletion>& out) {
  IfaceState& st = *states_[iface];
  RingState& ring = *rings_[st.ring];
  const std::size_t reaped = reap_ring(ring);
  if (reaped > 0) {
    ring.idle_polls = 0;
  } else {
    ++ring.idle_polls;
  }
  const bool had_retries = !ring.retry.empty();
  if (had_retries) push_retries(ring);
  if (ring.pushed_since_submit > 0) {
    // Without coalescing, only retries can be pending here (send_burst
    // already rang the doorbell) and they must not wait for the next
    // burst.  With coalescing, submit once the SQ backlog is deep enough
    // to amortize the enter, or once the ring has gone quiet -- a quiet
    // ring means no CQE can arrive until we ring the doorbell ourselves.
    const unsigned coalesce = options_.submit_coalesce_polls;
    const bool due = coalesce == 0
                         ? had_retries
                         : (ring.idle_polls >= coalesce ||
                            ring.pushed_since_submit >= submit_force_threshold_);
    if (due) {
      submit_ring(ring);
      ring.idle_polls = 0;
      reap_ring(ring);
    }
  }
  const std::size_t n = st.completions.size();
  if (n == 0) return 0;
  out.insert(out.end(), std::make_move_iterator(st.completions.begin()),
             std::make_move_iterator(st.completions.end()));
  st.completions.clear();
  // Inflight is decremented only when the runtime takes the completion
  // back, so the gauge never undercounts packets the runtime has not yet
  // accounted (identity: dequeued == sent + drops + pending + inflight).
  st.inflight.fetch_sub(n, std::memory_order_relaxed);
  return n;
}

std::uint64_t UringBackend::inflight_packets(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->inflight.load(std::memory_order_relaxed);
}

void UringBackend::flush(IfaceId iface) {
  IfaceState& st = *states_[iface];
  RingState& ring = *rings_[st.ring];
  push_retries(ring);
  submit_ring(ring);
  // Unresolved slots remain: give the kernel a bounded beat to answer.
  // The wait happens INSIDE reap_ring so the harvested CQEs go through
  // the normal classification -- a waited-for completion must resolve
  // its slot (sent/retry/release), not just be counted and dropped.
  const bool stragglers =
      st.inflight.load(std::memory_order_relaxed) > st.completions.size();
  reap_ring(ring, stragglers ? kFlushWaitNs : 0);
}

std::size_t UringBackend::reclaim_inflight(IfaceId iface,
                                           std::vector<EgressCompletion>& out) {
  IfaceState& st = *states_[iface];
  RingState& ring = *rings_[st.ring];
  // Harvest whatever the kernel already answered, then splice the staged
  // completions (real verdicts) directly.  Deliberately NOT
  // poll_completions(): that path resubmits kRetryPending slots, and the
  // force-drop loop below would then retire slots with a fresh SQE in
  // flight -- the late CQE would land on a recycled slot.
  reap_ring(ring);
  std::size_t n = st.completions.size();
  if (n > 0) {
    out.insert(out.end(), std::make_move_iterator(st.completions.begin()),
               std::make_move_iterator(st.completions.end()));
    st.completions.clear();
    st.inflight.fetch_sub(n, std::memory_order_relaxed);
  }
  // Force-drop every slot the kernel never answered for.  Slots still
  // owed a CQE are parked as kReclaimed rather than freed, so a late
  // answer retires them silently (see reap_ring).
  std::size_t forced = 0;
  for (std::uint32_t idx = 0; idx < ring.slots.size(); ++idx) {
    Slot& slot = ring.slots[idx];
    if (slot.state == Slot::State::kFree ||
        slot.state == Slot::State::kReclaimed || slot.iface != iface) {
      continue;
    }
    if (slot.state == Slot::State::kAwaitNotif && !slot.retry_after_notif) {
      // Packet already resolved and handed back; only the buffer-release
      // notification is missing.  Park with the keepalive intact -- the
      // kernel may still read the slab bytes.
      slot.retry_after_notif = false;
      slot.state = Slot::State::kReclaimed;
      continue;
    }
    EgressCompletion done;
    done.packet = std::move(slot.packet);
    done.verdict = SendDisposition::kDropped;
    st.error_drops.fetch_add(1, std::memory_order_relaxed);
    st.reclaimed.fetch_add(1, std::memory_order_relaxed);
    st.inflight.fetch_sub(1, std::memory_order_relaxed);
    if (slot.state == Slot::State::kRetryPending) {
      // Its transient-failure CQE was already consumed: nothing is owed,
      // the slot can recycle immediately.
      ring.retry.erase(std::remove(ring.retry.begin(), ring.retry.end(), idx),
                       ring.retry.end());
      release_slot(ring, idx);
    } else {
      // kInflight, or a ZC retry still awaiting its buffer-release
      // notification: a CQE is outstanding.  Pin the slab bytes (the
      // kernel may read them yet) and park.
      slot.frame_keepalive = done.packet.frame;
      slot.retry_after_notif = false;
      slot.state = Slot::State::kReclaimed;
    }
    out.push_back(std::move(done));
    ++forced;
    ++n;
  }
  if (forced > 0) {
    MIDRR_LOG_WARN() << "uring egress: reclaimed "
                     << st.reclaimed.load(std::memory_order_relaxed)
                     << " unanswered in-flight packet(s) on " << st.name
                     << " at shutdown (counted as io drops)";
  }
  return n;
}

std::uint64_t UringBackend::send_errors(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->send_errors.load(std::memory_order_relaxed);
}

std::uint64_t UringBackend::syscalls() const {
  return const_cast<UringBackend*>(this)->api().syscalls();
}

std::uint64_t UringBackend::sent_datagrams(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->sent_datagrams.load(std::memory_order_relaxed);
}

std::uint64_t UringBackend::sent_wire_bytes(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->sent_wire_bytes.load(std::memory_order_relaxed);
}

std::uint64_t UringBackend::fixed_sends(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->fixed_sends.load(std::memory_order_relaxed);
}

std::uint64_t UringBackend::fallback_sends(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->fallback_sends.load(std::memory_order_relaxed);
}

std::uint64_t UringBackend::cqe_requeues(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->cqe_requeues.load(std::memory_order_relaxed);
}

std::uint64_t UringBackend::short_writes(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->short_writes.load(std::memory_order_relaxed);
}

std::uint64_t UringBackend::oversize_drops(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->oversize_drops.load(std::memory_order_relaxed);
}

std::uint64_t UringBackend::error_drops(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->error_drops.load(std::memory_order_relaxed);
}

std::uint64_t UringBackend::zc_notifs(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->zc_notifs.load(std::memory_order_relaxed);
}

std::uint64_t UringBackend::zc_copied(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return states_[iface]->zc_copied.load(std::memory_order_relaxed);
}

std::uint64_t UringBackend::cq_overflows() const {
  auto& self = *const_cast<UringBackend*>(this);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += self.api().overflow_count(ring->handle);
  }
  return total;
}

std::uint16_t UringBackend::dest_port(IfaceId iface) const {
  if (iface >= states_.size()) return 0;
  return ntohs(states_[iface]->dest.sin_port);
}

bool UringBackend::zerocopy_active() const { return zerocopy_active_; }

std::size_t UringBackend::registered_buffers() const {
  return regions_.load(std::memory_order_acquire)->size();
}

void UringBackend::register_metrics(telemetry::MetricsRegistry& registry) {
  const auto count_of = [](const std::atomic<std::uint64_t>& v) {
    return [&v] {
      return static_cast<double>(v.load(std::memory_order_relaxed));
    };
  };
  sqe_batch_hist_ = &registry.histogram(
      "midrr_io_uring_sqe_batch",
      "SQEs submitted per io_uring_enter (the syscall amortization).",
      {{"backend", "uring"}});
  cqe_batch_hist_ = &registry.histogram(
      "midrr_io_uring_cqe_batch",
      "Completions harvested per reap pass.", {{"backend", "uring"}});
  registry.gauge_fn(
      "midrr_io_uring_registered_buffers",
      "PacketPool slabs registered as fixed buffers (zero-copy ranges).",
      {{"backend", "uring"}},
      [this] { return static_cast<double>(registered_buffers()); });
  registry.counter_fn(
      "midrr_io_uring_cq_overflows_total",
      "CQ overflow events (completions parked kernel-side; a CQ sizing "
      "signal, not loss).",
      {{"backend", "uring"}}, [this] {
        return static_cast<double>(cq_overflows());
      });
  registry.counter_fn("midrr_io_syscalls_total",
                      "Transmit syscalls issued by the egress backend "
                      "(io_uring_enter calls, all rings).",
                      {{"backend", "uring"}},
                      [this] { return static_cast<double>(syscalls()); });
  for (const auto& sp : states_) {
    IfaceState* st = sp.get();
    const telemetry::LabelSet labels{{"backend", "uring"},
                                     {"iface", st->name}};
    registry.gauge_fn(
        "midrr_io_uring_inflight_packets",
        "Packets accepted into the ring whose completion has not yet been "
        "handed back to the runtime (the io_inflight conservation term).",
        labels, [st] {
          return static_cast<double>(
              st->inflight.load(std::memory_order_relaxed));
        });
    registry.counter_fn(
        "midrr_io_send_errors_total",
        "Hard (non-transient) transmit failures; feeds the Supervisor's "
        "link-health verdicts.",
        labels, count_of(st->send_errors));
    registry.counter_fn("midrr_io_sent_datagrams_total",
                        "Datagrams confirmed sent by their CQEs.", labels,
                        count_of(st->sent_datagrams));
    registry.counter_fn(
        "midrr_io_sent_wire_bytes_total",
        "Wire bytes confirmed sent (headers + capped payloads).", labels,
        count_of(st->sent_wire_bytes));
    registry.counter_fn(
        "midrr_io_requeued_packets_total",
        "Packets pushed back at submission time (SQ or slot exhaustion) "
        "and parked in the runtime stash for retry.",
        labels, count_of(st->requeued_packets));
    registry.counter_fn(
        "midrr_io_oversize_drops_total",
        "Packets dropped because header + capped payload exceeds the "
        "65507-byte UDP datagram limit.",
        labels, count_of(st->oversize_drops));
    registry.counter_fn(
        "midrr_io_error_drops_total",
        "Packets dropped terminally (hard CQE errno, short write, or "
        "shutdown reclaim).",
        labels, count_of(st->error_drops));
    registry.counter_fn(
        "midrr_io_uring_cqe_requeues_total",
        "Transient CQE failures (EAGAIN/ENOBUFS/...) retried internally "
        "with the same sequence number -- never a wire-ledger gap.",
        labels, count_of(st->cqe_requeues));
    registry.counter_fn(
        "midrr_io_uring_short_writes_total",
        "CQEs reporting fewer bytes than the datagram (terminal drop).",
        labels, count_of(st->short_writes));
    registry.counter_fn(
        "midrr_io_uring_fixed_sends_total",
        "Datagrams sent zero-copy from a registered PacketPool slab "
        "(header written into frame headroom, single contiguous range).",
        labels, count_of(st->fixed_sends));
    registry.counter_fn(
        "midrr_io_uring_fallback_sends_total",
        "Datagrams sent via the copying SENDMSG fallback (heap/shared/"
        "unregistered frames).",
        labels, count_of(st->fallback_sends));
    registry.counter_fn(
        "midrr_io_uring_zc_notifs_total",
        "SEND_ZC buffer-release notifications (each frees one slot).",
        labels, count_of(st->zc_notifs));
    registry.counter_fn(
        "midrr_io_uring_zc_copied_total",
        "SEND_ZC notifications reporting the kernel copied after all "
        "(loopback always does -- an honesty signal, not an error).",
        labels, count_of(st->zc_copied));
  }
}

std::unique_ptr<EgressBackend> make_uring_backend(UringBackendOptions options) {
  if (!uring_supported() && options.api == nullptr) {
    throw std::runtime_error(
        "io_uring egress backend not built: reconfigure with "
        "-DMIDRR_WITH_URING=ON");
  }
  return std::make_unique<UringBackend>(std::move(options));
}

}  // namespace midrr::io
