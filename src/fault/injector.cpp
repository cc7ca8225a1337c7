#include "fault/injector.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <stdexcept>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace midrr::fault {

namespace {

/// A flap or scale overlay, already truncated at any cancelling iface_up.
struct Overlay {
  SimTime begin = 0;
  SimTime end = 0;
  bool is_flap = false;
  double scale = 1.0;       ///< iface_scale only
  SimDuration period = 0;   ///< iface_flap only
  SimDuration up_span = 0;  ///< iface_flap: duty * period
};

double base_at(const std::vector<std::pair<SimTime, double>>& base,
               SimTime t) {
  double v = 1.0;
  for (const auto& [at, s] : base) {
    if (at > t) break;
    v = s;
  }
  return v;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

void FaultInjector::attach(std::size_t iface_count, std::size_t worker_count) {
  if (attached_) throw std::runtime_error("fault injector attached twice");
  attached_ = true;
  iface_points_.assign(iface_count, {});
  worker_stalls_.clear();
  worker_stalls_.resize(worker_count);

  for (const FaultEvent& e : plan_.events) {
    switch (e.kind) {
      case FaultKind::kIfaceDown:
      case FaultKind::kIfaceUp:
      case FaultKind::kIfaceFlap:
      case FaultKind::kIfaceScale:
        if (e.iface >= iface_count) {
          throw std::runtime_error(
              "fault plan targets interface " + std::to_string(e.iface) +
              " but the runtime has " + std::to_string(iface_count));
        }
        break;
      case FaultKind::kWorkerStall:
        if (e.worker >= worker_count) {
          throw std::runtime_error(
              "fault plan targets worker " + std::to_string(e.worker) +
              " but the runtime has " + std::to_string(worker_count));
        }
        worker_stalls_[e.worker].windows.push_back(
            Window{e.at_ns, e.at_ns + e.duration_ns, 0.0, 0});
        break;
      case FaultKind::kIngressDrop:
        drop_windows_.push_back(
            Window{e.at_ns, e.at_ns + e.duration_ns, e.probability, 0});
        break;
      case FaultKind::kIngressDup:
        dup_windows_.push_back(
            Window{e.at_ns, e.at_ns + e.duration_ns, e.probability, 0});
        break;
      case FaultKind::kIngressDelay:
        delay_windows_.push_back(Window{e.at_ns, e.at_ns + e.duration_ns,
                                        e.probability, e.delay_ns});
        break;
      case FaultKind::kPoolExhaust:
        pool_windows_.push_back(
            Window{e.at_ns, e.at_ns + e.duration_ns, 0.0, 0});
        break;
    }
  }
  has_ingress_ = !drop_windows_.empty() || !dup_windows_.empty() ||
                 !delay_windows_.empty();

  // Merge overlapping stall windows so one park covers them all.
  for (WorkerStalls& ws : worker_stalls_) {
    std::sort(ws.windows.begin(), ws.windows.end(),
              [](const Window& a, const Window& b) { return a.begin < b.begin; });
    std::vector<Window> merged;
    for (const Window& w : ws.windows) {
      if (!merged.empty() && w.begin <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, w.end);
      } else {
        merged.push_back(w);
      }
    }
    ws.windows = std::move(merged);
  }

  // Compile each interface's capacity multiplier into a piecewise-constant
  // (time, scale) timeline.  Base state comes from down/up events; flap and
  // scale act as time-bounded overlays on top of the base, the
  // latest-starting overlay winning where they overlap, and any iface_up
  // cancelling overlays that began at or before it.
  for (IfaceId i = 0; i < iface_count; ++i) {
    std::vector<std::pair<SimTime, double>> base{{0, 1.0}};
    std::vector<Overlay> overlays;
    std::vector<SimTime> revives;
    for (const FaultEvent& e : plan_.events) {
      if (e.iface != i) continue;
      switch (e.kind) {
        case FaultKind::kIfaceDown: base.emplace_back(e.at_ns, 0.0); break;
        case FaultKind::kIfaceUp:
          base.emplace_back(e.at_ns, 1.0);
          revives.push_back(e.at_ns);
          break;
        case FaultKind::kIfaceFlap: {
          Overlay o;
          o.begin = e.at_ns;
          o.end = e.at_ns + e.duration_ns;
          o.is_flap = true;
          o.period = e.period_ns;
          o.up_span = static_cast<SimDuration>(
              e.duty * static_cast<double>(e.period_ns));
          overlays.push_back(o);
          break;
        }
        case FaultKind::kIfaceScale: {
          Overlay o;
          o.begin = e.at_ns;
          o.end = e.at_ns + e.duration_ns;
          o.scale = e.scale;
          overlays.push_back(o);
          break;
        }
        default: break;
      }
    }
    for (Overlay& o : overlays) {
      for (const SimTime up : revives) {
        if (up >= o.begin) o.end = std::min(o.end, up);
      }
    }

    std::set<SimTime> boundaries;
    for (const auto& [at, s] : base) boundaries.insert(at);
    for (const Overlay& o : overlays) {
      boundaries.insert(o.begin);
      boundaries.insert(o.end);
      if (o.is_flap && o.period > 0) {
        for (SimTime t = o.begin; t < o.end; t += o.period) {
          boundaries.insert(t);
          if (t + o.up_span < o.end) boundaries.insert(t + o.up_span);
        }
      }
    }

    std::vector<std::pair<SimTime, double>>& points = iface_points_[i];
    for (const SimTime t : boundaries) {
      const double base_v = base_at(base, t);
      const Overlay* active = nullptr;
      for (const Overlay& o : overlays) {
        if (o.begin <= t && t < o.end &&
            (active == nullptr || o.begin >= active->begin)) {
          active = &o;
        }
      }
      double v = base_v;
      if (active != nullptr) {
        if (active->is_flap) {
          const SimTime phase = (t - active->begin) % active->period;
          v = phase < active->up_span ? base_v : 0.0;
        } else {
          v = base_v * active->scale;
        }
      }
      if (points.empty() || points.back().second != v) {
        points.emplace_back(t, v);
      }
    }
    if (points.empty() || points.front().first != 0) {
      points.insert(points.begin(), {0, 1.0});
    }
  }
}

double FaultInjector::iface_scale(IfaceId iface, SimTime now,
                                  std::size_t& cursor) const {
  const auto& pts = iface_points_[iface];
  if (cursor >= pts.size()) cursor = pts.size() - 1;
  while (cursor + 1 < pts.size() && pts[cursor + 1].first <= now) ++cursor;
  return pts[cursor].second;
}

double FaultInjector::iface_scale_at(IfaceId iface, SimTime now) const {
  const auto& pts = iface_points_[iface];
  auto it = std::upper_bound(
      pts.begin(), pts.end(), now,
      [](SimTime t, const std::pair<SimTime, double>& p) { return t < p.first; });
  if (it == pts.begin()) return 1.0;
  return std::prev(it)->second;
}

FaultInjector::StallOutcome FaultInjector::maybe_stall(
    std::uint32_t worker, SimTime now,
    const std::atomic<std::uint64_t>& generation, std::uint64_t my_generation,
    telemetry::FlightLog* lane) {
  WorkerStalls& ws = worker_stalls_[worker];
  // Cursor is owned by the worker slot's current thread: advance past
  // expired windows without locking.
  while (ws.cursor < ws.windows.size() && ws.windows[ws.cursor].end <= now) {
    ++ws.cursor;
  }
  if (ws.cursor >= ws.windows.size()) return StallOutcome::kNotStalled;
  const Window& w = ws.windows[ws.cursor];
  if (now < w.begin) return StallOutcome::kNotStalled;

  stalls_entered_.fetch_add(1, std::memory_order_relaxed);
  if (lane != nullptr) {
    lane->log(static_cast<std::uint64_t>(now),
              telemetry::FlightCategory::kFault,
              telemetry::FlightCode::kWorkerStall, worker,
              static_cast<std::uint64_t>(w.end - now));
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(w.end - now);
  std::unique_lock<std::mutex> lk(stall_mu_);
  ws.in_stall = true;
  while (!released_ && !ws.preempt &&
         std::chrono::steady_clock::now() < deadline) {
    stall_cv_.wait_until(lk, deadline);
  }
  ws.in_stall = false;
  ws.preempt = false;
  // Read under stall_mu_: begin_restart() bumps the generation while
  // holding it, so a restarted slot is observed before we touch anything.
  const bool superseded =
      generation.load(std::memory_order_relaxed) != my_generation;
  return superseded ? StallOutcome::kSuperseded : StallOutcome::kResumed;
}

bool FaultInjector::worker_in_stall(std::uint32_t worker) const {
  std::lock_guard<std::mutex> lk(stall_mu_);
  return worker_stalls_[worker].in_stall;
}

bool FaultInjector::begin_restart(std::uint32_t worker,
                                  std::atomic<std::uint64_t>& generation) {
  std::lock_guard<std::mutex> lk(stall_mu_);
  WorkerStalls& ws = worker_stalls_[worker];
  if (!ws.in_stall) return false;
  generation.fetch_add(1, std::memory_order_relaxed);
  ws.preempt = true;
  // Skip past the window being restarted out of: the replacement thread
  // must not immediately re-enter the very stall its predecessor was
  // killed for.  Safe to touch here: the parked thread never reads the
  // cursor again after entering the wait.
  ++ws.cursor;
  stall_cv_.notify_all();
  return true;
}

void FaultInjector::release_all() {
  std::lock_guard<std::mutex> lk(stall_mu_);
  released_ = true;
  stall_cv_.notify_all();
}

const FaultInjector::Window* FaultInjector::find_window(
    const std::vector<Window>& windows, SimTime now) {
  const Window* hit = nullptr;
  for (const Window& w : windows) {
    if (w.begin <= now && now < w.end) hit = &w;  // latest-starting wins
  }
  return hit;
}

IngressAction FaultInjector::sample_ingress(SimTime now, Rng& rng,
                                            SimDuration& delay_ns) {
  if (const Window* w = find_window(drop_windows_, now);
      w != nullptr && rng.coin(w->probability)) {
    ingress_drops_.fetch_add(1, std::memory_order_relaxed);
    return IngressAction::kDrop;
  }
  if (const Window* w = find_window(dup_windows_, now);
      w != nullptr && rng.coin(w->probability)) {
    ingress_dups_.fetch_add(1, std::memory_order_relaxed);
    return IngressAction::kDup;
  }
  if (const Window* w = find_window(delay_windows_, now);
      w != nullptr && rng.coin(w->probability)) {
    ingress_delays_.fetch_add(1, std::memory_order_relaxed);
    delay_ns = w->delay_ns;
    return IngressAction::kDelay;
  }
  return IngressAction::kNone;
}

bool FaultInjector::pool_exhausted(SimTime now) const {
  return find_window(pool_windows_, now) != nullptr;
}

void FaultInjector::register_metrics(telemetry::MetricsRegistry& registry) {
  registry.counter_fn(
      "midrr_fault_ingress_total", "Ingress offers faulted by the injector",
      {{"action", "drop"}},
      [this] { return static_cast<double>(ingress_drops()); });
  registry.counter_fn(
      "midrr_fault_ingress_total", "Ingress offers faulted by the injector",
      {{"action", "dup"}},
      [this] { return static_cast<double>(ingress_dups()); });
  registry.counter_fn(
      "midrr_fault_ingress_total", "Ingress offers faulted by the injector",
      {{"action", "delay"}},
      [this] { return static_cast<double>(ingress_delays()); });
  registry.counter_fn(
      "midrr_fault_pool_rejects_total",
      "Pool acquires failed by injected exhaustion", {},
      [this] { return static_cast<double>(pool_rejects()); });
  registry.counter_fn(
      "midrr_fault_worker_stalls_total", "Worker stalls injected", {},
      [this] { return static_cast<double>(stalls_entered()); });
  registry.counter_fn(
      "midrr_fault_iface_transitions_total",
      "Interface capacity transitions applied by workers", {},
      [this] { return static_cast<double>(iface_transitions()); });
}

const std::vector<std::pair<SimTime, double>>& FaultInjector::iface_timeline(
    IfaceId iface) const {
  return iface_points_[iface];
}

}  // namespace midrr::fault
