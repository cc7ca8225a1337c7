#include "fault/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "fairness/clusters.hpp"
#include "fairness/maxmin.hpp"
#include "fault/adapt.hpp"
#include "fault/recorder.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics.hpp"
#include "util/assert.hpp"

namespace midrr::fault {

const char* to_string(LinkState state) {
  switch (state) {
    case LinkState::kHealthy: return "healthy";
    case LinkState::kSuspect: return "suspect";
    case LinkState::kDead: return "dead";
  }
  return "?";
}

Supervisor::Supervisor(SupervisedRuntime& rt, SupervisorOptions options,
                       telemetry::FairnessSource* fairness)
    : rt_(rt),
      options_(options),
      fairness_(fairness),
      links_(rt.iface_count()),
      workers_(rt.worker_count()),
      state_mirror_(rt.iface_count()) {
  MIDRR_REQUIRE(options_.probe_interval_ns > 0,
                "probe interval must be positive");
  MIDRR_REQUIRE(options_.dead_after_probes > 0 &&
                    options_.healthy_after_probes > 0,
                "hysteresis thresholds must be positive");
}

Supervisor::~Supervisor() { stop(); }

void Supervisor::start() {
  MIDRR_REQUIRE(!running_.load(std::memory_order_relaxed),
                "supervisor started twice");
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    stopping_ = false;
  }
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { supervise_main(); });
}

void Supervisor::stop() {
  if (!running_.exchange(false, std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Supervisor::supervise_main() {
  std::unique_lock<std::mutex> lk(wake_mu_);
  while (!stopping_) {
    lk.unlock();
    probe();
    lk.lock();
    wake_cv_.wait_for(lk,
                      std::chrono::nanoseconds(options_.probe_interval_ns),
                      [this] { return stopping_; });
  }
}

void Supervisor::probe() {
  const SimTime now = rt_.now_ns();
  probe_links(now);
  probe_workers();
  last_probe_ns_ = now;
}

void Supervisor::probe_links(SimTime now) {
  bool topology_changed = false;
  const double window_s =
      last_probe_ns_ >= 0 ? static_cast<double>(now - last_probe_ns_) / 1e9
                          : 0.0;
  // Per-window measured drain rates and verdicts, handed to the adaptive
  // controller after the pass (it judges drift and re-derives shed_bytes).
  std::vector<double> window_bps(links_.size(), 0.0);
  std::vector<LinkState> verdicts(links_.size(), LinkState::kHealthy);
  for (IfaceId j = 0; j < links_.size(); ++j) {
    LinkHealth& h = links_[j];
    const std::uint64_t bytes = rt_.iface_sent_bytes(j);
    const double tokens = rt_.iface_tokens(j);
    const std::uint64_t send_errors = rt_.iface_send_errors(j);
    if (last_probe_ns_ < 0) {
      // First probe establishes baselines; no verdicts from a zero window.
      h.last_bytes = bytes;
      h.last_tokens = tokens;
      h.last_send_errors = send_errors;
      continue;
    }
    window_bps[j] =
        window_s > 0.0
            ? static_cast<double>(bytes - h.last_bytes) * 8.0 / window_s
            : 0.0;
    const bool progressed = bytes > h.last_bytes;
    // Egress send errors: a window with NEW hard transmit failures counts
    // against the link even when the pacer looks normal (the socket is
    // rejecting work the scheduler already granted).
    if (send_errors > h.last_send_errors) {
      ++h.error_probes;
    } else {
      h.error_probes = 0;
    }
    h.last_send_errors = send_errors;

    if (h.state == LinkState::kDead) {
      // Recovery.  Death required backlog against a silent link, which
      // drains the token bucket below one packet; so EITHER bytes moving
      // again OR the bucket refilling past ~one MTU means capacity is
      // back.  (The shard's backlog was re-steered away at the kill, so
      // "bytes moving" alone would never fire -- tokens are the signal.)
      const bool alive = progressed || tokens >= options_.revive_tokens;
      if (alive) {
        if (++h.good_probes >= options_.healthy_after_probes) {
          transition(j, h, LinkState::kHealthy, now);
          rt_.set_iface_down(j, false);
          topology_changed = true;
        }
      } else {
        h.good_probes = 0;
      }
      h.last_bytes = bytes;
      h.last_tokens = tokens;
      verdicts[j] = h.state;
      continue;
    }

    const double configured = rt_.iface_configured_bps(j, now);
    const std::uint64_t backlog = rt_.iface_backlog_bytes(j);
    const double measured_bps = window_bps[j];
    // An unpaced link (configured == 0) has no "should be moving"
    // baseline and is never judged.  Silent = work waiting, nothing sent.
    const bool silent = configured > 0.0 && backlog > 0 && !progressed;
    const bool degraded = configured > 0.0 && backlog > 0 && progressed &&
                          measured_bps < options_.degraded_fraction * configured;
    // Sustained send errors degrade the link through the same suspect
    // machinery as a slow pacer: flagged, surfaced in /healthz, but not
    // killed -- the socket may still be moving most of the traffic.
    const bool erroring = options_.send_error_probes > 0 &&
                          h.error_probes >= options_.send_error_probes;
    if (silent) {
      if (h.state == LinkState::kHealthy) {
        transition(j, h, LinkState::kSuspect, now);
      }
      if (++h.bad_probes >= options_.dead_after_probes) {
        transition(j, h, LinkState::kDead, now);
        rt_.set_iface_down(j, true);
        topology_changed = true;
      }
    } else if (degraded || erroring) {
      // Degraded links are flagged but not killed: the pacer still moves
      // bytes, and killing a slow link strictly reduces capacity.
      h.bad_probes = 0;
      if (h.state == LinkState::kHealthy) {
        transition(j, h, LinkState::kSuspect, now);
      }
    } else {
      h.bad_probes = 0;
      if (h.state == LinkState::kSuspect) {
        transition(j, h, LinkState::kHealthy, now);
      }
    }
    h.last_bytes = bytes;
    h.last_tokens = tokens;
    verdicts[j] = h.state;
  }
  if (adapt_ != nullptr && last_probe_ns_ >= 0) {
    adapt_->on_probe(now, window_s, window_bps, verdicts);
  }
  if (topology_changed && options_.replay_clustering && fairness_ != nullptr) {
    replay_clustering(now);
  }
}

void Supervisor::probe_workers() {
  for (std::uint32_t w = 0; w < workers_.size(); ++w) {
    WorkerHealth& wh = workers_[w];
    const std::uint64_t beat = rt_.worker_heartbeat(w);
    if (beat != wh.last_heartbeat) {
      wh.last_heartbeat = beat;
      wh.frozen_probes = 0;
      continue;
    }
    if (++wh.frozen_probes < options_.worker_stall_probes) continue;
    wh.frozen_probes = 0;  // one attempt per freeze threshold, not per probe
    if (recorder_ != nullptr) {
      // The freeze threshold just fired: the stall began (at least)
      // worker_stall_probes windows ago.  Recorded regardless of whether
      // the restart below is taken -- the stall was observed either way.
      const SimDuration span = static_cast<SimDuration>(
          options_.worker_stall_probes) * options_.probe_interval_ns;
      const SimTime at = rt_.now_ns();
      recorder_->record_worker_stall(w, at > span ? at - span : 0, span);
    }
    if (!options_.restart_stalled_workers) continue;
    restarts_attempted_.fetch_add(1, std::memory_order_relaxed);
    const SimTime now = rt_.now_ns();
    if (rt_.restart_worker(w)) {
      restarts_succeeded_.fetch_add(1, std::memory_order_relaxed);
      append_log(now, "worker " + std::to_string(w) + " restarted");
    } else {
      // Not at the safe point: restarting a thread wedged in arbitrary
      // code would corrupt shard state, so the runtime refused.
      restarts_refused_.fetch_add(1, std::memory_order_relaxed);
      append_log(now, "worker " + std::to_string(w) +
                          " restart refused (not at safe point)");
    }
  }
}

void Supervisor::transition(IfaceId iface, LinkHealth& health, LinkState to,
                            SimTime now) {
  const LinkState from = health.state;
  health.state = to;
  health.bad_probes = 0;
  health.good_probes = 0;
  state_mirror_[iface].store(static_cast<std::uint8_t>(to),
                             std::memory_order_relaxed);
  transitions_.fetch_add(1, std::memory_order_relaxed);
  if (flight_ != nullptr) {
    telemetry::FlightCode code = telemetry::FlightCode::kLinkHealthy;
    if (to == LinkState::kSuspect) code = telemetry::FlightCode::kLinkSuspect;
    if (to == LinkState::kDead) code = telemetry::FlightCode::kLinkDead;
    flight_->log(static_cast<std::uint64_t>(now),
                 telemetry::FlightCategory::kSupervisor, code, iface,
                 static_cast<std::uint64_t>(from));
  }
  std::ostringstream what;
  what << "link " << rt_.iface_name(iface) << " " << to_string(from) << " -> "
       << to_string(to);
  append_log(now, what.str());
  // Terminal verdicts feed the determinism signature and the recorder;
  // suspect flicker deliberately does not (it is probe-timing sensitive).
  if (to == LinkState::kDead) {
    {
      std::lock_guard<std::mutex> lk(verdict_mu_);
      verdicts_.push_back(rt_.iface_name(iface) + ":dead");
    }
    if (recorder_ != nullptr) recorder_->record_link_dead(iface, now);
  } else if (from == LinkState::kDead && to == LinkState::kHealthy) {
    {
      std::lock_guard<std::mutex> lk(verdict_mu_);
      verdicts_.push_back(rt_.iface_name(iface) + ":revived");
    }
    if (recorder_ != nullptr) recorder_->record_link_revived(iface, now);
  }
}

std::vector<std::string> Supervisor::verdict_sequence() const {
  std::lock_guard<std::mutex> lk(verdict_mu_);
  return verdicts_;
}

void Supervisor::replay_clustering(SimTime now) {
  // Re-solve the paper's reference program on the SURVIVING interface set
  // and check the Theorem 2 clustering conditions on its allocation: the
  // degraded topology must itself be a consistent miDRR instance.
  const telemetry::FairnessSample sample = fairness_->fairness_sample();
  const std::size_t m = sample.capacities_bps.size();
  fair::MaxMinInput input;
  input.capacities_bps.resize(m);
  for (IfaceId j = 0; j < m; ++j) {
    if (j < links_.size() && links_[j].state == LinkState::kDead) {
      input.capacities_bps[j] = 0.0;
    } else if (sample.capacities_bps[j] < 0.0) {
      // Unpaced: substitute the lifetime-average drain rate, the same
      // convention the fairness-drift sampler uses for "the fair split of
      // what the hardware actually moved".
      input.capacities_bps[j] =
          now > 0 ? static_cast<double>(sample.iface_sent_bytes[j]) * 8.0 /
                        (static_cast<double>(now) / 1e9)
                  : 0.0;
    } else {
      input.capacities_bps[j] = sample.capacities_bps[j];
    }
  }
  for (const telemetry::FairnessFlowSample& flow : sample.flows) {
    std::vector<bool> willing(m, false);
    bool any_live = false;
    for (IfaceId j = 0; j < m && j < flow.willing.size(); ++j) {
      const bool dead =
          j < links_.size() && links_[j].state == LinkState::kDead;
      willing[j] = flow.willing[j] && !dead;
      any_live = any_live || willing[j];
    }
    // Quarantined flows (no surviving willing interface) leave the
    // program; their rate is zero by construction, not a violation.
    if (!any_live) continue;
    input.weights.push_back(flow.solver_weight());
    input.willing.push_back(std::move(willing));
  }
  if (input.weights.empty()) return;

  clustering_checks_.fetch_add(1, std::memory_order_relaxed);
  const fair::MaxMinResult result = fair::solve_max_min(input);
  const std::optional<std::string> violation =
      fair::check_max_min_conditions(input, result.alloc_bps);
  {
    std::lock_guard<std::mutex> lk(verdict_mu_);
    clustering_verdict_ = violation.value_or("");
  }
  if (violation.has_value()) {
    clustering_violations_.fetch_add(1, std::memory_order_relaxed);
    append_log(now, "clustering violation on survivors: " + *violation);
  } else {
    std::ostringstream what;
    what << "clustering consistent on survivors (" << input.weights.size()
         << " flows, total " << result.total_rate_bps() / 1e6 << " Mbit/s)";
    append_log(now, what.str());
  }
}

bool Supervisor::any_degraded() const {
  for (const auto& s : state_mirror_) {
    if (s.load(std::memory_order_relaxed) !=
        static_cast<std::uint8_t>(LinkState::kHealthy)) {
      return true;
    }
  }
  return false;
}

std::string Supervisor::last_clustering_verdict() const {
  std::lock_guard<std::mutex> lk(verdict_mu_);
  return clustering_verdict_;
}

void Supervisor::register_metrics(telemetry::MetricsRegistry& registry) {
  for (IfaceId j = 0; j < state_mirror_.size(); ++j) {
    registry.gauge_fn(
        "midrr_supervisor_link_state",
        "Supervisor link verdict (0 healthy, 1 suspect, 2 dead)",
        {{"iface", rt_.iface_name(j)}}, [this, j] {
          return static_cast<double>(
              state_mirror_[j].load(std::memory_order_relaxed));
        });
  }
  registry.counter_fn(
      "midrr_supervisor_link_transitions_total",
      "Link state-machine transitions", {},
      [this] { return static_cast<double>(transitions()); });
  registry.counter_fn(
      "midrr_supervisor_worker_restarts_total", "Worker restart attempts",
      {{"outcome", "succeeded"}},
      [this] { return static_cast<double>(restarts_succeeded()); });
  registry.counter_fn(
      "midrr_supervisor_worker_restarts_total", "Worker restart attempts",
      {{"outcome", "refused"}},
      [this] { return static_cast<double>(restarts_refused()); });
  registry.counter_fn(
      "midrr_supervisor_clustering_checks_total",
      "Theorem-2 replays on the surviving interface set", {},
      [this] { return static_cast<double>(clustering_checks()); });
  registry.counter_fn(
      "midrr_supervisor_clustering_violations_total",
      "Theorem-2 replays that found a max-min inconsistency", {},
      [this] { return static_cast<double>(clustering_violations()); });
}

void Supervisor::append_log(SimTime at, std::string what) {
  std::lock_guard<std::mutex> lk(verdict_mu_);
  log_.push_back(FaultLogEntry{at, std::move(what)});
}

std::vector<FaultLogEntry> Supervisor::log() const {
  std::lock_guard<std::mutex> lk(verdict_mu_);
  return log_;
}

void Supervisor::export_trace(telemetry::ChromeTraceBuilder& builder,
                              std::uint32_t pid) const {
  builder.set_process_name(pid, "supervisor");
  for (const FaultLogEntry& entry : log()) {
    builder.add_instant(pid, 0, entry.what, entry.at_ns);
  }
}

}  // namespace midrr::fault
