// Per-class SLO engine: declared latency targets, multi-window burn rate.
//
// An SLO here is "p99 latency of class C stays under T" with an implied
// error budget: at p99, 1% of packets may exceed T.  The engine consumes
// the stage tracer's sampled end-to-end latencies (no extra clock reads),
// bins them into fixed-width epoch buckets per class, and reports the
// burn rate over a short and a long trailing window:
//
//   burn = (violating fraction in window) / error_budget
//
// burn == 1 means the class is spending budget exactly as fast as the SLO
// allows; > 1 under sustained overload pages, ~0 when idle.  Two windows
// give the classic fast-burn / slow-burn pair without storing per-sample
// state: each bucket is (epoch tag, samples, violations) and a window is
// the sum of the buckets whose tag falls inside it.
//
// Concurrency: record() is wait-free (relaxed atomics).  Epoch recycling
// is a tag-CAS where the winner zeroes the bucket; a racing recorder can
// slip a sample in between CAS and zero and lose it.  That bias is bounded
// by the writer count per bucket flip and irrelevant at burn-rate
// granularity -- documented, not defended.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flow/ids.hpp"
#include "telemetry/metrics.hpp"
#include "util/json.hpp"
#include "util/time.hpp"

namespace midrr::telemetry {

/// One declared objective, as parsed from `--slo class=NAME:p99_ms=X`.
struct SloSpec {
  std::string class_name;
  std::uint64_t p99_target_ns = 0;
};

/// Parses "class=NAME:p99_ms=X" (X a positive millisecond count, at most
/// 1e9, that parse_ms accepts).  Returns false (out untouched) on malformed
/// or out-of-range input.
bool parse_slo_spec(const std::string& text, SloSpec* out);

class SloEngine {
 public:
  struct Options {
    std::uint64_t bucket_ns = kSecond;     ///< epoch-bucket width
    std::uint32_t short_window_buckets = 5;   ///< fast-burn window
    std::uint32_t long_window_buckets = 60;   ///< slow-burn window
    double error_budget = 0.01;  ///< p99 => 1% of packets may violate
  };

  /// `max_classes` bounds the ClassId -> objective binding table.
  SloEngine(std::vector<SloSpec> specs, std::size_t max_classes,
            Options options);
  SloEngine(std::vector<SloSpec> specs, std::size_t max_classes);

  SloEngine(const SloEngine&) = delete;
  SloEngine& operator=(const SloEngine&) = delete;

  /// Binds a runtime ClassId to the objective declared for `class_name`.
  /// Returns false when no spec matches.  Bindings may be installed or
  /// changed while recorders run (the table is atomic).
  bool bind_class(ClassId cls, const std::string& class_name);

  // --- Hot path (any thread) ----------------------------------------------

  /// Accounts one sampled end-to-end latency for `cls`.  No-op when the
  /// class is unbound.
  void record(ClassId cls, std::uint64_t latency_ns, std::uint64_t now_ns);

  // --- Read side -----------------------------------------------------------

  /// Burn rate over the trailing `window_buckets` epochs ending at now.
  /// 0 when the window holds no samples.
  double burn_rate(std::size_t slo, std::uint32_t window_buckets,
                   std::uint64_t now_ns) const;
  double short_burn(std::size_t slo, std::uint64_t now_ns) const {
    return burn_rate(slo, options_.short_window_buckets, now_ns);
  }
  double long_burn(std::size_t slo, std::uint64_t now_ns) const {
    return burn_rate(slo, options_.long_window_buckets, now_ns);
  }

  const std::vector<SloSpec>& specs() const { return specs_; }
  const Options& options() const { return options_; }
  std::uint64_t samples(std::size_t slo) const {
    return states_[slo]->samples.load(std::memory_order_relaxed);
  }
  std::uint64_t violations(std::size_t slo) const {
    return states_[slo]->violations.load(std::memory_order_relaxed);
  }

  /// Registers midrr_slo_* series.  `now_fn` supplies the clock burn-rate
  /// gauges are evaluated against at scrape time (the runtime's now_ns);
  /// it must be thread-safe and outlive the registry.
  void register_metrics(MetricsRegistry& registry,
                        std::function<std::uint64_t()> now_fn);

  /// {"slos": [...]} for the /slo route and the midrr_rt report: per
  /// objective, the target, the lifetime sample/violation totals, and both
  /// window burn rates at `now_ns`.
  void write_json(JsonWriter& out, std::uint64_t now_ns) const;
  std::string json(std::uint64_t now_ns) const;

 private:
  struct Bucket {
    std::atomic<std::uint64_t> epoch{~0ULL};  ///< absolute bucket index
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> violations{0};
  };

  struct State {
    std::vector<Bucket> ring;
    std::atomic<std::uint64_t> samples{0};     ///< lifetime
    std::atomic<std::uint64_t> violations{0};  ///< lifetime
    explicit State(std::size_t buckets) : ring(buckets) {}
  };

  Options options_;
  std::vector<SloSpec> specs_;
  std::vector<std::unique_ptr<State>> states_;       ///< by objective index
  std::vector<std::atomic<std::int32_t>> class_to_slo_;  ///< by ClassId, -1 unbound
};

}  // namespace midrr::telemetry
