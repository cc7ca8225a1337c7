#include "telemetry/slo.hpp"

#include <optional>

#include "util/assert.hpp"
#include "util/json.hpp"

namespace midrr::telemetry {

bool parse_slo_spec(const std::string& text, SloSpec* out) {
  // class=NAME:p99_ms=X
  constexpr const char* kClassKey = "class=";
  constexpr const char* kTargetKey = ":p99_ms=";
  if (text.rfind(kClassKey, 0) != 0) return false;
  const std::size_t target_at = text.find(kTargetKey);
  if (target_at == std::string::npos) return false;
  const std::size_t name_begin = 6;  // strlen("class=")
  if (target_at <= name_begin) return false;  // empty class name
  const std::string name = text.substr(name_begin, target_at - name_begin);
  const std::optional<SimDuration> target =
      parse_ms(std::string_view(text).substr(target_at + 8));  // ":p99_ms="
  if (!target || *target <= 0) return false;
  out->class_name = name;
  out->p99_target_ns = static_cast<std::uint64_t>(*target);
  return true;
}

SloEngine::SloEngine(std::vector<SloSpec> specs, std::size_t max_classes)
    : SloEngine(std::move(specs), max_classes, Options{}) {}

SloEngine::SloEngine(std::vector<SloSpec> specs, std::size_t max_classes,
                     Options options)
    : options_(options),
      specs_(std::move(specs)),
      class_to_slo_(max_classes) {
  MIDRR_REQUIRE(options_.bucket_ns >= 1, "slo bucket width must be >= 1ns");
  MIDRR_REQUIRE(options_.short_window_buckets >= 1 &&
                    options_.long_window_buckets >=
                        options_.short_window_buckets,
                "slo windows must be non-empty and short <= long");
  MIDRR_REQUIRE(options_.error_budget > 0.0, "slo error budget must be > 0");
  // +2 slack so the oldest bucket of the long window is never the one the
  // current epoch is about to recycle.
  const std::size_t ring = options_.long_window_buckets + 2;
  states_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    states_.push_back(std::make_unique<State>(ring));
  }
  for (auto& slot : class_to_slo_) {
    slot.store(-1, std::memory_order_relaxed);
  }
}

bool SloEngine::bind_class(ClassId cls, const std::string& class_name) {
  if (cls >= class_to_slo_.size()) return false;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].class_name == class_name) {
      class_to_slo_[cls].store(static_cast<std::int32_t>(i),
                               std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void SloEngine::record(ClassId cls, std::uint64_t latency_ns,
                       std::uint64_t now_ns) {
  if (cls >= class_to_slo_.size()) return;
  const std::int32_t index =
      class_to_slo_[cls].load(std::memory_order_relaxed);
  if (index < 0) return;
  State& state = *states_[static_cast<std::size_t>(index)];
  const std::uint64_t epoch = now_ns / options_.bucket_ns;
  Bucket& bucket = state.ring[epoch % state.ring.size()];
  std::uint64_t tag = bucket.epoch.load(std::memory_order_relaxed);
  if (tag != epoch) {
    // The CAS winner zeroes the recycled bucket.  A racing recorder that
    // lands between the CAS and the stores loses its sample -- bounded by
    // the writer count per flip, noise at burn-rate granularity.
    if (bucket.epoch.compare_exchange_strong(tag, epoch,
                                             std::memory_order_relaxed)) {
      bucket.samples.store(0, std::memory_order_relaxed);
      bucket.violations.store(0, std::memory_order_relaxed);
    }
  }
  const bool violated =
      latency_ns > specs_[static_cast<std::size_t>(index)].p99_target_ns;
  bucket.samples.fetch_add(1, std::memory_order_relaxed);
  state.samples.fetch_add(1, std::memory_order_relaxed);
  if (violated) {
    bucket.violations.fetch_add(1, std::memory_order_relaxed);
    state.violations.fetch_add(1, std::memory_order_relaxed);
  }
}

double SloEngine::burn_rate(std::size_t slo, std::uint32_t window_buckets,
                            std::uint64_t now_ns) const {
  const State& state = *states_[slo];
  const std::uint64_t current = now_ns / options_.bucket_ns;
  std::uint64_t samples = 0;
  std::uint64_t violations = 0;
  for (std::uint32_t i = 0; i < window_buckets; ++i) {
    if (current < i) break;  // window reaches before t=0
    const std::uint64_t epoch = current - i;
    const Bucket& bucket = state.ring[epoch % state.ring.size()];
    if (bucket.epoch.load(std::memory_order_relaxed) != epoch) continue;
    samples += bucket.samples.load(std::memory_order_relaxed);
    violations += bucket.violations.load(std::memory_order_relaxed);
  }
  if (samples == 0) return 0.0;
  const double violating_fraction =
      static_cast<double>(violations) / static_cast<double>(samples);
  return violating_fraction / options_.error_budget;
}

void SloEngine::register_metrics(MetricsRegistry& registry,
                                 std::function<std::uint64_t()> now_fn) {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const std::string& cls = specs_[i].class_name;
    registry.gauge("midrr_slo_target_ns",
                   "Declared p99 latency target for the class.",
                   {{"class", cls}})
        .set(static_cast<double>(specs_[i].p99_target_ns));
    registry.counter_fn(
        "midrr_slo_samples_total",
        "Sampled end-to-end latencies evaluated against the class SLO.",
        {{"class", cls}}, [this, i] {
          return static_cast<double>(samples(i));
        });
    registry.counter_fn(
        "midrr_slo_violations_total",
        "Sampled latencies that exceeded the class target.",
        {{"class", cls}}, [this, i] {
          return static_cast<double>(violations(i));
        });
    registry.gauge_fn(
        "midrr_slo_burn_rate",
        "Error-budget burn rate over the trailing window: violating "
        "fraction / error budget.  1.0 spends budget exactly at the "
        "allowed rate; sustained > 1 means the SLO will be missed.",
        {{"class", cls}, {"window", "short"}}, [this, i, now_fn] {
          return short_burn(i, now_fn());
        });
    registry.gauge_fn("midrr_slo_burn_rate",
                      "Error-budget burn rate over the trailing window.",
                      {{"class", cls}, {"window", "long"}},
                      [this, i, now_fn] { return long_burn(i, now_fn()); });
  }
}

void SloEngine::write_json(JsonWriter& out, std::uint64_t now_ns) const {
  out.begin_object().field("error_budget", options_.error_budget)
      .field("bucket_ns", options_.bucket_ns)
      .field("window_short_buckets", options_.short_window_buckets)
      .field("window_long_buckets", options_.long_window_buckets)
      .key("slos").begin_array();
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    out.begin_object().field("class", specs_[i].class_name)
        .field("p99_target_ns", specs_[i].p99_target_ns)
        .field("samples", samples(i)).field("violations", violations(i))
        .field("burn_short", short_burn(i, now_ns))
        .field("burn_long", long_burn(i, now_ns)).end_object();
  }
  out.end_array().end_object();
}

std::string SloEngine::json(std::uint64_t now_ns) const {
  JsonWriter out;
  write_json(out, now_ns);
  return out.str();
}

}  // namespace midrr::telemetry
