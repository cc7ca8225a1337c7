#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace midrr::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kIfaceDown: return "iface_down";
    case FaultKind::kIfaceUp: return "iface_up";
    case FaultKind::kIfaceFlap: return "iface_flap";
    case FaultKind::kIfaceScale: return "iface_scale";
    case FaultKind::kWorkerStall: return "worker_stall";
    case FaultKind::kIngressDrop: return "ingress_drop";
    case FaultKind::kIngressDup: return "ingress_dup";
    case FaultKind::kIngressDelay: return "ingress_delay";
    case FaultKind::kPoolExhaust: return "pool_exhaust";
  }
  return "?";
}

namespace {

[[noreturn]] void fail(std::size_t index, const std::string& what) {
  throw std::runtime_error("fault plan: event " + std::to_string(index) +
                           ": " + what);
}

FaultKind parse_kind(std::size_t index, const std::string& name) {
  for (const FaultKind k :
       {FaultKind::kIfaceDown, FaultKind::kIfaceUp, FaultKind::kIfaceFlap,
        FaultKind::kIfaceScale, FaultKind::kWorkerStall,
        FaultKind::kIngressDrop, FaultKind::kIngressDup,
        FaultKind::kIngressDelay, FaultKind::kPoolExhaust}) {
    if (name == to_string(k)) return k;
  }
  fail(index, "unknown kind \"" + name + "\"");
}

/// Required fields per kind, beyond the universal at_ms/kind; everything
/// else present must come from the optional set.
struct FieldSpec {
  std::set<std::string> required;
  std::set<std::string> optional;
};

FieldSpec fields_for(FaultKind kind) {
  switch (kind) {
    case FaultKind::kIfaceDown: return {{"iface"}, {}};
    case FaultKind::kIfaceUp: return {{"iface"}, {}};
    case FaultKind::kIfaceFlap:
      return {{"iface", "period_ms", "duration_ms"}, {"duty"}};
    case FaultKind::kIfaceScale:
      return {{"iface", "scale", "duration_ms"}, {}};
    case FaultKind::kWorkerStall: return {{"worker", "duration_ms"}, {}};
    case FaultKind::kIngressDrop:
    case FaultKind::kIngressDup:
      return {{"probability", "duration_ms"}, {}};
    case FaultKind::kIngressDelay:
      return {{"probability", "delay_ms", "duration_ms"}, {}};
    case FaultKind::kPoolExhaust: return {{"duration_ms"}, {}};
  }
  return {};
}

double number_field(const JsonValue& obj, std::size_t index,
                    const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail(index, "missing field \"" + key + "\"");
  try {
    return v->as_number();
  } catch (const std::exception&) {
    fail(index, "field \"" + key + "\" must be a number");
  }
}

/// A millisecond field as nanoseconds, in [0, 1e9] ms; `positive` fields
/// must also be at least 1 ns once rounded.
SimDuration ms_field(const JsonValue& obj, std::size_t index,
                     const std::string& key, bool positive) {
  const std::optional<SimDuration> ns =
      checked_ms_to_ns(number_field(obj, index, key));
  if (!ns) fail(index, key + " must be in [0, 1e9] (about 11.6 days)");
  if (positive && *ns <= 0) fail(index, key + " must be > 0");
  return *ns;
}

/// An interface or worker index: a whole number below kInvalidIface.
std::uint32_t index_field(const JsonValue& obj, std::size_t index,
                          const std::string& key) {
  const double v = number_field(obj, index, key);
  if (v < 0 || v != std::floor(v) || v >= static_cast<double>(kInvalidIface)) {
    fail(index, key + " must be an index");
  }
  return static_cast<std::uint32_t>(v);
}

/// Nanoseconds as milliseconds for the writer.  Its shortest round-trip
/// form lets checked_ms_to_ns recover the exact nanosecond count: the
/// absolute error of ns/1e6*1e6 is far below the +0.5 rounding slack for
/// any ns < 2^51.
double to_ms(SimDuration ns) {
  return static_cast<double>(ns) / static_cast<double>(kMillisecond);
}

}  // namespace

SimTime FaultPlan::horizon_ns() const {
  SimTime horizon = 0;
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kIfaceDown) {
      // Open-ended unless a later iface_up revives this interface.
      const bool revived = std::any_of(
          events.begin(), events.end(), [&](const FaultEvent& later) {
            return later.kind == FaultKind::kIfaceUp &&
                   later.iface == e.iface && later.at_ns >= e.at_ns;
          });
      if (!revived) return kSimTimeMax;
    }
    horizon = std::max(horizon, e.at_ns + e.duration_ns);
  }
  return horizon;
}

FaultPlan FaultPlan::parse_json(std::string_view text) {
  const JsonValue doc = JsonValue::parse(text);
  if (!doc.is_object()) {
    throw std::runtime_error("fault plan: top level must be an object");
  }
  for (const std::string& key : doc.keys()) {
    if (key != "seed" && key != "events" && key != "observed") {
      throw std::runtime_error("fault plan: unknown top-level key \"" + key +
                               "\"");
    }
  }
  FaultPlan plan;
  if (const JsonValue* seed = doc.find("seed"); seed != nullptr) {
    const double s = seed->as_number();
    if (s < 0 || s != std::floor(s) || s >= 18446744073709551616.0) {
      throw std::runtime_error(
          "fault plan: seed must be a whole number in [0, 2^64)");
    }
    plan.seed = static_cast<std::uint64_t>(s);
  }
  const JsonValue* events = doc.find("events");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("fault plan: missing \"events\" array");
  }
  std::size_t index = 0;
  for (const JsonValue& entry : events->as_array()) {
    if (!entry.is_object()) fail(index, "must be an object");
    const JsonValue* kind_v = entry.find("kind");
    if (kind_v == nullptr) fail(index, "missing field \"kind\"");
    FaultEvent e;
    e.kind = parse_kind(index, kind_v->as_string());
    const FieldSpec spec = fields_for(e.kind);
    for (const std::string& key : entry.keys()) {
      if (key == "kind" || key == "at_ms") continue;
      if (spec.required.count(key) == 0 && spec.optional.count(key) == 0) {
        fail(index, std::string("unknown field \"") + key + "\" for kind " +
                        to_string(e.kind));
      }
    }
    e.at_ns = ms_field(entry, index, "at_ms", false);
    for (const std::string& key : spec.required) {
      if (entry.find(key) == nullptr) {
        fail(index, std::string("kind ") + to_string(e.kind) +
                        " requires field \"" + key + "\"");
      }
    }
    if (entry.find("iface") != nullptr) {
      e.iface = index_field(entry, index, "iface");
    }
    if (entry.find("worker") != nullptr) {
      e.worker = index_field(entry, index, "worker");
    }
    if (entry.find("duration_ms") != nullptr) {
      e.duration_ns = ms_field(entry, index, "duration_ms", true);
    }
    if (entry.find("period_ms") != nullptr) {
      e.period_ns = ms_field(entry, index, "period_ms", true);
    }
    if (entry.find("delay_ms") != nullptr) {
      e.delay_ns = ms_field(entry, index, "delay_ms", true);
    }
    if (entry.find("probability") != nullptr) {
      e.probability = number_field(entry, index, "probability");
      if (e.probability < 0.0 || e.probability > 1.0) {
        fail(index, "probability must be in [0, 1]");
      }
    }
    if (entry.find("scale") != nullptr) {
      e.scale = number_field(entry, index, "scale");
      if (e.scale < 0.0 || e.scale > 1.0) {
        fail(index, "scale must be in [0, 1] (use iface_up to restore)");
      }
    }
    if (entry.find("duty") != nullptr) {
      e.duty = number_field(entry, index, "duty");
      if (e.duty <= 0.0 || e.duty >= 1.0) {
        fail(index, "duty must be in (0, 1)");
      }
    }
    plan.events.push_back(e);
    ++index;
  }
  std::stable_sort(
      plan.events.begin(), plan.events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at_ns < b.at_ns; });
  if (const JsonValue* observed = doc.find("observed"); observed != nullptr) {
    if (!observed->is_array()) {
      throw std::runtime_error("fault plan: \"observed\" must be an array");
    }
    std::size_t note_index = 0;
    for (const JsonValue& entry : observed->as_array()) {
      const auto note_fail = [&](const std::string& what) -> void {
        throw std::runtime_error("fault plan: observed " +
                                 std::to_string(note_index) + ": " + what);
      };
      if (!entry.is_object()) note_fail("must be an object");
      for (const std::string& key : entry.keys()) {
        if (key != "at_ms" && key != "note") {
          note_fail("unknown field \"" + key + "\"");
        }
      }
      const JsonValue* at = entry.find("at_ms");
      const JsonValue* note = entry.find("note");
      if (at == nullptr) note_fail("missing field \"at_ms\"");
      if (note == nullptr) note_fail("missing field \"note\"");
      const std::optional<SimDuration> at_ns =
          checked_ms_to_ns(at->as_number());
      if (!at_ns) note_fail("at_ms must be in [0, 1e9]");
      plan.observed.push_back(ObservedNote{*at_ns, note->as_string()});
      ++note_index;
    }
    std::stable_sort(plan.observed.begin(), plan.observed.end(),
                     [](const ObservedNote& a, const ObservedNote& b) {
                       return a.at_ns < b.at_ns;
                     });
  }
  return plan;
}

std::string FaultPlan::to_json() const {
  std::vector<FaultEvent> sorted = events;
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at_ns < b.at_ns; });
  std::vector<ObservedNote> notes = observed;
  std::stable_sort(notes.begin(), notes.end(),
                   [](const ObservedNote& a, const ObservedNote& b) {
                     return a.at_ns < b.at_ns;
                   });
  JsonWriter out;
  out.begin_object().field("seed", seed).key("events").begin_array();
  for (const FaultEvent& e : sorted) {
    out.begin_object().field("at_ms", to_ms(e.at_ns))
        .field("kind", to_string(e.kind));
    switch (e.kind) {
      case FaultKind::kIfaceDown:
      case FaultKind::kIfaceUp:
        out.field("iface", e.iface);
        break;
      case FaultKind::kIfaceFlap:
        out.field("iface", e.iface).field("period_ms", to_ms(e.period_ns))
            .field("duty", e.duty);
        break;
      case FaultKind::kIfaceScale:
        out.field("iface", e.iface).field("scale", e.scale);
        break;
      case FaultKind::kWorkerStall:
        out.field("worker", e.worker);
        break;
      case FaultKind::kIngressDrop:
      case FaultKind::kIngressDup:
        out.field("probability", e.probability);
        break;
      case FaultKind::kIngressDelay:
        out.field("probability", e.probability)
            .field("delay_ms", to_ms(e.delay_ns));
        break;
      case FaultKind::kPoolExhaust:
        break;
    }
    // Every kind but the iface_down/iface_up edges is a window.
    if (e.kind != FaultKind::kIfaceDown && e.kind != FaultKind::kIfaceUp) {
      out.field("duration_ms", to_ms(e.duration_ns));
    }
    out.end_object();
  }
  out.end_array();
  if (!notes.empty()) {
    out.key("observed").begin_array();
    for (const ObservedNote& n : notes) {
      out.begin_object().field("at_ms", to_ms(n.at_ns))
          .field("note", n.note).end_object();
    }
    out.end_array();
  }
  return out.end_object().str() + "\n";
}

void FaultPlan::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("fault plan: cannot write " + path);
  }
  out << to_json();
  if (!out.flush()) {
    throw std::runtime_error("fault plan: write failed for " + path);
  }
}

FaultPlan FaultPlan::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("fault plan: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json(buffer.str());
}

}  // namespace midrr::fault
