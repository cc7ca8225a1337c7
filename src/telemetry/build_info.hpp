// Build provenance, baked in at configure time so every artifact (bench
// JSON, CI logs, a scraped /metrics page) is attributable to an exact
// source state and toolchain.  Exposed three ways: a struct for tools, an
// info-gauge (midrr_rt_build_info, value 1, facts as labels -- the
// Prometheus convention for static metadata), and /buildinfo JSON.
#pragma once

#include "telemetry/metrics.hpp"
#include "util/json.hpp"

namespace midrr::telemetry {

struct BuildInfo {
  const char* git_sha;     ///< short sha, "unknown" outside a checkout
  const char* git_dirty;   ///< "clean" | "dirty" | "unknown"
  const char* compiler;    ///< e.g. "GNU 13.2.0"
  const char* build_type;  ///< CMAKE_BUILD_TYPE
  const char* sanitizers;  ///< comma-joined from CXX flags, "none" if clean
  const char* uring;       ///< "on" | "off" (MIDRR_WITH_URING)
};

/// The values configure_file stamped into build_info.cpp.
const BuildInfo& build_info();

/// Registers the `midrr_rt_build_info` info-gauge (constant 1).
void register_build_info(MetricsRegistry& registry);

/// Writes the build facts as members of the object `out` has open (the
/// /buildinfo route adds the egress backend beside them).
void write_build_info(JsonWriter& out);

}  // namespace midrr::telemetry
