#pragma once

#include <string>

#include "util/result.hpp"

namespace onelab::obs {

/// Filenames writeTelemetry() produces under its directory.
inline constexpr const char* kMetricsFile = "metrics.json";
inline constexpr const char* kTraceFile = "trace.json";
inline constexpr const char* kProfileFile = "profile.json";
/// Filename flight-recorder dumps use by convention (written on demand
/// by Tracer::requestDump, not by writeTelemetry).
inline constexpr const char* kFlightFile = "flight.json";

/// Dump the current Registry snapshot (metrics.json), the Tracer's
/// traced records (trace.json, Chrome trace_event format) and Profiler
/// self-time breakdown (profile.json) under `directory`, creating it
/// if needed. Recorder and profiler counters are synced into the
/// registry first so metrics.json carries the recorder.*/profile.*
/// families.
[[nodiscard]] util::Result<void> writeTelemetry(const std::string& directory);

/// Arm telemetry for a fresh run: zero every registry metric, clear the
/// recorder and turn tracing on (lane 1), and restart the profiler
/// window if profiling is on.
void beginRun();

}  // namespace onelab::obs
