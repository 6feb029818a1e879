// Sink-side exporters for the telemetry subsystem (DESIGN.md §9).
//
// Formats:
//   * Chrome trace_event JSON — load in chrome://tracing or
//     https://ui.perfetto.dev ("Open trace file"). Balanced B/E duration
//     events, ts in microseconds, one tid per recording thread.
//   * JSONL — one event object per line, for ad-hoc jq/awk pipelines.
//   * Prometheus text exposition format — counters/gauges/histograms with
//     HELP/TYPE headers; histograms use cumulative le buckets. All values
//     are integers, so the rendering is byte-deterministic for a fixed
//     metric state.
//
// Everything here renders a point-in-time view; record first, export after
// parallel work has joined (the pool barrier orders the buffer writes).
#pragma once

#include <string>

#include "obs/telemetry.hpp"

namespace lad::obs {

/// Current UTC wall time as "YYYY-MM-DDTHH:MM:SSZ" (bench JSON stamps).
std::string iso8601_utc_now();

}  // namespace lad::obs
