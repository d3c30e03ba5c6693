// Upper-layer helpers over the header-only latency plane
// (telemetry/latency_plane.h): publication into a StatsRegistry — mirrored
// as real sim::Histogram state so the Prometheus classic-histogram
// exposition and every other exporter see the latency families through the
// standard registry — and a human-readable per-stage quantile table. Split
// from the plane header so net/core can embed probes without linking
// viator_telemetry (mirrors telemetry/mem_stats.h).
#pragma once

#include <string>

#include "sim/stats.h"
#include "telemetry/latency_plane.h"

namespace viator::telemetry {

/// Mirrors a lane's cumulative sketches into `stats`: one histogram per
/// non-empty (stage, class) sketch named `lat.<stage>.<class>_ns` (the exec
/// stage is classed by service role), with exact count/sum and the sketch
/// buckets re-expressed in the Histogram's half-power-of-two geometry via
/// each bucket's representative value, plus `lat.delivered`/`lat.dropped`
/// gauges. Idempotent (histograms and gauges are overwritten): safe to call
/// after every window batch. Aggregate shard lanes with Lane::MergeInto
/// first.
void PublishLatStats(sim::StatsRegistry& stats, const lat::Lane& lane);

/// Fixed-width quantile table: count/p50/p95/p99/max per non-empty
/// (stage, class) sketch plus a delivered/dropped/in-flight trailer.
std::string FormatLatReport(const lat::Lane& lane);

}  // namespace viator::telemetry
