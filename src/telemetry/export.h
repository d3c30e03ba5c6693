// Telemetry export and re-import.
//
// Writers (formats described in docs/OBSERVABILITY.md):
//  - spans JSONL: one span object per line, virtual-ns timestamps — the
//    lossless native format;
//  - Chrome/Perfetto trace_event JSON: loadable in ui.perfetto.dev or
//    chrome://tracing; ships become tracks (tid), spans become "X" events,
//    causal ids ride in args;
//  - metrics JSONL + Prometheus text exposition for a StatsRegistry.
//
// Readers parse both span formats back into SpanRecords (wnscope and the
// tier-1 tests reconstruct causal trees from exported files), so every
// writer here has a round-trip check in tests/test_telemetry.cpp.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.h"
#include "telemetry/shard_metrics.h"
#include "telemetry/span.h"

namespace viator::telemetry {

/// `text` as a JSON string: quoted and escaped per kJson (base/strings.h).
std::string JsonString(std::string_view text);

/// `v` printed with %.17g, which reads back to the same double.
std::string ShortestDouble(double v);

/// Field scanners for the exporters' own fixed-shape JSON lines (spans,
/// metrics, health reports): the value after the first `"key":` in `line`,
/// or nullopt. Strings are unescaped, \uXXXX included; U64 reads decimal
/// digits, Double what std::stod reads.
std::optional<std::string> FindStringField(std::string_view line,
                                           std::string_view key);
std::optional<std::uint64_t> FindU64Field(std::string_view line,
                                          std::string_view key);
std::optional<double> FindDoubleField(std::string_view line,
                                      std::string_view key);

/// One span per line, fixed field order, 16-digit hex trace ids:
/// {"trace":"...","span":N,"parent":N,"ship":N,"component":"...",
///  "name":"...","start":N,"end":N}
void WriteSpansJsonl(const std::vector<SpanRecord>& spans, std::ostream& out);

/// Chrome trace_event JSON ({"displayTimeUnit":"ns","traceEvents":[...]}).
/// One complete ("ph":"X") event per line; ts/dur are microseconds with ns
/// precision kept in three decimals, pid is 1, tid is the ship id.
void WriteTraceEventJson(const std::vector<SpanRecord>& spans,
                         std::ostream& out);

/// Chrome/Perfetto trace_event JSON of the Shard Observatory's retained
/// windows as a real parallel timeline: one named track per shard (tid =
/// shard id) plus a "merge" track, window slices placed at each shard's
/// measured wall offsets, "barrier" slices covering the stall until the
/// window's slowest shard finished, and one merge slice per window. Wall
/// time accumulates across windows so the timeline reads left to right as
/// the run actually executed. Args carry dispatched/handoff counts, queue
/// depth and the window's virtual-time span.
void WriteShardTimelineJson(const ShardObservatory& observatory,
                            std::ostream& out);

/// Parses one exported line (either format above) back into a SpanRecord.
/// Returns nullopt for lines that are not span events (headers, brackets).
std::optional<SpanRecord> ParseSpanLine(std::string_view line);

/// Parses a whole exported stream (spans JSONL or trace_event JSON).
std::vector<SpanRecord> ParseSpans(std::istream& in);

/// Groups spans by trace id (id order, deterministic).
std::map<std::uint64_t, std::vector<SpanRecord>> GroupByTrace(
    const std::vector<SpanRecord>& spans);

/// True when the spans of one trace form a single connected parent-child
/// tree: exactly one root (parent_span_id 0) and every other span's parent
/// present in the set.
bool IsConnectedTree(const std::vector<SpanRecord>& trace_spans);

/// Indented causal-tree rendering of one trace (wnscope `tree`).
std::string FormatTraceTree(const std::vector<SpanRecord>& trace_spans);

/// One metric per line; every line carries a scalar "value" (counter count,
/// gauge level, histogram/series mean) so consumers can diff uniformly, and
/// histogram lines add count/sum/min/max/quantiles.
void WriteMetricsJsonl(const sim::StatsRegistry& stats, std::ostream& out);

/// Metric lines parsed back as name → scalar value (wnscope `diff`).
std::map<std::string, double> ParseMetricsJsonl(std::istream& in);

/// Prometheus text exposition: names are sanitized ('.' → '_') and prefixed
/// "viator_"; every metric gets "# HELP" (backslash/newline escaped) and
/// "# TYPE" lines; histograms export as summaries with quantile labels
/// (label values escaped per the exposition format). Output is byte-stable
/// for a given registry state — tests golden it.
void WritePrometheusText(const sim::StatsRegistry& stats, std::ostream& out);

}  // namespace viator::telemetry
