#include "telemetry/export.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>

#include "base/strings.h"

namespace viator::telemetry {
namespace {

std::string HexId(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

// Offset just past the first `"key":` in `line` followed by `tail`, or npos.
std::size_t ValueAt(std::string_view line, std::string_view key,
                    std::string_view tail) {
  std::string pattern;
  pattern.reserve(key.size() + tail.size() + 3);
  pattern.append(1, '"').append(key).append("\":").append(tail);
  const std::size_t pos = line.find(pattern);
  return pos == std::string_view::npos ? pos : pos + pattern.size();
}

}  // namespace

std::string JsonString(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  AppendEscaped(out, text, EscapeStyle::kJson);
  out += '"';
  return out;
}

std::string ShortestDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- minimal field scanners for our own fixed-shape output lines ---------

std::optional<std::string> FindStringField(std::string_view line,
                                           std::string_view key) {
  std::size_t i = ValueAt(line, key, "\"");
  if (i == std::string_view::npos) return std::nullopt;
  std::string out;
  while (i < line.size() && line[i] != '"') {
    char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      const char esc = line[i + 1];
      i += 2;
      switch (esc) {
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Four hex digits; an escape without them is dropped.
          unsigned code = 0;
          const char* digits = line.data() + i;
          if (i + 4 <= line.size() &&
              std::from_chars(digits, digits + 4, code, 16).ptr ==
                  digits + 4) {
            out += static_cast<char>(code);
            i += 4;
          }
          break;
        }
        default: out += esc;
      }
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

std::optional<std::uint64_t> FindU64Field(std::string_view line,
                                          std::string_view key) {
  std::size_t i = ValueAt(line, key, "");
  if (i == std::string_view::npos || i >= line.size() ||
      !std::isdigit(static_cast<unsigned char>(line[i]))) {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  while (i < line.size() && std::isdigit(static_cast<unsigned char>(line[i]))) {
    value = value * 10 + static_cast<std::uint64_t>(line[i] - '0');
    ++i;
  }
  return value;
}

std::optional<double> FindDoubleField(std::string_view line,
                                      std::string_view key) {
  const std::size_t at = ValueAt(line, key, "");
  if (at == std::string_view::npos) return std::nullopt;
  try {
    return std::stod(std::string(line.substr(at)));
  } catch (...) {
    return std::nullopt;
  }
}

namespace {

std::string PrometheusName(std::string_view name) {
  std::string out = "viator_";
  for (const char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

void PrometheusHeader(std::ostream& out, const std::string& pname,
                      std::string_view original, std::string_view kind,
                      std::string_view type) {
  out << "# HELP " << pname << " Viator " << kind << " "
      << Escaped(original, EscapeStyle::kPrometheusHelp) << "\n"
      << "# TYPE " << pname << " " << type << "\n";
}

}  // namespace

void WriteSpansJsonl(const std::vector<SpanRecord>& spans, std::ostream& out) {
  for (const SpanRecord& s : spans) {
    out << "{\"trace\":\"" << HexId(s.trace_id) << "\",\"span\":" << s.span_id
        << ",\"parent\":" << s.parent_span_id << ",\"ship\":" << s.ship
        << ",\"component\":" << JsonString(s.component)
        << ",\"name\":" << JsonString(s.name) << ",\"start\":" << s.start
        << ",\"end\":" << s.end << "}\n";
  }
}

void WriteTraceEventJson(const std::vector<SpanRecord>& spans,
                         std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out << ",\n";
    first = false;
    char ts[48];
    char dur[48];
    // trace_event timestamps are microseconds; three decimals keep exact ns.
    std::snprintf(ts, sizeof(ts), "%llu.%03llu",
                  static_cast<unsigned long long>(s.start / 1000),
                  static_cast<unsigned long long>(s.start % 1000));
    const std::uint64_t dur_ns = s.end >= s.start ? s.end - s.start : 0;
    std::snprintf(dur, sizeof(dur), "%llu.%03llu",
                  static_cast<unsigned long long>(dur_ns / 1000),
                  static_cast<unsigned long long>(dur_ns % 1000));
    out << "{\"name\":" << JsonString(s.name)
        << ",\"cat\":" << JsonString(s.component)
        << ",\"ph\":\"X\",\"ts\":" << ts << ",\"dur\":" << dur
        << ",\"pid\":1,\"tid\":" << s.ship << ",\"args\":{\"trace\":\""
        << HexId(s.trace_id) << "\",\"span\":" << s.span_id
        << ",\"parent\":" << s.parent_span_id << ",\"ship\":" << s.ship
        << ",\"component\":" << JsonString(s.component) << "}}";
  }
  out << "\n]}\n";
}

void WriteShardTimelineJson(const ShardObservatory& observatory,
                            std::ostream& out) {
  const std::size_t shard_count = observatory.shard_count();
  const std::uint64_t merge_tid = shard_count;  // one track past the shards

  const auto emit_ts = [](std::uint64_t ns) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    return std::string(buf);
  };

  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };

  for (std::size_t shard = 0; shard < shard_count; ++shard) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << shard
        << ",\"args\":{\"name\":\"shard " << shard << "\"}}";
  }
  sep();
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
      << merge_tid << ",\"args\":{\"name\":\"merge\"}}";

  // Wall base accumulated across windows: each window occupies
  // [base, base + max shard end + merge], so successive windows abut the
  // way the run actually executed.
  std::uint64_t base_ns = 0;
  for (const ShardWindowRecord& w : observatory.windows()) {
    std::uint64_t window_span_ns = 0;
    for (const ShardWindowSample& s : w.shards) {
      window_span_ns = std::max(window_span_ns, s.start_ns + s.wall_ns);
    }
    for (std::size_t shard = 0; shard < w.shards.size(); ++shard) {
      const ShardWindowSample& s = w.shards[shard];
      sep();
      out << "{\"name\":\"window " << w.window_index
          << "\",\"cat\":\"shard.window\",\"ph\":\"X\",\"ts\":"
          << emit_ts(base_ns + s.start_ns) << ",\"dur\":" << emit_ts(s.wall_ns)
          << ",\"pid\":1,\"tid\":" << shard << ",\"args\":{\"window\":"
          << w.window_index << ",\"virtual_start\":" << w.virtual_start
          << ",\"virtual_end\":" << w.virtual_end
          << ",\"dispatched\":" << s.dispatched
          << ",\"handoffs_out\":" << s.handoffs_out
          << ",\"handoffs_in\":" << s.handoffs_in
          << ",\"queue_depth\":" << ShortestDouble(s.queue_depth) << "}}";
      // The idle tail: this shard finished, the barrier had not. Rendering
      // it makes stragglers visible as the only track with no gap.
      const std::uint64_t end_ns = s.start_ns + s.wall_ns;
      if (end_ns < window_span_ns) {
        sep();
        out << "{\"name\":\"barrier\",\"cat\":\"shard.barrier\",\"ph\":\"X\","
            << "\"ts\":" << emit_ts(base_ns + end_ns)
            << ",\"dur\":" << emit_ts(window_span_ns - end_ns)
            << ",\"pid\":1,\"tid\":" << shard << ",\"args\":{\"window\":"
            << w.window_index << ",\"stall_ns\":" << s.stall_ns << "}}";
      }
      // Per-shard memory counter track ("ph":"C"): the pool footprint
      // sampled at this window's barrier, stamped at the shard's window
      // end so the series steps exactly where the slices do.
      sep();
      out << "{\"name\":\"mem.pool_bytes\",\"cat\":\"shard.mem\","
          << "\"ph\":\"C\",\"ts\":" << emit_ts(base_ns + end_ns)
          << ",\"pid\":1,\"tid\":" << shard
          << ",\"args\":{\"bytes\":" << s.pool_bytes << "}}";
      // Per-shard latency counter track: the window's end-to-end delivery
      // quantiles from the latency plane's fold (simulated nanoseconds,
      // deterministic). Only drawn when the window folded deliveries, so
      // plane-off timelines are byte-identical to before the plane existed.
      if (s.lat_delivered != 0) {
        sep();
        out << "{\"name\":\"lat.delivery_ns\",\"cat\":\"shard.lat\","
            << "\"ph\":\"C\",\"ts\":" << emit_ts(base_ns + end_ns)
            << ",\"pid\":1,\"tid\":" << shard << ",\"args\":{\"p50\":"
            << s.lat_p50_ns << ",\"p95\":" << s.lat_p95_ns
            << ",\"p99\":" << s.lat_p99_ns
            << ",\"delivered\":" << s.lat_delivered << "}}";
      }
    }
    sep();
    out << "{\"name\":\"merge " << w.window_index
        << "\",\"cat\":\"shard.merge\",\"ph\":\"X\",\"ts\":"
        << emit_ts(base_ns + window_span_ns)
        << ",\"dur\":" << emit_ts(w.merge_wall_ns)
        << ",\"pid\":1,\"tid\":" << merge_tid << ",\"args\":{\"window\":"
        << w.window_index << ",\"handoffs\":" << w.merge_handoffs << "}}";
    base_ns += window_span_ns + w.merge_wall_ns;
  }
  out << "\n]}\n";
}

std::optional<SpanRecord> ParseSpanLine(std::string_view line) {
  const auto trace_hex = FindStringField(line, "trace");
  if (!trace_hex) return std::nullopt;
  SpanRecord s;
  try {
    s.trace_id = std::stoull(*trace_hex, nullptr, 16);
  } catch (...) {
    return std::nullopt;
  }
  const auto span = FindU64Field(line, "span");
  const auto name = FindStringField(line, "name");
  if (!span || !name) return std::nullopt;
  s.span_id = *span;
  s.parent_span_id = FindU64Field(line, "parent").value_or(0);
  s.ship = FindU64Field(line, "ship").value_or(0);
  s.component = FindStringField(line, "component").value_or("");
  if (s.component.empty()) s.component = FindStringField(line, "cat").value_or("");
  s.name = *name;
  const auto start = FindU64Field(line, "start");
  const auto end = FindU64Field(line, "end");
  if (start && end) {
    s.start = *start;
    s.end = *end;
  } else {
    // trace_event form: microsecond ts/dur back to nanoseconds.
    const double ts = FindDoubleField(line, "ts").value_or(0.0);
    const double dur = FindDoubleField(line, "dur").value_or(0.0);
    s.start = static_cast<sim::TimePoint>(std::llround(ts * 1000.0));
    s.end = s.start + static_cast<sim::TimePoint>(std::llround(dur * 1000.0));
  }
  return s;
}

std::vector<SpanRecord> ParseSpans(std::istream& in) {
  std::vector<SpanRecord> spans;
  std::string line;
  while (std::getline(in, line)) {
    if (auto s = ParseSpanLine(line)) spans.push_back(std::move(*s));
  }
  return spans;
}

std::map<std::uint64_t, std::vector<SpanRecord>> GroupByTrace(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<SpanRecord>> by_trace;
  for (const SpanRecord& s : spans) by_trace[s.trace_id].push_back(s);
  return by_trace;
}

bool IsConnectedTree(const std::vector<SpanRecord>& trace_spans) {
  if (trace_spans.empty()) return false;
  std::set<std::uint64_t> ids;
  for (const SpanRecord& s : trace_spans) ids.insert(s.span_id);
  if (ids.size() != trace_spans.size()) return false;  // duplicate span ids
  std::size_t roots = 0;
  for (const SpanRecord& s : trace_spans) {
    if (s.parent_span_id == 0) {
      ++roots;
    } else if (ids.count(s.parent_span_id) == 0) {
      return false;  // orphan: parent missing from the export
    }
  }
  return roots == 1;
}

std::string FormatTraceTree(const std::vector<SpanRecord>& trace_spans) {
  std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
  const SpanRecord* root = nullptr;
  for (const SpanRecord& s : trace_spans) {
    children[s.parent_span_id].push_back(&s);
    if (s.parent_span_id == 0 && root == nullptr) root = &s;
  }
  for (auto& [parent, kids] : children) {
    std::sort(kids.begin(), kids.end(), [](const auto* a, const auto* b) {
      return a->span_id < b->span_id;
    });
  }
  std::ostringstream out;
  if (!trace_spans.empty()) {
    out << "trace " << HexId(trace_spans.front().trace_id) << "\n";
  }
  std::function<void(const SpanRecord&, int)> walk = [&](const SpanRecord& s,
                                                         int depth) {
    for (int i = 0; i < depth; ++i) out << "  ";
    out << s.component << "/" << s.name << "  span=" << s.span_id
        << " ship=" << s.ship << " t=[" << s.start << "," << s.end << "]\n";
    const auto it = children.find(s.span_id);
    if (it == children.end()) return;
    for (const SpanRecord* kid : it->second) walk(*kid, depth + 1);
  };
  if (root != nullptr) {
    walk(*root, 1);
  } else {
    out << "  (no root span: tree is disconnected)\n";
  }
  return out.str();
}

void WriteMetricsJsonl(const sim::StatsRegistry& stats, std::ostream& out) {
  for (const auto& [name, counter] : stats.counters()) {
    out << "{\"kind\":\"counter\",\"name\":" << JsonString(name)
        << ",\"value\":" << counter.value() << "}\n";
  }
  for (const auto& [name, gauge] : stats.gauges()) {
    out << "{\"kind\":\"gauge\",\"name\":" << JsonString(name)
        << ",\"value\":" << ShortestDouble(gauge.value()) << "}\n";
  }
  for (const auto& [name, hist] : stats.histograms()) {
    out << "{\"kind\":\"histogram\",\"name\":" << JsonString(name)
        << ",\"value\":" << ShortestDouble(hist.mean())
        << ",\"count\":" << hist.count()
        << ",\"sum\":" << ShortestDouble(hist.sum())
        << ",\"min\":" << ShortestDouble(hist.min())
        << ",\"max\":" << ShortestDouble(hist.max())
        << ",\"p50\":" << ShortestDouble(hist.Quantile(0.5))
        << ",\"p90\":" << ShortestDouble(hist.Quantile(0.9))
        << ",\"p99\":" << ShortestDouble(hist.Quantile(0.99)) << "}\n";
  }
  for (const auto& [name, series] : stats.series()) {
    out << "{\"kind\":\"series\",\"name\":" << JsonString(name)
        << ",\"value\":" << ShortestDouble(series.Mean())
        << ",\"samples\":" << series.samples().size() << "}\n";
  }
}

std::map<std::string, double> ParseMetricsJsonl(std::istream& in) {
  std::map<std::string, double> values;
  std::string line;
  while (std::getline(in, line)) {
    const auto name = FindStringField(line, "name");
    const auto value = FindDoubleField(line, "value");
    if (name && value) values[*name] = *value;
  }
  return values;
}

void WritePrometheusText(const sim::StatsRegistry& stats, std::ostream& out) {
  for (const auto& [name, counter] : stats.counters()) {
    const std::string pname = PrometheusName(name);
    PrometheusHeader(out, pname, name, "counter", "counter");
    out << pname << " " << counter.value() << "\n";
  }
  for (const auto& [name, gauge] : stats.gauges()) {
    const std::string pname = PrometheusName(name);
    PrometheusHeader(out, pname, name, "gauge", "gauge");
    out << pname << " " << ShortestDouble(gauge.value()) << "\n";
  }
  for (const auto& [name, hist] : stats.histograms()) {
    const std::string pname = PrometheusName(name);
    PrometheusHeader(out, pname, name, "histogram", "histogram");
    // Classic (le-bucketed, cumulative) exposition straight from the
    // histogram's half-power-of-two buckets: bucket i covers
    // [2^((i+origin)/2), 2^((i+origin+1)/2)), so its upper bound is exact.
    // Empty buckets are skipped — Prometheus semantics are cumulative, so
    // sparse output loses nothing and keeps the text stable for goldens.
    constexpr int origin = sim::Histogram::kBucketOrigin;
    const std::span<const std::uint64_t> buckets = hist.buckets();
    std::uint64_t cumulative = hist.zeros();
    if (cumulative > 0) {
      // Everything below the bucketed range (zeros and sub-2^-32 samples).
      out << pname << "_bucket{le=\""
          << ShortestDouble(std::exp2(origin / 2.0)) << "\"} "
          << cumulative << "\n";
    }
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i] == 0) continue;
      cumulative += buckets[i];
      const double upper =
          std::exp2((static_cast<double>(i) + origin + 1) / 2.0);
      out << pname << "_bucket{le=\"" << ShortestDouble(upper) << "\"} "
          << cumulative << "\n";
    }
    out << pname << "_bucket{le=\"+Inf\"} " << hist.count() << "\n"
        << pname << "_sum " << ShortestDouble(hist.sum()) << "\n"
        << pname << "_count " << hist.count() << "\n";
  }
  for (const auto& [name, series] : stats.series()) {
    const std::string pname = PrometheusName(name);
    PrometheusHeader(out, pname, name, "series", "gauge");
    out << pname << " "
        << ShortestDouble(series.samples().empty()
                              ? 0.0
                              : series.samples().back().value)
        << "\n";
  }
}

}  // namespace viator::telemetry
