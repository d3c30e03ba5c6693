// Shared plumbing for the counter-plane reporters.
//
// Every observability plane (cycle: perf_counters, byte: mem_counters,
// time: latency_plane) publishes the same two artifacts from its aggregate:
// a family of point-in-time gauges in the standard StatsRegistry and a
// fixed-width human report with an "(nothing ran)" fallback. The three
// Publish*Stats / Format*Report implementations grew the same snprintf /
// GetGauge boilerplate independently; this header is the one copy all of
// them sit on. Keep it free of plane-specific knowledge — rows, names and
// column layouts stay with each plane.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>

#include "sim/stats.h"

namespace viator::telemetry::plane {

/// One gauge of a published row: dotted suffix under the row's base name.
struct GaugeValue {
  const char* suffix;  // e.g. ".live_bytes"
  double value;
};

/// Publishes `<base><suffix> = value` gauges. Gauges (not counters) on
/// purpose: published values are point-in-time mirrors of the aggregate, so
/// re-publishing after more windows overwrites instead of double-counting.
inline void PublishGaugeRow(sim::StatsRegistry& stats, std::string_view base,
                            std::initializer_list<GaugeValue> fields) {
  std::string name;
  for (const GaugeValue& field : fields) {
    name.assign(base);
    name.append(field.suffix);
    stats.GetGauge(name).Set(field.value);
  }
}

/// Fixed-width report builder: a header line, zero or more data rows, and a
/// fallback message when no row qualified (counters disabled / nothing ran).
/// Rows are printf-formatted into a bounded line buffer, matching the
/// existing report layouts byte for byte.
class TableBuilder {
 public:
  /// Appends one printf-formatted line without marking the table non-empty
  /// (headers, totals, trailers).
  [[gnu::format(printf, 2, 3)]] void Line(const char* fmt, ...) {
    std::va_list args;
    va_start(args, fmt);
    Append(fmt, args);
    va_end(args);
  }

  /// Appends one printf-formatted data row; at least one of these must land
  /// for Finish() to return the table instead of the fallback.
  [[gnu::format(printf, 2, 3)]] void DataRow(const char* fmt, ...) {
    std::va_list args;
    va_start(args, fmt);
    Append(fmt, args);
    va_end(args);
    has_rows_ = true;
  }

  bool has_rows() const { return has_rows_; }

  /// The assembled report, or header + `empty_message` (newline appended)
  /// when no data row was added.
  std::string Finish(std::string_view empty_message) && {
    if (!has_rows_) {
      body_.clear();
      body_.append(empty_message);
      body_.push_back('\n');
    }
    return std::move(header_) + std::move(body_);
  }

 private:
  void Append(const char* fmt, std::va_list args) {
    char line[192];
    const int n = std::vsnprintf(line, sizeof(line), fmt, args);
    std::string& dst = has_header_ ? body_ : header_;
    if (n > 0) dst.append(line, std::min<std::size_t>(
                                    static_cast<std::size_t>(n),
                                    sizeof(line) - 1));
    has_header_ = true;
  }

  std::string header_;
  std::string body_;
  bool has_header_ = false;
  bool has_rows_ = false;
};

}  // namespace viator::telemetry::plane
