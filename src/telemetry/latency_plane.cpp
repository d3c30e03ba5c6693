#include "telemetry/lat_stats.h"

#include <bit>
#include <cinttypes>
#include <string>
#include <vector>

#include "telemetry/plane_report.h"

namespace viator::telemetry {
namespace {

using lat::Lane;
using lat::LatencySketch;
using lat::Stage;

/// Dotted metric name of one (stage, class) sketch: "lat.delivery.data_ns".
std::string SketchName(Stage stage, std::size_t index) {
  std::string name = lat::StageName(stage);
  name.push_back('.');
  name.append(stage == Stage::kExec ? lat::RoleName(index)
                                    : lat::ClassName(index));
  name.append("_ns");
  return name;
}

/// Histogram bucket (0..191) holding integer value `v >= 1`: the
/// half-exponent e with 2^(e/2) <= v < 2^((e+1)/2), shifted by the origin.
/// Pure integer arithmetic — v >= 2^(msb + 1/2) iff v^2 >= 2^(2*msb+1) —
/// so the mirror is platform-deterministic like the sketch itself.
std::size_t HistogramBucketFor(std::uint64_t v) {
  const std::uint32_t msb =
      static_cast<std::uint32_t>(std::bit_width(v) - 1);
  const bool upper_half =
      msb < 32 ? (unsigned __int128)v * v >=
                     ((unsigned __int128)1 << (2 * msb + 1))
               : true;  // representatives this large always clamp below
  std::size_t e = 2 * static_cast<std::size_t>(msb) + (upper_half ? 1 : 0);
  // Index = half-exponent - origin; origin is -64.
  std::size_t index =
      e + static_cast<std::size_t>(-sim::Histogram::kBucketOrigin);
  if (index >= 192) index = 191;
  return index;
}

/// Re-expresses one sketch as exact Histogram internal state: count/sum are
/// exact; min/max/sum_sq and the bucket placement use each sketch bucket's
/// representative value (documented approximation, docs/LATENCY.md).
void MirrorSketch(sim::StatsRegistry& stats, const std::string& name,
                  const LatencySketch& sketch) {
  std::uint64_t buckets[sim::Histogram::kBucketCount] = {};
  double sum_sq = 0.0;
  for (std::size_t i = 1; i < LatencySketch::kBucketCount; ++i) {
    const std::uint64_t n = sketch.buckets()[i];
    if (n == 0) continue;
    const std::uint64_t rep = LatencySketch::BucketRepresentative(i);
    buckets[HistogramBucketFor(rep)] += n;
    sum_sq += static_cast<double>(n) * static_cast<double>(rep) *
              static_cast<double>(rep);
  }
  stats.GetHistogram(name) = sim::Histogram::FromBuckets(
      sketch.count(), static_cast<double>(sketch.sum()), sum_sq,
      static_cast<double>(sketch.MinValue()),
      static_cast<double>(sketch.MaxValue()),
      sketch.buckets()[0],  // only value 0 maps below 2^-32
      buckets);
}

}  // namespace

void PublishLatStats(sim::StatsRegistry& stats, const lat::Lane& lane) {
  for (std::size_t s = 0; s < lat::kStageCount; ++s) {
    const Stage stage = static_cast<Stage>(s);
    for (std::size_t c = 0; c < lat::StageClassCount(stage); ++c) {
      const LatencySketch& sketch = lane.Sketch(stage, c);
      if (sketch.empty()) continue;
      MirrorSketch(stats, SketchName(stage, c), sketch);
    }
  }
  plane::PublishGaugeRow(
      stats, "lat",
      {{".delivered", static_cast<double>(lane.DeliveredCount())},
       {".dropped", static_cast<double>(lane.DroppedCount())}});
}

std::string FormatLatReport(const lat::Lane& lane) {
  plane::TableBuilder table;
  table.Line("%-28s %10s %12s %12s %12s %12s\n", "stage", "count", "p50_ns",
             "p95_ns", "p99_ns", "max_ns");
  for (std::size_t s = 0; s < lat::kStageCount; ++s) {
    const Stage stage = static_cast<Stage>(s);
    for (std::size_t c = 0; c < lat::StageClassCount(stage); ++c) {
      const LatencySketch& sketch = lane.Sketch(stage, c);
      if (sketch.empty()) continue;
      table.DataRow("%-28s %10" PRIu64 " %12" PRIu64 " %12" PRIu64
                    " %12" PRIu64 " %12" PRIu64 "\n",
                    SketchName(stage, c).c_str(), sketch.count(),
                    sketch.ValueAtQuantile(0.50),
                    sketch.ValueAtQuantile(0.95),
                    sketch.ValueAtQuantile(0.99), sketch.MaxValue());
    }
  }
  if (table.has_rows()) {
    table.Line("delivered: %" PRIu64 "  dropped: %" PRIu64
               "  in-flight: %zu\n",
               lane.DeliveredCount(), lane.DroppedCount(),
               lane.open_flights());
  }
  return std::move(table).Finish(
      "(no shuttle lifecycles recorded: plane disabled or nothing ran)");
}

}  // namespace viator::telemetry
