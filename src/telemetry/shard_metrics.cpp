#include "telemetry/shard_metrics.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace viator::telemetry {

std::string ShardMetricName(std::uint32_t shard, std::string_view metric) {
  std::string name = "shard.";
  name += std::to_string(shard);
  name += '.';
  name += metric;
  return name;
}

void PublishShardWindow(sim::StatsRegistry& stats, std::uint32_t shard,
                        const ShardWindowSample& sample) {
  stats.GetCounter(ShardMetricName(shard, "dispatched")).Add(sample.dispatched);
  stats.GetCounter(ShardMetricName(shard, "handoffs_out"))
      .Add(sample.handoffs_out);
  stats.GetCounter(ShardMetricName(shard, "handoffs_in"))
      .Add(sample.handoffs_in);
  stats.GetCounter(ShardMetricName(shard, "wall_ns")).Add(sample.wall_ns);
  stats.GetCounter(ShardMetricName(shard, "stall_ns")).Add(sample.stall_ns);
  stats.GetGauge(ShardMetricName(shard, "queue_depth")).Set(sample.queue_depth);
  stats.GetGauge(ShardMetricName(shard, "pool_bytes"))
      .Set(static_cast<double>(sample.pool_bytes));
  // Latency-plane fold: only publish when the window folded deliveries, so
  // runs with the plane off never grow the metric namespace.
  if (sample.lat_delivered != 0) {
    stats.GetCounter(ShardMetricName(shard, "lat_delivered"))
        .Add(sample.lat_delivered);
    stats.GetGauge(ShardMetricName(shard, "lat_p50_ns"))
        .Set(static_cast<double>(sample.lat_p50_ns));
    stats.GetGauge(ShardMetricName(shard, "lat_p95_ns"))
        .Set(static_cast<double>(sample.lat_p95_ns));
    stats.GetGauge(ShardMetricName(shard, "lat_p99_ns"))
        .Set(static_cast<double>(sample.lat_p99_ns));
  }
}

ShardObservatory::ShardObservatory(std::size_t shard_count) {
  Reset(shard_count);
}

void ShardObservatory::Reset(std::size_t shard_count) {
  shard_count_ = shard_count;
  windows_.clear();
  totals_.assign(shard_count_, ShardTotals{});
  windows_seen_ = 0;
  windows_dropped_ = 0;
  critical_path_wall_ns_ = 0;
  total_wall_ns_ = 0;
  total_stall_ns_ = 0;
}

void ShardObservatory::RecordWindow(ShardWindowRecord record) {
  if (record.shards.size() != shard_count_) {
    // Geometry changed under us (a Reset was missed). Re-dimension rather
    // than mis-index: the totals restart, which is the honest outcome.
    Reset(record.shards.size());
  }
  ++windows_seen_;

  std::uint64_t max_wall = 0;
  std::size_t slowest = 0;
  for (std::size_t shard = 0; shard < record.shards.size(); ++shard) {
    const ShardWindowSample& s = record.shards[shard];
    ShardTotals& t = totals_[shard];
    t.dispatched += s.dispatched;
    t.handoffs_out += s.handoffs_out;
    t.handoffs_in += s.handoffs_in;
    t.wall_ns += s.wall_ns;
    t.stall_ns += s.stall_ns;
    total_wall_ns_ += s.wall_ns;
    total_stall_ns_ += s.stall_ns;
    if (s.wall_ns > max_wall) {
      max_wall = s.wall_ns;
      slowest = shard;
    }
  }
  if (!record.shards.empty()) {
    ++totals_[slowest].straggler_windows;
    critical_path_wall_ns_ += max_wall;
  }

  if (windows_.size() < kDefaultWindowCapacity) {
    windows_.push_back(std::move(record));
  } else {
    ++windows_dropped_;
  }
}

StragglerReport ShardObservatory::Report() const {
  StragglerReport report;
  report.windows = windows_seen_;
  report.shard_count = shard_count_;
  report.shards = totals_;
  if (shard_count_ == 0 || windows_seen_ == 0) return report;

  std::uint64_t max_events = 0;
  std::uint64_t sum_events = 0;
  std::uint64_t max_wall = 0;
  std::uint64_t max_straggles = 0;
  for (std::size_t shard = 0; shard < totals_.size(); ++shard) {
    const ShardTotals& t = totals_[shard];
    sum_events += t.dispatched;
    if (t.dispatched > max_events) {
      max_events = t.dispatched;
      report.hot_shard_by_events = static_cast<std::uint32_t>(shard);
    }
    if (t.straggler_windows > max_straggles) {
      max_straggles = t.straggler_windows;
      report.hot_shard_by_wall = static_cast<std::uint32_t>(shard);
    }
    max_wall = std::max(max_wall, t.wall_ns);
  }

  // Every ratio guards its denominator: zero-event windows, zero-wall runs
  // (coarse clocks) and single-shard plans must report clean 1.0 / 0.0
  // values, never NaN (the degenerate-config contract, tests/test_shard.cpp).
  const double mean_events =
      static_cast<double>(sum_events) / static_cast<double>(shard_count_);
  if (mean_events > 0.0) {
    report.imbalance_events = static_cast<double>(max_events) / mean_events;
  }
  const double mean_wall = static_cast<double>(total_wall_ns_) /
                           static_cast<double>(shard_count_);
  if (mean_wall > 0.0) {
    report.imbalance_wall = static_cast<double>(max_wall) / mean_wall;
  }
  const std::uint64_t capacity_ns = total_wall_ns_ + total_stall_ns_;
  if (capacity_ns > 0) {
    report.barrier_stall_ratio = static_cast<double>(total_stall_ns_) /
                                 static_cast<double>(capacity_ns);
  }
  if (total_wall_ns_ > 0) {
    report.critical_path_ratio = static_cast<double>(critical_path_wall_ns_) /
                                 static_cast<double>(total_wall_ns_);
  }
  return report;
}

void ShardObservatory::PublishStats(sim::StatsRegistry& stats) const {
  const StragglerReport report = Report();
  stats.GetGauge("shard.imbalance_events").Set(report.imbalance_events);
  stats.GetGauge("shard.imbalance_wall").Set(report.imbalance_wall);
  stats.GetGauge("shard.barrier_stall_ratio").Set(report.barrier_stall_ratio);
  stats.GetGauge("shard.straggler")
      .Set(static_cast<double>(report.hot_shard_by_events));
}

std::string StragglerReport::Format() const {
  std::ostringstream out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "windows=%llu shards=%zu imbalance(events)=%.3f "
                "imbalance(wall)=%.3f stall_ratio=%.3f critical_path=%.3f\n",
                static_cast<unsigned long long>(windows), shard_count,
                imbalance_events, imbalance_wall, barrier_stall_ratio,
                critical_path_ratio);
  out << line;
  std::snprintf(line, sizeof(line), "%-6s %14s %12s %12s %14s %14s %10s\n",
                "shard", "dispatched", "h.out", "h.in", "wall_ns", "stall_ns",
                "straggled");
  out << line;
  for (std::size_t shard = 0; shard < shards.size(); ++shard) {
    const ShardTotals& t = shards[shard];
    std::snprintf(line, sizeof(line),
                  "%-6zu %14llu %12llu %12llu %14llu %14llu %10llu%s\n",
                  shard, static_cast<unsigned long long>(t.dispatched),
                  static_cast<unsigned long long>(t.handoffs_out),
                  static_cast<unsigned long long>(t.handoffs_in),
                  static_cast<unsigned long long>(t.wall_ns),
                  static_cast<unsigned long long>(t.stall_ns),
                  static_cast<unsigned long long>(t.straggler_windows),
                  shard == hot_shard_by_events ? "  <- hot (events)" : "");
    out << line;
  }
  if (shard_count > 0 && windows > 0) {
    std::snprintf(line, sizeof(line),
                  "straggler: shard %u by events, shard %u by wall\n",
                  hot_shard_by_events, hot_shard_by_wall);
    out << line;
  }
  return out.str();
}

}  // namespace viator::telemetry
