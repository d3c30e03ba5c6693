#include "telemetry/perf_counters.h"

#include <algorithm>

#include "telemetry/perf_stats.h"
#include "telemetry/plane_report.h"

namespace viator::telemetry::perf {

const char* MetricName(Metric metric) {
  switch (metric) {
    case Metric::kSimDispatch: return "perf.sim_dispatch";
    case Metric::kRngDraw: return "perf.rng_draw";
    case Metric::kRouteNextHop: return "perf.route_next_hop";
    case Metric::kGatewayRoute: return "perf.gateway_route";
    case Metric::kMailboxPush: return "perf.mailbox_push";
    case Metric::kMailboxDrain: return "perf.mailbox_drain";
    case Metric::kExecutorWindow: return "perf.executor_window";
    case Metric::kExecutorPost: return "perf.executor_post";
    case Metric::kBarrierWait: return "perf.barrier_wait";
    case Metric::kMergeWindow: return "perf.merge_window";
    case Metric::kRouteCacheHit: return "perf.route_cache_hit";
    case Metric::kRouteCacheMiss: return "perf.route_cache_miss";
    case Metric::kRouteCacheFill: return "perf.route_cache_fill";
    case Metric::kShipConsume: return "perf.ship_consume";
    case Metric::kEeExecute: return "perf.ee_execute";
    case Metric::kWnPulse: return "perf.wn_pulse";
    case Metric::kCount: break;
  }
  return "perf.unknown";
}

}  // namespace viator::telemetry::perf

namespace viator::telemetry {

void PublishPerfStats(sim::StatsRegistry& stats,
                      const std::array<perf::Counter, perf::kMetricCount>&
                          aggregate) {
  for (std::size_t i = 0; i < perf::kMetricCount; ++i) {
    const perf::Counter& c = aggregate[i];
    plane::PublishGaugeRow(
        stats, perf::MetricName(static_cast<perf::Metric>(i)),
        {{".calls", static_cast<double>(c.calls)},
         {".cycles", static_cast<double>(c.cycles)},
         {".max_cycles", static_cast<double>(c.max_cycles)}});
  }
}

void PublishPerfStats(sim::StatsRegistry& stats) {
  PublishPerfStats(stats, perf::Aggregate());
}

std::string FormatPerfReport(
    const std::array<perf::Counter, perf::kMetricCount>& aggregate) {
  std::uint64_t total_cycles = 0;
  for (const perf::Counter& c : aggregate) total_cycles += c.cycles;

  plane::TableBuilder table;
  table.Line("%-22s %12s %16s %10s %12s %7s\n", "probe", "calls", "cycles",
             "cyc/call", "max", "share");
  for (std::size_t i = 0; i < perf::kMetricCount; ++i) {
    const perf::Counter& c = aggregate[i];
    if (c.calls == 0) continue;
    const double per_call =
        static_cast<double>(c.cycles) / static_cast<double>(c.calls);
    const double share =
        total_cycles == 0
            ? 0.0
            : 100.0 * static_cast<double>(c.cycles) /
                  static_cast<double>(total_cycles);
    table.DataRow("%-22s %12llu %16llu %10.1f %12llu %6.1f%%\n",
                  perf::MetricName(static_cast<perf::Metric>(i)),
                  static_cast<unsigned long long>(c.calls),
                  static_cast<unsigned long long>(c.cycles), per_call,
                  static_cast<unsigned long long>(c.max_cycles), share);
  }
  return std::move(table).Finish(
      "(no probes fired: counters disabled or nothing ran)");
}

std::string FormatPerfReport() { return FormatPerfReport(perf::Aggregate()); }

}  // namespace viator::telemetry
