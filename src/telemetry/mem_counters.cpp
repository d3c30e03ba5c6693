#include "telemetry/mem_counters.h"

#include <cinttypes>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include "telemetry/mem_stats.h"
#include "telemetry/plane_report.h"

namespace viator::telemetry::mem {

const char* DomainName(Domain domain) {
  switch (domain) {
    case Domain::kShuttlePool: return "mem.shuttle_pool";
    case Domain::kCalendarQueue: return "mem.calendar_queue";
    case Domain::kRouteCache: return "mem.route_cache";
    case Domain::kFlatMap: return "mem.flat_map";
    case Domain::kStatsRegistry: return "mem.stats_registry";
    case Domain::kJournalRing: return "mem.journal_ring";
    case Domain::kMailbox: return "mem.mailbox";
    case Domain::kGenesisBuffer: return "mem.genesis_buffer";
    case Domain::kFactsGenome: return "mem.facts_genome";
    case Domain::kFabric: return "mem.fabric";
    case Domain::kCount: break;
  }
  return "mem.unknown";
}

}  // namespace viator::telemetry::mem

namespace viator::telemetry {

void PublishMemStats(sim::StatsRegistry& stats,
                     const std::array<mem::Counter, mem::kDomainCount>&
                         aggregate) {
  for (std::size_t i = 0; i < mem::kDomainCount; ++i) {
    const mem::Counter& c = aggregate[i];
    plane::PublishGaugeRow(
        stats, mem::DomainName(static_cast<mem::Domain>(i)),
        {{".live_bytes", static_cast<double>(c.live_bytes)},
         {".peak_bytes", static_cast<double>(c.peak_bytes)},
         {".allocs", static_cast<double>(c.allocs)},
         {".frees", static_cast<double>(c.frees)},
         {".alloc_bytes", static_cast<double>(c.alloc_bytes)},
         {".free_bytes", static_cast<double>(c.free_bytes)}});
  }
}

void PublishMemStats(sim::StatsRegistry& stats) {
  PublishMemStats(stats, mem::Aggregate());
}

void PublishProcStats(sim::StatsRegistry& stats, std::uint64_t rss_bytes,
                      std::uint64_t maxrss_bytes) {
  stats.GetGauge("proc.rss_bytes").Set(static_cast<double>(rss_bytes));
  stats.GetGauge("proc.maxrss_bytes").Set(static_cast<double>(maxrss_bytes));
}

std::uint64_t ReadRssBytes() {
#if defined(__linux__)
  // /proc/self/statm: size resident shared text lib data dt, in pages.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size_pages = 0;
  unsigned long long resident_pages = 0;
  const int matched =
      std::fscanf(f, "%llu %llu", &size_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return 0;
  return static_cast<std::uint64_t>(resident_pages) *
         static_cast<std::uint64_t>(page);
#else
  return 0;
#endif
}

std::uint64_t ReadMaxRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // ru_maxrss is bytes on Darwin, kilobytes on Linux/BSD.
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024u;
#endif
#else
  return 0;
#endif
}

std::string FormatMemReport(
    const std::array<mem::Counter, mem::kDomainCount>& aggregate,
    std::uint64_t maxrss_bytes) {
  std::int64_t total_live = 0;
  std::int64_t total_peak = 0;
  std::uint64_t total_allocs = 0;
  std::uint64_t total_frees = 0;
  std::uint64_t total_alloc_bytes = 0;
  for (const mem::Counter& c : aggregate) {
    total_live += c.live_bytes;
    total_peak += c.peak_bytes;
    total_allocs += c.allocs;
    total_frees += c.frees;
    total_alloc_bytes += c.alloc_bytes;
  }

  plane::TableBuilder table;
  table.Line("%-22s %14s %14s %10s %10s %14s\n", "domain", "live", "peak",
             "allocs", "frees", "alloc bytes");
  for (std::size_t i = 0; i < mem::kDomainCount; ++i) {
    const mem::Counter& c = aggregate[i];
    if (c.allocs == 0 && c.frees == 0) continue;
    table.DataRow("%-22s %14" PRId64 " %14" PRId64 " %10" PRIu64
                  " %10" PRIu64 " %14" PRIu64 "\n",
                  mem::DomainName(static_cast<mem::Domain>(i)), c.live_bytes,
                  c.peak_bytes, c.allocs, c.frees, c.alloc_bytes);
  }
  if (table.has_rows()) {
    table.Line("%-22s %14" PRId64 " %14" PRId64 " %10" PRIu64 " %10" PRIu64
               " %14" PRIu64 "\n",
               "total", total_live, total_peak, total_allocs, total_frees,
               total_alloc_bytes);
    if (maxrss_bytes != 0) {
      const double coverage =
          100.0 * static_cast<double>(total_live > 0 ? total_live : 0) /
          static_cast<double>(maxrss_bytes);
      table.Line("coverage: %" PRId64 " live of %" PRIu64
                 " maxrss bytes (%.1f%%)\n",
                 total_live, maxrss_bytes, coverage);
    }
  }
  return std::move(table).Finish(
      "(no allocations recorded: counters disabled or nothing ran)");
}

std::string FormatMemReport() { return FormatMemReport(mem::Aggregate()); }

}  // namespace viator::telemetry
