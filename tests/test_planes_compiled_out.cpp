// The compiled-out half of the planes' shared cost contract
// (docs/OBSERVABILITY.md): this translation unit is built with
// -DVIATOR_PLANES=0 (see tests/CMakeLists.txt), so every probe macro of the
// perf, mem and latency planes must expand to nothing at all — no probe can
// fire even with the runtime switches forced on, and the macros must still
// parse everywhere a statement can appear.
#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "telemetry/latency_plane.h"
#include "telemetry/mem_counters.h"
#include "telemetry/perf_counters.h"

#if VIATOR_PLANES
#error "this test must be compiled with -DVIATOR_PLANES=0"
#endif

namespace viator {
namespace {

namespace lat = telemetry::lat;

// ---- perf ------------------------------------------------------------------

std::uint64_t PerfWork(std::uint64_t n) {
  VIATOR_PERF_SCOPE(kSimDispatch);
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    VIATOR_PERF_COUNT(kRngDraw);
    acc += i * 2654435761u;
  }
  if (n > 0) VIATOR_PERF_SCOPE(kMergeWindow);  // statement position
  return acc;
}

TEST(PerfCompiledOut, NoProbeFiresEvenWithRuntimeSwitchOn) {
  telemetry::perf::ResetAll();
  telemetry::perf::SetEnabled(true);
  EXPECT_NE(PerfWork(1000), 0u);
  telemetry::perf::SetEnabled(false);

  const auto aggregate = telemetry::perf::Aggregate();
  for (std::size_t i = 0; i < telemetry::perf::kMetricCount; ++i) {
    EXPECT_EQ(aggregate[i].calls, 0u) << telemetry::perf::MetricName(
        static_cast<telemetry::perf::Metric>(i));
    EXPECT_EQ(aggregate[i].cycles, 0u);
  }
}

// ---- mem: ChargedBytes keeps its deterministic local balance while
// mirroring nothing into the global registry --------------------------------

std::size_t MemWork(std::size_t n) {
  VIATOR_MEM_ALLOC(kShuttlePool, n * 64);
  std::size_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    VIATOR_MEM_RESIZE(kCalendarQueue, i, i + 1);
    acc += i * 2654435761u;
  }
  if (n > 0) VIATOR_MEM_FREE(kShuttlePool, n * 64);  // statement position
  return acc;
}

TEST(MemCompiledOut, NoProbeFiresEvenWithRuntimeSwitchOn) {
  telemetry::mem::ResetAll();
  telemetry::mem::SetEnabled(true);
  EXPECT_NE(MemWork(1000), 0u);

  // ChargedBytes keeps its instance balance (the deterministic accessors
  // the shard timeline and genesis sections read) but never touches the
  // global counters in this build.
  {
    telemetry::mem::ChargedBytes<telemetry::mem::Domain::kRouteCache> charge;
    charge.Add(4096);
    EXPECT_EQ(charge.value(), 4096u);
    charge.Set(1024);
    EXPECT_EQ(charge.value(), 1024u);
  }
  telemetry::mem::SetEnabled(false);

  const auto aggregate = telemetry::mem::Aggregate();
  for (std::size_t i = 0; i < telemetry::mem::kDomainCount; ++i) {
    EXPECT_EQ(aggregate[i].allocs, 0u) << telemetry::mem::DomainName(
        static_cast<telemetry::mem::Domain>(i));
    EXPECT_EQ(aggregate[i].frees, 0u);
    EXPECT_EQ(aggregate[i].live_bytes, 0);
    EXPECT_EQ(aggregate[i].peak_bytes, 0);
  }
}

// ---- latency: no flight id is ever assigned and no sketch bucket moves ------

struct FakeShuttle {
  std::uint64_t lat_id = 0;
  struct {
    std::uint8_t kind = 0;
  } header;
  struct {
    std::uint64_t trace_id = 0;
  } trace;
};

std::uint64_t LatWork([[maybe_unused]] lat::Lane* lane,
                      std::size_t n) {
  FakeShuttle shuttle;
  VIATOR_LAT_BIRTH(lane, shuttle, 1);
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    VIATOR_LAT_HOP(lane, 0, i);
    VIATOR_LAT_QUEUE(lane, 0, i);
    acc += i * 2654435761u;
  }
  VIATOR_LAT_EXEC_ENTER(lane, shuttle, 2);
  VIATOR_LAT_EXEC_DONE(lane, shuttle, 3, 0);
  if (n % 2 == 0) VIATOR_LAT_DELIVERED(lane, shuttle, 4);  // statement position
  else VIATOR_LAT_DROP(lane, shuttle, 4);
  VIATOR_LAT_LOST(lane, shuttle.lat_id, 5);
  return acc + shuttle.lat_id;
}

TEST(LatCompiledOut, NoProbeFiresEvenWithRuntimeSwitchOn) {
  lat::SetEnabled(true);
  lat::Lane lane;
  EXPECT_NE(LatWork(&lane, 1000), 0u);
  EXPECT_NE(LatWork(nullptr, 999), 0u);  // null lane parses too
  lat::SetEnabled(false);

  // Nothing moved: no flight opened, no stage sketch recorded.
  EXPECT_EQ(lane.open_flights(), 0u);
  EXPECT_EQ(lane.DeliveredCount(), 0u);
  EXPECT_EQ(lane.DroppedCount(), 0u);
  for (std::size_t s = 0; s < lat::kStageCount; ++s) {
    const auto stage = static_cast<lat::Stage>(s);
    for (std::size_t c = 0; c < lat::StageClassCount(stage); ++c) {
      EXPECT_TRUE(lane.Sketch(stage, c).empty())
          << lat::StageName(stage) << "[" << c << "]";
    }
  }

  // The Lane API itself stays live in this build (the shard barrier still
  // folds windows); only the probe macros vanish.
  lane.OnBirth(1, 0, 0, 0);
  lane.OnDelivered(1, 10);
  EXPECT_EQ(lane.DeliveredCount(), 1u);
}

}  // namespace
}  // namespace viator
