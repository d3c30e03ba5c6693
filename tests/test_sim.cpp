// Tests for the discrete-event kernel, statistics and the replica runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "base/archive.h"
#include "base/rng.h"
#include "base/tlv.h"
#include "sim/replica.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace viator::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0u);
  EXPECT_EQ(s.dispatched(), 0u);
}

TEST(Simulator, AdvancesClockToEventTime) {
  Simulator s;
  TimePoint fired_at = 0;
  s.ScheduleAt(100, [&] { fired_at = s.now(); });
  s.RunAll();
  EXPECT_EQ(fired_at, 100u);
  EXPECT_EQ(s.now(), 100u);
}

TEST(Simulator, FifoAtEqualTimes) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(50, [&] { order.push_back(1); });
  s.ScheduleAt(50, [&] { order.push_back(2); });
  s.ScheduleAt(50, [&] { order.push_back(3); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTimeOrderSurvivesCancellationChurn) {
  // The tie-break key is the stable schedule ordinal, so heavy interleaved
  // cancellation (heap churn, tombstone cleanup) must not reorder surviving
  // same-time events.
  Simulator s;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 50; ++i) {
    doomed.push_back(s.ScheduleAt(50, [&order, i] { order.push_back(-i); }));
    s.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  for (EventHandle& handle : doomed) handle.Cancel();
  s.RunAll();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, RestoreClockRestoresScheduleOrdinal) {
  // Snapshot scenario: the capturing simulator assigned ordinals 0..2; the
  // restored one must continue the counter, not restart it, so later
  // same-time ties (e.g. against merged shard-boundary injections) break
  // exactly as in the uninterrupted run.
  Simulator original;
  for (int i = 0; i < 3; ++i) original.ScheduleAt(10 * (i + 1), [] {});
  original.RunAll();
  EXPECT_EQ(original.schedule_ordinal(), 3u);

  Simulator restored;
  ASSERT_TRUE(restored
                  .RestoreClock(original.now(), original.dispatched(),
                                original.schedule_ordinal())
                  .ok());
  EXPECT_EQ(restored.schedule_ordinal(), 3u);
  EXPECT_EQ(restored.now(), original.now());

  // Moving the ordinal backwards is corruption, not restoration.
  Simulator fresh;
  (void)fresh.RestoreClock(5, 1, 4);
  const Status backwards = fresh.RestoreClock(6, 1, 2);
  EXPECT_EQ(backwards.code(), StatusCode::kInvalidArgument);
}

TEST(Simulator, OrdersByTime) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(300, [&] { order.push_back(3); });
  s.ScheduleAt(100, [&] { order.push_back(1); });
  s.ScheduleAt(200, [&] { order.push_back(2); });
  s.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator s;
  TimePoint fired_at = 0;
  s.ScheduleAt(100, [&] {
    s.ScheduleAfter(50, [&] { fired_at = s.now(); });
  });
  s.RunAll();
  EXPECT_EQ(fired_at, 150u);
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator s;
  TimePoint fired_at = 1;
  s.ScheduleAt(100, [&] {
    s.ScheduleAt(10, [&] { fired_at = s.now(); });  // in the past
  });
  s.RunAll();
  EXPECT_EQ(fired_at, 100u);
}

TEST(Simulator, ClampedEventsAreCountedNotSilent) {
  Simulator s;
  EXPECT_EQ(s.clamped_events(), 0u);
  s.ScheduleAt(100, [&] {
    s.ScheduleAt(10, [] {});  // in the past → clamped to now
    s.ScheduleAt(100, [] {}); // at now → not a clamp
    s.ScheduleAt(5, [] {});   // second clamp
  });
  s.RunAll();
  EXPECT_EQ(s.clamped_events(), 2u);
}

TEST(Simulator, ClampCounterBindFoldsPriorClamps) {
  Simulator s;
  s.ScheduleAt(100, [&] { s.ScheduleAt(10, [] {}); });
  s.RunAll();
  EXPECT_EQ(s.clamped_events(), 1u);

  // Binding after the fact folds the already-counted clamps into the
  // registry counter, then later clamps flow through it live.
  StatsRegistry stats;
  Counter& counter = stats.GetCounter("sim.clamped_events");
  s.BindClampCounter(&counter);
  EXPECT_EQ(counter.value(), 1u);

  s.ScheduleAt(s.now() + 10, [&] { s.ScheduleAt(1, [] {}); });
  s.RunAll();
  EXPECT_EQ(s.clamped_events(), 2u);
  EXPECT_EQ(counter.value(), 2u);
}

TEST(Simulator, CancelSuppressesCallback) {
  Simulator s;
  bool fired = false;
  auto handle = s.ScheduleAt(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.Cancel();
  EXPECT_FALSE(handle.pending());
  s.RunAll();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator s;
  int count = 0;
  auto handle = s.ScheduleAt(10, [&] { ++count; });
  s.RunAll();
  handle.Cancel();
  s.RunAll();
  EXPECT_EQ(count, 1);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.ScheduleAt(10, [&] { ++fired; });
  s.ScheduleAt(20, [&] { ++fired; });
  s.ScheduleAt(30, [&] { ++fired; });
  EXPECT_EQ(s.RunUntil(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), 20u);
  s.RunAll();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator s;
  s.RunUntil(500);
  EXPECT_EQ(s.now(), 500u);
}

TEST(Simulator, StepReturnsFalseWhenIdle) {
  Simulator s;
  EXPECT_FALSE(s.Step());
}

TEST(Simulator, EventsCanScheduleChains) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.ScheduleAfter(1, chain);
  };
  s.ScheduleAt(0, chain);
  s.RunAll();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 99u);
}

TEST(Simulator, PendingEventsCountsLiveOnly) {
  Simulator s;
  auto h1 = s.ScheduleAt(10, [] {});
  s.ScheduleAt(20, [] {});
  EXPECT_EQ(s.PendingEvents(), 2u);
  h1.Cancel();
  EXPECT_EQ(s.PendingEvents(), 1u);
}

// ---- Stats ----

TEST(Simulator, QueueDepthTracksOccupancyAndHighWater) {
  Simulator simulator;
  simulator.ScheduleAfter(10, [] {});
  simulator.ScheduleAfter(20, [] {});
  simulator.ScheduleAfter(30, [] {});
  EXPECT_EQ(simulator.queue_depth(), 3u);
  EXPECT_EQ(simulator.max_queue_depth(), 3u);
  simulator.RunAll();
  EXPECT_EQ(simulator.queue_depth(), 0u);
  EXPECT_EQ(simulator.max_queue_depth(), 3u);  // the high-water mark stays
}

TEST(Stats, CounterAccumulates) {
  Counter c;
  c.Add();
  c.Add(4);
  EXPECT_EQ(c.value(), 5u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, HistogramMoments) {
  Histogram h;
  for (double v : {2.0, 4.0, 6.0, 8.0}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_DOUBLE_EQ(h.min(), 2.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  EXPECT_NEAR(h.stddev(), 2.582, 0.01);
}

TEST(Stats, HistogramEmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(Stats, HistogramQuantilesAreMonotone) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(i);
  const double p25 = h.Quantile(0.25);
  const double p50 = h.Quantile(0.50);
  const double p99 = h.Quantile(0.99);
  EXPECT_LE(p25, p50);
  EXPECT_LE(p50, p99);
  EXPECT_NEAR(p50, 500.0, 200.0);  // log buckets: coarse but sane
  EXPECT_LE(p99, 1000.0);
}

TEST(Stats, HistogramNegativeClampsToZero) {
  Histogram h;
  h.Record(-5.0);
  EXPECT_EQ(h.min(), 0.0);
}

TEST(Stats, HistogramFractionalSamplesQuantileDistinctly) {
  // Ratios in (0,1) must land in real buckets, not collapse into the
  // underflow counter: quantiles of well-separated fractions stay separated.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(0.01);
  for (int i = 0; i < 100; ++i) h.Record(0.5);
  const double p25 = h.Quantile(0.25);
  const double p75 = h.Quantile(0.75);
  EXPECT_GT(p25, 0.0);
  EXPECT_LT(p25, 0.1);
  EXPECT_GT(p75, 0.25);
  EXPECT_LT(p75, 1.0);
}

TEST(Stats, HistogramTinyValuesUnderflowToZeroQuantile) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(1e-12);  // below 2^-32
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_GT(h.sum(), 0.0);
}

// A histogram's snapshot fields as a stats registry record carries them.
constexpr Histogram::Tags kStatsTags = {0x04, 0x05, 0x06, 0x07,
                                        0x08, 0x09, 0x0E, 0x0A};
struct HistogramRecord {
  Histogram& histogram;
  template <class A>
  void Visit(A& a) {
    histogram.Visit(a, kStatsTags);
  }
};

TEST(Stats, HistogramStateRoundTripIsExact) {
  Histogram h;
  for (double v : {0.001, 0.37, 1.0, 42.0, 1e9}) h.Record(v);
  const std::vector<std::byte> state = SaveFields(HistogramRecord{h});
  LoadArchive saved(state);
  std::int32_t origin = 0;
  saved.U64(kStatsTags.origin, origin);
  EXPECT_EQ(origin, Histogram::kBucketOrigin);
  Histogram restored;
  HistogramRecord record{restored};
  ASSERT_TRUE(LoadFields(state, record).ok());
  EXPECT_EQ(restored.count(), h.count());
  EXPECT_DOUBLE_EQ(restored.sum(), h.sum());
  EXPECT_DOUBLE_EQ(restored.stddev(), h.stddev());
  for (double p : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_DOUBLE_EQ(restored.Quantile(p), h.Quantile(p)) << "p=" << p;
  }
}

TEST(Stats, HistogramOtherBucketOriginIsRefused) {
  // Buckets laid out from another origin (0: the layout before fractional
  // buckets) would be misread, so a load refuses them.
  Histogram h;
  for (int i = 0; i < 64; ++i) h.Record(16.0);
  TlvWriter state;
  state.PutU64(kStatsTags.count, h.count());
  state.PutU64(kStatsTags.origin, 0);
  for (int i = 0; i < Histogram::kBucketCount; ++i) {
    state.PutU64(kStatsTags.bucket, i == 8 ? 64 : 0);
  }
  Histogram restored;
  HistogramRecord record{restored};
  EXPECT_EQ(LoadFields(state.Finish(), record).code(),
            StatusCode::kInvalidArgument);
}

TEST(Stats, TimeSeriesMean) {
  TimeSeries ts;
  ts.Record(0, 1.0);
  ts.Record(1, 3.0);
  EXPECT_DOUBLE_EQ(ts.Mean(), 2.0);
  EXPECT_EQ(ts.samples().size(), 2u);
}

TEST(Stats, TimeSeriesUnboundedByDefault) {
  TimeSeries ts;
  for (int i = 0; i < 10000; ++i) ts.Record(i, i);
  EXPECT_EQ(ts.samples().size(), 10000u);
  EXPECT_EQ(ts.stride(), 1u);
}

TEST(Stats, TimeSeriesCapDecimatesDeterministically) {
  TimeSeries ts;
  ts.set_max_samples(8);
  for (int i = 0; i < 1000; ++i) {
    ts.Record(static_cast<TimePoint>(i), static_cast<double>(i));
  }
  EXPECT_LE(ts.samples().size(), 8u);
  EXPECT_EQ(ts.ticks(), 1000u);
  // Retained sample k is exactly the record made at tick k·stride, so the
  // decimated series is a strict subset of the full one.
  for (std::size_t k = 0; k < ts.samples().size(); ++k) {
    const auto tick = static_cast<double>(k * ts.stride());
    EXPECT_DOUBLE_EQ(ts.samples()[k].value, tick);
  }
  // Decimation is a pure function of the record sequence.
  TimeSeries twin;
  twin.set_max_samples(8);
  for (int i = 0; i < 1000; ++i) {
    twin.Record(static_cast<TimePoint>(i), static_cast<double>(i));
  }
  ASSERT_EQ(twin.samples().size(), ts.samples().size());
  EXPECT_EQ(twin.stride(), ts.stride());
  for (std::size_t k = 0; k < ts.samples().size(); ++k) {
    EXPECT_EQ(twin.samples()[k].time, ts.samples()[k].time);
  }
}

TEST(Stats, TimeSeriesRestoreBypassesDecimation) {
  TimeSeries ts;
  ts.set_max_samples(4);
  TlvWriter fields;  // as a stats registry series record carries them
  fields.PutU64(0x0C, /*stride=*/16);
  fields.PutU64(0x0D, /*ticks=*/96);
  for (int k = 0; k < 6; ++k) {
    TlvWriter sample;
    sample.PutU64(0x01, static_cast<TimePoint>(k * 16));
    sample.PutU64(0x02, std::bit_cast<std::uint64_t>(1.0));
    fields.PutBytes(0x0B, sample.Finish());
  }
  ASSERT_TRUE(LoadFields(fields.Finish(), ts).ok());
  EXPECT_EQ(ts.samples().size(), 6u);  // verbatim, even past the cap
  EXPECT_EQ(ts.stride(), 16u);
  EXPECT_EQ(ts.ticks(), 96u);

  // A stride of 0 would divide by zero in Record(): refused.
  TlvWriter zero;
  zero.PutU64(0x0C, 0);
  zero.PutU64(0x0D, 96);
  TimeSeries refused;
  EXPECT_EQ(LoadFields(zero.Finish(), refused).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.stride(), 1u);
}

TEST(Stats, RegistryFindsByName) {
  StatsRegistry reg;
  reg.GetCounter("a").Add(3);
  EXPECT_EQ(reg.CounterValue("a"), 3u);
  EXPECT_EQ(reg.CounterValue("missing"), 0u);
  EXPECT_EQ(reg.FindHistogram("missing"), nullptr);
  reg.GetHistogram("h").Record(1.0);
  EXPECT_NE(reg.FindHistogram("h"), nullptr);
}

TEST(Stats, RegistryAcceptsStringViewKeys) {
  // Hot paths look metrics up with string_views sliced out of larger
  // buffers; the heterogeneous comparator must find the same entries.
  StatsRegistry reg;
  const std::string composite = "wn.shuttles_injected.extra";
  const std::string_view sliced(composite.data(), 20);  // "wn.shuttles_injected"
  reg.GetCounter(sliced).Add(2);
  EXPECT_EQ(reg.CounterValue("wn.shuttles_injected"), 2u);
  reg.GetCounter(std::string_view("wn.shuttles_injected")).Add(1);
  EXPECT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.CounterValue(sliced), 3u);
  reg.GetTimeSeries(sliced).Record(0, 1.0);
  EXPECT_NE(reg.FindTimeSeries("wn.shuttles_injected"), nullptr);
}

TEST(Stats, SummarizeComputesMeanStddev) {
  const auto ms = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(ms.mean, 2.5);
  EXPECT_NEAR(ms.stddev, 1.29, 0.01);
  const auto empty = Summarize({});
  EXPECT_EQ(empty.mean, 0.0);
}

// ---- Trace ----

TEST(Trace, RecordsAndFilters) {
  TraceSink sink;
  sink.Log(0, TraceLevel::kInfo, "net", "link up");
  sink.Log(1, TraceLevel::kError, "net", "link down");
  sink.Log(2, TraceLevel::kInfo, "vm", "ran program");
  EXPECT_EQ(sink.entries().size(), 3u);
  EXPECT_EQ(sink.CountContaining("link"), 2u);
  EXPECT_EQ(sink.ForComponent("vm").size(), 1u);
}

TEST(Trace, CapacityEvictsOldest) {
  TraceSink sink;
  sink.Log(0, TraceLevel::kInfo, "a", "first");
  sink.Log(1, TraceLevel::kInfo, "a", "second");
  for (std::size_t i = 2; i <= TraceSink::kCapacity; ++i) {
    sink.Log(i, TraceLevel::kInfo, "a", "later");
  }
  ASSERT_EQ(sink.entries().size(), TraceSink::kCapacity);
  EXPECT_EQ(sink.entries().front().message, "second");
}

// Two sinks' entry records in one stream: more than one sink can hold.
struct TwoSinks {
  TraceSink& first;
  TraceSink& second;
  template <class A>
  void Visit(A& a) {
    first.Visit(a);
    second.Visit(a);
  }
};

TEST(Trace, RestoreEntryBypassesMinLevelButNotCapacity) {
  // A load keeps the newest kCapacity entries of a stream that holds more.
  TraceSink full;
  for (std::size_t i = 1; i <= TraceSink::kCapacity; ++i) {
    full.Log(i, TraceLevel::kDebug, "a", "restored-" + std::to_string(i));
  }
  TraceSink last;
  const std::string newest =
      "restored-" + std::to_string(TraceSink::kCapacity + 1);
  last.Log(TraceSink::kCapacity + 1, TraceLevel::kDebug, "a", newest);

  TraceSink sink;
  ASSERT_TRUE(LoadFields(SaveFields(TwoSinks{full, last}), sink).ok());
  ASSERT_EQ(sink.entries().size(), TraceSink::kCapacity);
  EXPECT_EQ(sink.entries().front().message, "restored-2");
  EXPECT_EQ(sink.entries().back().message, newest);
}

TEST(Trace, WriteJsonlEscapesControlCharacters) {
  TraceSink sink;
  sink.Log(7, TraceLevel::kWarn, "a\"b", "line1\nline2\ttab\\slash\x01");
  std::ostringstream out;
  sink.WriteJsonl(out);
  EXPECT_EQ(out.str(),
            "{\"t\":7,\"level\":\"WARN\",\"component\":\"a\\\"b\","
            "\"message\":\"line1\\nline2\\ttab\\\\slash\\u0001\"}\n");
}

// ---- Replica runner ----

TEST(Replica, AggregatesAcrossReplicas) {
  const auto result = RunReplicas(
      [](std::size_t index, std::uint64_t) {
        return ReplicaMetrics{{"value", static_cast<double>(index)}};
      },
      5, 123, 2);
  ASSERT_EQ(result.count("value"), 1u);
  const auto& agg = result.at("value");
  EXPECT_EQ(agg.samples, 5u);
  EXPECT_DOUBLE_EQ(agg.mean, 2.0);  // mean of 0..4
  EXPECT_DOUBLE_EQ(agg.min, 0.0);
  EXPECT_DOUBLE_EQ(agg.max, 4.0);
}

TEST(Replica, SeedsAreDeterministicAndDistinct) {
  std::vector<std::uint64_t> seeds_a(4), seeds_b(4);
  auto run = [](std::vector<std::uint64_t>& out) {
    (void)RunReplicas(
        [&out](std::size_t index, std::uint64_t seed) {
          out[index] = seed;
          return ReplicaMetrics{};
        },
        4, 99, 1);
  };
  run(seeds_a);
  run(seeds_b);
  EXPECT_EQ(seeds_a, seeds_b);
  EXPECT_NE(seeds_a[0], seeds_a[1]);
}

TEST(Replica, ParallelMatchesSerial) {
  auto fn = [](std::size_t index, std::uint64_t seed) {
    viator::Rng rng(seed);
    double acc = 0;
    for (int i = 0; i < 100; ++i) acc += rng.NextDouble();
    return ReplicaMetrics{{"acc", acc + static_cast<double>(index)}};
  };
  const auto serial = RunReplicas(fn, 8, 7, 1);
  const auto parallel = RunReplicas(fn, 8, 7, 8);
  EXPECT_DOUBLE_EQ(serial.at("acc").mean, parallel.at("acc").mean);
  EXPECT_DOUBLE_EQ(serial.at("acc").stddev, parallel.at("acc").stddev);
}

TEST(Replica, ZeroReplicasYieldsEmpty) {
  const auto result = RunReplicas(
      [](std::size_t, std::uint64_t) { return ReplicaMetrics{{"x", 1.0}}; },
      0, 1, 1);
  EXPECT_TRUE(result.empty());
}

// ---- Calendar-queue scheduler edge cases -----------------------------------

TEST(CalendarQueue, SameTimestampBurstDispatchesInScheduleOrder) {
  // A burst of events at one instant must dispatch in exact schedule
  // (sequence) order — the (when, seq) total order the journal depends on.
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    s.ScheduleAt(500, [&order, i] { order.push_back(i); });
  }
  s.RunAll();
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(order[i], i);
}

TEST(CalendarQueue, FarFutureEventsInterleaveCorrectly) {
  // Events far beyond the calendar's current "year" (same bucket modulo
  // the ring) must not jump the queue; near events keep dispatching first.
  Simulator s;
  std::vector<TimePoint> fired;
  const auto record = [&] { fired.push_back(s.now()); };
  s.ScheduleAt(1'000'000'000'000, record);   // ~17 virtual minutes out
  s.ScheduleAt(10, record);
  s.ScheduleAt(999'999'999'999, record);
  s.ScheduleAt(500'000'000'000, record);
  s.ScheduleAt(11, record);
  s.RunAll();
  const std::vector<TimePoint> expect = {10, 11, 500'000'000'000,
                                         999'999'999'999, 1'000'000'000'000};
  EXPECT_EQ(fired, expect);
}

TEST(CalendarQueue, CancellationChurnKeepsOrderAndCounts) {
  // Cancel every other event after queueing: survivors must dispatch in
  // order, cancelled slots must neither fire nor leak into PendingEvents.
  Simulator s;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(
        s.ScheduleAt(100 + (i % 7), [&order, i] { order.push_back(i); }));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].Cancel();
  EXPECT_EQ(s.PendingEvents(), 100u);
  s.RunAll();
  ASSERT_EQ(order.size(), 100u);
  // Survivors sorted by (when, seq): group by timestamp 100..106, then seq.
  std::vector<int> expect;
  for (int when = 0; when < 7; ++when) {
    for (int i = 1; i < 200; i += 2) {
      if (i % 7 == when) expect.push_back(i);
    }
  }
  EXPECT_EQ(order, expect);
  EXPECT_EQ(s.PendingEvents(), 0u);
}

TEST(CalendarQueue, RestoreClockAcrossQueuedTombstones) {
  // RestoreClock requires an empty schedule; cancelled-but-still-queued
  // tombstones must not count against that.
  Simulator s;
  EventHandle h = s.ScheduleAt(50, [] {});
  h.Cancel();
  EXPECT_EQ(s.PendingEvents(), 0u);
  EXPECT_TRUE(s.RestoreClock(1000, 0, s.schedule_ordinal()).ok());
  EXPECT_EQ(s.now(), 1000u);
  // And scheduling after the jump lands relative to the restored clock.
  TimePoint fired = 0;
  s.ScheduleAfter(5, [&] { fired = s.now(); });
  s.RunAll();
  EXPECT_EQ(fired, 1005u);
}

TEST(CalendarQueue, DispatchMovesCallbacksInsteadOfCopying) {
  // Regression for the old priority_queue const_cast move-out hack: once a
  // callback is queued, dispatch must MOVE it out of its slot, never copy
  // it (std::function itself requires copyable targets, so count copies
  // through a capture instead of using a move-only one).
  struct CopyCounter {
    int* copies;
    explicit CopyCounter(int* c) : copies(c) {}
    CopyCounter(const CopyCounter& other) : copies(other.copies) {
      ++*copies;
    }
    CopyCounter(CopyCounter&& other) noexcept : copies(other.copies) {}
    CopyCounter& operator=(const CopyCounter&) = delete;
    CopyCounter& operator=(CopyCounter&&) = delete;
  };
  Simulator s;
  int copies = 0;
  bool fired = false;
  {
    CopyCounter counter(&copies);
    s.ScheduleAt(10, [&fired, counter = std::move(counter)] { fired = true; });
  }
  const int copies_after_schedule = copies;
  s.RunAll();
  EXPECT_TRUE(fired);
  EXPECT_EQ(copies, copies_after_schedule)
      << "dispatch copied the callback instead of moving it";
}

TEST(CalendarQueue, HandleReadsFiredDuringOwnCallback) {
  // Contract carried over from the shared_ptr<bool> era: while an event's
  // callback runs, the handle already reads "fired" (slot freed first).
  Simulator s;
  EventHandle h;
  bool pending_inside = true;
  h = s.ScheduleAt(10, [&] { pending_inside = h.pending(); });
  EXPECT_TRUE(h.pending());
  s.RunAll();
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(h.pending());
}

TEST(CalendarQueue, ManyBucketResizesPreserveTotalOrder) {
  // Push enough events with spread-out timestamps to force calendar grows,
  // then drain while pushing more (shrink pressure): total order must hold.
  Simulator s;
  Rng rng(99);
  std::vector<std::pair<TimePoint, int>> expect;
  int tag = 0;
  std::vector<std::pair<TimePoint, int>> fired;
  for (int i = 0; i < 5000; ++i) {
    const TimePoint when = rng.UniformInt(1, 1'000'000);
    expect.emplace_back(when, tag);
    s.ScheduleAt(when, [&fired, &s, when, t = tag] {
      fired.emplace_back(when, t);
    });
    ++tag;
  }
  std::stable_sort(expect.begin(), expect.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  s.RunAll();
  EXPECT_EQ(fired, expect);
}

}  // namespace
}  // namespace viator::sim
