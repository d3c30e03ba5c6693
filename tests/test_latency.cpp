// Tier-1 tests for the Latency Observatory's substrate: the deterministic
// quantile sketch (bucket math, quantile semantics, merge algebra, the
// 1/32 relative-error bound), the per-network Lane (lifecycle accounting,
// cross-shard continuity, window folds, worst-K exemplars, probe guards)
// and the SLO burn detector's episode grammar. The end-to-end claims —
// replay neutrality, thread-count bucket-exactness, overhead — are
// bench_latency's gates; everything here is the pure logic underneath them.
#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "base/archive.h"
#include "base/rng.h"
#include "health/slo_burn.h"
#include "telemetry/latency_plane.h"
#include "telemetry/latency_sketch.h"

namespace viator {
namespace {

namespace lat = telemetry::lat;
using lat::LatencySketch;

// ---- Sketch bucket math -----------------------------------------------------

TEST(LatencySketch, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < LatencySketch::kSubBuckets; ++v) {
    EXPECT_EQ(LatencySketch::BucketIndex(v), v);
    EXPECT_EQ(LatencySketch::BucketLowerBound(v), v);
    EXPECT_EQ(LatencySketch::BucketUpperBound(v), v + 1);
    EXPECT_EQ(LatencySketch::BucketRepresentative(v), v);
  }
}

TEST(LatencySketch, BucketBoundsPartitionTheValueLine) {
  // Every bucket's [lower, upper) must map back to that bucket, and upper
  // must be the next bucket's lower: the buckets tile the line with no gap
  // and no overlap.
  for (std::size_t i = 0; i < LatencySketch::kBucketCount; ++i) {
    const std::uint64_t lo = LatencySketch::BucketLowerBound(i);
    const std::uint64_t hi = LatencySketch::BucketUpperBound(i);
    ASSERT_LT(lo, hi);
    EXPECT_EQ(LatencySketch::BucketIndex(lo), i);
    EXPECT_EQ(LatencySketch::BucketIndex(hi - 1), i);
    const std::uint64_t rep = LatencySketch::BucketRepresentative(i);
    EXPECT_GE(rep, lo);
    EXPECT_LT(rep, hi);
    if (i + 1 < LatencySketch::kBucketCount) {
      EXPECT_EQ(LatencySketch::BucketLowerBound(i + 1), hi);
    }
  }
}

TEST(LatencySketch, HugeValuesClampIntoTheTopBucket) {
  const std::size_t top = LatencySketch::kBucketCount - 1;
  EXPECT_EQ(LatencySketch::BucketIndex(~std::uint64_t{0}), top);
  EXPECT_EQ(LatencySketch::BucketIndex(std::uint64_t{1} << 60), top);
  LatencySketch sketch;
  sketch.Record(~std::uint64_t{0});
  EXPECT_EQ(sketch.count(), 1u);
  EXPECT_EQ(sketch.sum(), ~std::uint64_t{0});  // exact sum, bucketed value
  EXPECT_EQ(sketch.ValueAtQuantile(1.0),
            LatencySketch::BucketRepresentative(top));
}

TEST(LatencySketch, RelativeErrorStaysUnderOneThirtySecond) {
  // The design bound: midpoint representative of a 1/16-wide bucket is
  // within 1/32 of any member. Checked over a deterministic pseudo-random
  // sample spanning every octave.
  Rng rng(0x5EEDF00DULL);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t shift = rng.UniformInt(0, 47);
    const std::uint64_t v = rng.Next() >> shift;
    if (v >= (std::uint64_t{1} << 49)) continue;  // clamp region is exempt
    const std::uint64_t rep =
        LatencySketch::BucketRepresentative(LatencySketch::BucketIndex(v));
    const double err =
        v == 0 ? 0.0
               : std::abs(static_cast<double>(rep) - static_cast<double>(v)) /
                     static_cast<double>(v);
    ASSERT_LE(err, 1.0 / 32.0 + 1e-12) << "value " << v << " rep " << rep;
  }
}

TEST(LatencySketch, QuantileWalksRanksExactly) {
  LatencySketch sketch;
  for (std::uint64_t v : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) sketch.Record(v);
  // Values 0..15 are exact buckets, so quantiles are the classic ceil-rank
  // order statistics with no rounding.
  EXPECT_EQ(sketch.ValueAtQuantile(0.0), 1u);
  EXPECT_EQ(sketch.ValueAtQuantile(0.1), 1u);
  EXPECT_EQ(sketch.ValueAtQuantile(0.5), 5u);
  EXPECT_EQ(sketch.ValueAtQuantile(0.51), 6u);
  EXPECT_EQ(sketch.ValueAtQuantile(1.0), 10u);
  EXPECT_EQ(sketch.MinValue(), 1u);
  EXPECT_EQ(sketch.MaxValue(), 10u);
  EXPECT_EQ(sketch.sum(), 55u);
  EXPECT_EQ(LatencySketch().ValueAtQuantile(0.5), 0u);  // empty → 0
}

TEST(LatencySketch, MergeIsAssociativeCommutativeWithEmptyIdentity) {
  Rng rng(0xA1B2C3ULL);
  LatencySketch a, b, c;
  for (int i = 0; i < 500; ++i) a.Record(rng.UniformInt(0, 1'000'000));
  for (int i = 0; i < 300; ++i) b.Record(rng.UniformInt(0, 50));
  for (int i = 0; i < 200; ++i) c.Record(rng.Next() >> 20);

  LatencySketch ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);
  LatencySketch bc = b;
  bc.Merge(c);
  LatencySketch a_bc = a;
  a_bc.Merge(bc);
  EXPECT_EQ(ab_c, a_bc);  // associative

  LatencySketch ba = b;
  ba.Merge(a);
  LatencySketch ab = a;
  ab.Merge(b);
  EXPECT_EQ(ab, ba);  // commutative

  LatencySketch with_empty = a;
  with_empty.Merge(LatencySketch{});
  EXPECT_EQ(with_empty, a);  // identity
}

TEST(LatencySketch, SparseRestoreRebuildsBitIdentically) {
  // The genesis section stores only non-zero buckets plus the exact totals;
  // rebuilding from that sparse form must reproduce the sketch exactly.
  Rng rng(0x9E5717ULL);
  LatencySketch original;
  for (int i = 0; i < 1000; ++i) original.Record(rng.Next() >> 24);

  const std::vector<std::byte> sparse = SaveFields(original);
  std::size_t nonzero = 0;
  for (std::uint64_t n : original.buckets()) nonzero += n != 0 ? 1 : 0;
  // Totals (2 records) plus one index and one count record per non-zero
  // bucket, 6 header bytes each, plus the checksum trailer.
  EXPECT_EQ(sparse.size(), 2 * 14 + nonzero * (10 + 14) + 14);

  LatencySketch rebuilt;
  rebuilt.Record(12345);  // a load replaces, never merges
  ASSERT_TRUE(LoadFields(sparse, rebuilt).ok());
  EXPECT_EQ(rebuilt, original);
}

// ---- Lane lifecycle ---------------------------------------------------------

TEST(LatencyLane, DeliveryAttributesEndToEndByClass) {
  lat::Lane lane;
  lane.OnBirth(1, 1000, /*cls=*/0, /*trace_id=*/0xAB);
  lane.OnBirth(2, 2000, /*cls=*/5, 0);
  EXPECT_EQ(lane.open_flights(), 2u);

  lane.OnDelivered(1, 4000);  // data, 3000 ns
  lane.OnDelivered(2, 2500);  // jet, 500 ns
  lane.OnDelivered(99, 9000);  // unknown flight: ignored
  EXPECT_EQ(lane.open_flights(), 0u);
  EXPECT_EQ(lane.DeliveredCount(), 2u);
  EXPECT_EQ(lane.Sketch(lat::Stage::kDelivery, 0).count(), 1u);
  EXPECT_EQ(lane.Sketch(lat::Stage::kDelivery, 0).sum(), 3000u);
  EXPECT_EQ(lane.Sketch(lat::Stage::kDelivery, 5).sum(), 500u);
  EXPECT_EQ(lane.window_sketch().count(), 2u);
}

TEST(LatencyLane, DropsCloseIntoTheDropStage) {
  lat::Lane lane;
  lane.OnBirth(7, 100, /*cls=*/2, 0);
  lane.OnDropped(7, 600);
  EXPECT_EQ(lane.DroppedCount(), 1u);
  EXPECT_EQ(lane.Sketch(lat::Stage::kDrop, 2).sum(), 500u);
  EXPECT_EQ(lane.DeliveredCount(), 0u);
  EXPECT_EQ(lane.window_sketch().count(), 0u);  // drops never enter delivery
  EXPECT_EQ(lane.open_flights(), 0u);
}

TEST(LatencyLane, ExecClassesByRoleAndIgnoresUnpairedDone) {
  lat::Lane lane;
  lane.OnBirth(3, 0, 0, 0);
  lane.OnExecDone(3, 50, /*role=*/1);  // no matching enter: ignored
  EXPECT_EQ(lane.Sketch(lat::Stage::kExec, 1).count(), 0u);
  lane.OnExecEnter(3, 100);
  lane.OnExecDone(3, 350, /*role=*/1);
  EXPECT_EQ(lane.Sketch(lat::Stage::kExec, 1).count(), 1u);
  EXPECT_EQ(lane.Sketch(lat::Stage::kExec, 1).sum(), 250u);
  // The flight is still open (exec is a phase, not a terminal).
  EXPECT_EQ(lane.open_flights(), 1u);
}

TEST(LatencyLane, DepartArriveCarriesBirthAcrossLanes) {
  lat::Lane source, destination;
  source.OnBirth(11, 500, /*cls=*/1, /*trace_id=*/0xC0FFEE);

  const lat::Lane::Departure d = source.Depart(11);
  ASSERT_TRUE(d.valid);
  EXPECT_EQ(d.birth, 500u);
  EXPECT_EQ(d.trace_id, 0xC0FFEEu);
  EXPECT_EQ(source.open_flights(), 0u);
  EXPECT_FALSE(source.Depart(11).valid);  // already departed

  destination.Arrive(11, d);
  destination.OnDelivered(11, 2500);
  // End-to-end latency measured from the original birth, not the handoff.
  EXPECT_EQ(destination.Sketch(lat::Stage::kDelivery, 1).sum(), 2000u);

  destination.Arrive(12, lat::Lane::Departure{});  // invalid: ignored
  EXPECT_EQ(destination.open_flights(), 0u);
}

TEST(LatencyLane, FoldWindowResetsWindowStateOnly) {
  lat::Lane lane;
  lane.OnBirth(1, 0, 0, 0x11);
  lane.OnBirth(2, 0, 0, 0x22);
  lane.OnDelivered(1, 100);
  lane.OnDelivered(2, 900);

  const lat::Lane::WindowStats w = lane.FoldWindow();
  EXPECT_EQ(w.delivered, 2u);
  EXPECT_GT(w.p50_ns, 0u);
  EXPECT_GE(w.p99_ns, w.p50_ns);
  ASSERT_EQ(w.worst.size(), 2u);
  EXPECT_EQ(w.worst.front().trace_id, 0x22u);  // worst-first

  // The window zeroed; the cumulative per-class sketches kept integrating.
  const lat::Lane::WindowStats empty = lane.FoldWindow();
  EXPECT_EQ(empty.delivered, 0u);
  EXPECT_TRUE(empty.worst.empty());
  EXPECT_EQ(lane.DeliveredCount(), 2u);
}

TEST(LatencyLane, ExemplarsKeepWorstKInDeterministicOrder) {
  lat::Lane lane;
  const std::uint64_t n = lat::Lane::kExemplarCapacity + 3;
  for (std::uint64_t i = 1; i <= n; ++i) {
    lane.OnBirth(i, 0, 0, /*trace_id=*/i);
    lane.OnDelivered(i, i * 100);  // durations 100..n*100
  }
  const lat::Lane::WindowStats w = lane.FoldWindow();
  ASSERT_EQ(w.worst.size(), lat::Lane::kExemplarCapacity);
  EXPECT_EQ(w.worst[0].duration_ns, n * 100);
  EXPECT_EQ(w.worst[0].trace_id, n);
  EXPECT_EQ(w.worst[1].duration_ns, (n - 1) * 100);

  // Duration ties break on trace id ascending: deterministic at any
  // insertion order.
  lat::Exemplar a{300, 7, 0, 0}, b{300, 9, 0, 0};
  EXPECT_TRUE(a.WorseThan(b));
  EXPECT_FALSE(b.WorseThan(a));
}

TEST(LatencyLane, MergeIntoFoldsEveryStage) {
  lat::Lane a, b, merged;
  a.OnBirth(1, 0, 0, 0);
  a.OnDelivered(1, 64);
  a.RecordHop(0, 32);
  b.OnBirth(2, 0, 3, 0);
  b.OnDropped(2, 16);
  b.RecordQueue(3, 8);

  a.MergeInto(merged);
  b.MergeInto(merged);
  EXPECT_EQ(merged.DeliveredCount(), 1u);
  EXPECT_EQ(merged.DroppedCount(), 1u);
  EXPECT_EQ(merged.Sketch(lat::Stage::kHop, 0).sum(), 32u);
  EXPECT_EQ(merged.Sketch(lat::Stage::kQueue, 3).sum(), 8u);
}

// ---- Probe guards -----------------------------------------------------------

/// Duck-typed stand-in for wli::Shuttle: the probes only need lat_id,
/// header.kind and trace.trace_id.
struct FakeShuttle {
  std::uint64_t lat_id = 0;
  struct {
    std::uint8_t kind = 0;
  } header;
  struct {
    std::uint64_t trace_id = 0;
  } trace;
};

TEST(LatencyProbes, DisabledOrNullLaneIsInert) {
  lat::SetEnabled(false);
  lat::Lane lane;
  FakeShuttle shuttle;
  VIATOR_LAT_BIRTH(&lane, shuttle, 100);
  EXPECT_EQ(shuttle.lat_id, 0u);  // no flight id assigned while off
  EXPECT_EQ(lane.open_flights(), 0u);

  lat::SetEnabled(true);
  VIATOR_LAT_BIRTH(static_cast<lat::Lane*>(nullptr), shuttle, 100);
  EXPECT_EQ(shuttle.lat_id, 0u);  // null lane: untouched
  lat::SetEnabled(false);
}

TEST(LatencyProbes, BirthAssignsOnceAndTerminalsClose) {
  lat::SetEnabled(true);
  lat::Lane lane;
  FakeShuttle shuttle;
  shuttle.header.kind = 5;
  shuttle.trace.trace_id = 0xFEED;
  VIATOR_LAT_BIRTH(&lane, shuttle, 100);
  ASSERT_NE(shuttle.lat_id, 0u);
  const std::uint64_t id = shuttle.lat_id;
  VIATOR_LAT_BIRTH(&lane, shuttle, 999);  // re-dispatch: keeps the flight
  EXPECT_EQ(shuttle.lat_id, id);
  EXPECT_EQ(lane.open_flights(), 1u);

  VIATOR_LAT_DELIVERED(&lane, shuttle, 400);
  EXPECT_EQ(lane.Sketch(lat::Stage::kDelivery, 5).sum(), 300u);
  EXPECT_EQ(lane.open_flights(), 0u);

  // A lost frame closes by bare id (the fabric may no longer hold the
  // shuttle when the loss is drawn).
  FakeShuttle lost;
  VIATOR_LAT_BIRTH(&lane, lost, 50);
  VIATOR_LAT_LOST(&lane, lost.lat_id, 60);
  EXPECT_EQ(lane.DroppedCount(), 1u);
  lat::SetEnabled(false);
}

// ---- SLO burn episodes ------------------------------------------------------

TEST(SloBurn, RaisesOnceAfterConsecutiveBreachWindows) {
  health::SloSpec spec;
  spec.quantile = 0.99;
  spec.bound_ns = 1000;
  spec.burn_windows = 3;
  health::SloBurnDetector detector({spec});

  EXPECT_FALSE(detector.Observe(0, 1500, 1).has_value());
  EXPECT_FALSE(detector.Observe(0, 1500, 2).has_value());
  const auto event = detector.Observe(0, 1500, 3, /*exemplar_trace=*/0xAB);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, health::HealthEventKind::kSloBurn);
  EXPECT_EQ(event->value, 1500.0);
  EXPECT_EQ(event->threshold, 1000.0);
  EXPECT_NE(event->detail.find("00000000000000ab"), std::string::npos);

  // Still burning: the episode stays open, no re-raise.
  EXPECT_FALSE(detector.Observe(0, 2000, 4).has_value());
  EXPECT_EQ(detector.events().size(), 1u);
}

TEST(SloBurn, HealthyWindowEndsTheEpisode) {
  health::SloSpec spec;
  spec.bound_ns = 1000;
  spec.burn_windows = 2;
  health::SloBurnDetector detector({spec});
  EXPECT_FALSE(detector.Observe(0, 1500, 1).has_value());
  EXPECT_TRUE(detector.Observe(0, 1500, 2).has_value());
  // Recovery (at bound counts as healthy), then a fresh sustained breach
  // raises a second, distinct episode.
  EXPECT_FALSE(detector.Observe(0, 1000, 3).has_value());
  EXPECT_FALSE(detector.Observe(0, 1500, 4).has_value());
  EXPECT_TRUE(detector.Observe(0, 1500, 5).has_value());
  EXPECT_EQ(detector.events().size(), 2u);
}

TEST(SloBurn, QuietWindowsAndBadSpecIndexAreNeutral) {
  health::SloSpec spec;
  spec.bound_ns = 1000;
  spec.burn_windows = 2;
  health::SloBurnDetector detector({spec});
  EXPECT_FALSE(detector.Observe(0, 1500, 1).has_value());
  // A quantile of 0 is a window with no deliveries, not a breach — and it
  // resets the burn run.
  EXPECT_FALSE(detector.Observe(0, 0, 2).has_value());
  EXPECT_FALSE(detector.Observe(0, 1500, 3).has_value());
  EXPECT_TRUE(detector.Observe(0, 1500, 4).has_value());
  // Out-of-range spec index: ignored, never throws.
  EXPECT_FALSE(detector.Observe(9, 99999, 5).has_value());
}

}  // namespace
}  // namespace viator
