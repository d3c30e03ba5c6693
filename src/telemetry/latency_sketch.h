// Deterministic mergeable quantile sketch for sim-time latencies.
//
// A DDSketch-style log-bucketed histogram over integer nanosecond values,
// specialised for the latency plane's determinism contract: bucketing is
// pure integer arithmetic (a bit-scan and a shift — no logarithms, no
// floating point), so recording the same multiset of durations yields the
// same bucket array on every platform and at every thread count. That is
// what lets bench_latency pin per-class quantiles bucket-exactly across
// threads=1 and threads=4 and lets the genesis section round-trip
// bit-identically.
//
// Layout: log-linear, HdrHistogram-flavoured. Values 0..15 get one exact
// bucket each; above that every power-of-two octave is split into 16 linear
// subbuckets, so the bucket width is 2^(msb-4) for a value whose top bit is
// msb — a relative width of 1/16, and a worst-case relative error of 1/32
// (~3.2%) with the midpoint representative. 45 octaves (up to 2^48 ns ≈ 78
// sim-hours; larger values clamp into the top bucket) of 16 subbuckets
// plus the 16 exact small buckets gives 736 dense std::uint64_t buckets —
// 5.75 KiB per sketch, cheap enough to keep one per (stage, class) pair.
//
// The exact integer `sum` and `count` ride along so Prometheus
// `_sum`/`_count` exposition and mean latencies stay exact even though
// per-value resolution is bucketed. Merge is bucket-wise addition:
// associative, commutative, with the empty sketch as identity
// (tests/test_latency.cpp pins the algebra).
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace viator::telemetry::lat {

class LatencySketch {
 public:
  /// 16 exact buckets for values 0..15, then 16 subbuckets per octave for
  /// msb 4..48 (45 octaves): 16 + 45 * 16 = 736 buckets.
  static constexpr std::size_t kSubBuckets = 16;
  static constexpr std::uint32_t kMaxMsb = 48;  // values clamp at 2^49 - 1
  static constexpr std::size_t kBucketCount =
      kSubBuckets + (kMaxMsb - 3) * kSubBuckets;  // 16 + 45*16 = 736

  /// Bucket index of `value_ns`. Exact for 0..15; log-linear above.
  static constexpr std::size_t BucketIndex(std::uint64_t value_ns) {
    if (value_ns < kSubBuckets) return static_cast<std::size_t>(value_ns);
    std::uint32_t msb = static_cast<std::uint32_t>(
        std::bit_width(value_ns) - 1);
    if (msb > kMaxMsb) {
      msb = kMaxMsb;
      value_ns = (std::uint64_t{1} << (kMaxMsb + 1)) - 1;
    }
    const std::uint64_t sub = (value_ns >> (msb - 4)) & (kSubBuckets - 1);
    return kSubBuckets * (msb - 3) + static_cast<std::size_t>(sub);
  }

  /// Smallest value mapping to bucket `index`.
  static constexpr std::uint64_t BucketLowerBound(std::size_t index) {
    if (index < kSubBuckets) return index;
    const std::uint32_t msb =
        static_cast<std::uint32_t>(index / kSubBuckets) + 3;
    const std::uint64_t sub = index % kSubBuckets;
    return (kSubBuckets + sub) << (msb - 4);
  }

  /// One past the largest value mapping to bucket `index`: the bucket
  /// spans [BucketLowerBound, BucketUpperBound).
  static constexpr std::uint64_t BucketUpperBound(std::size_t index) {
    if (index < kSubBuckets) return index + 1;
    const std::uint32_t msb =
        static_cast<std::uint32_t>(index / kSubBuckets) + 3;
    return BucketLowerBound(index) + (std::uint64_t{1} << (msb - 4));
  }

  /// The value a bucket reports from quantile queries: its midpoint, which
  /// halves the worst-case relative error versus either edge.
  static constexpr std::uint64_t BucketRepresentative(std::size_t index) {
    return (BucketLowerBound(index) + BucketUpperBound(index) - 1) / 2;
  }

  void Record(std::uint64_t value_ns) {
    ++buckets_[BucketIndex(value_ns)];
    ++count_;
    sum_ += value_ns;
  }

  /// Bucket-wise addition; other sketches' exact totals fold in too.
  void Merge(const LatencySketch& other) {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }

  void Reset() {
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0;
  }

  std::uint64_t count() const { return count_; }
  /// Exact integer sum of every recorded value (no bucket rounding).
  std::uint64_t sum() const { return sum_; }
  bool empty() const { return count_ == 0; }

  /// Representative of the bucket holding the q-quantile (0 <= q <= 1) by
  /// cumulative rank walk; 0 when empty. The rank is derived from the
  /// integer count, so equal bucket arrays answer equal quantiles.
  std::uint64_t ValueAtQuantile(double q) const {
    if (count_ == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // ceil(q * count), clamped to [1, count]: rank r means "the r-th
    // smallest recorded value".
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
    if (rank == 0) rank = 1;
    if (rank > count_) rank = count_;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      cumulative += buckets_[i];
      if (cumulative >= rank) return BucketRepresentative(i);
    }
    return BucketRepresentative(kBucketCount - 1);
  }

  /// Representative of the lowest / highest non-empty bucket (0 when empty).
  std::uint64_t MinValue() const {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      if (buckets_[i] != 0) return BucketRepresentative(i);
    }
    return 0;
  }
  std::uint64_t MaxValue() const {
    for (std::size_t i = kBucketCount; i-- > 0;) {
      if (buckets_[i] != 0) return BucketRepresentative(i);
    }
    return 0;
  }

  const std::array<std::uint64_t, kBucketCount>& buckets() const {
    return buckets_;
  }

  /// Snapshot fields (inside a genesis latency record, after its stage and
  /// class): exact totals, then each non-empty bucket as an index/count
  /// record pair.
  template <class A>
  void Visit(A& a) {
    a.U64(0x03, count_);
    a.U64(0x04, sum_);
    a.Sparse(0x05, 0x06, buckets_);
  }

  friend bool operator==(const LatencySketch&, const LatencySketch&) = default;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

}  // namespace viator::telemetry::lat
