// Measurement primitives for experiments: counters, gauges, log-bucketed
// histograms and time series, gathered in a per-simulation StatsRegistry.
//
// All experiment tables in bench/ are produced from these objects, so their
// semantics are deliberately simple and exactly reproducible.
//
// Metric naming convention (see docs/OBSERVABILITY.md): dotted lowercase
// `component.metric_name`, e.g. "wn.shuttles_injected", "ship.consume".
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/flat_map.h"
#include "base/status.h"
#include "base/tlv.h"
#include "sim/time.h"

namespace viator::sim {

/// Monotonically increasing event count (packets sent, cache hits, ...).
class Counter {
 public:
  friend class StatsRegistry;

  void Add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous level that can move both ways (queue depth, live facts).
class Gauge {
 public:
  friend class StatsRegistry;

  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Streaming summary of a sample set: count/min/max/mean/stddev plus
/// approximate quantiles from base-2 log buckets (values must be >= 0).
///
/// Buckets cover [2^-32, 2^64) with two buckets per power of two, so
/// fractional metrics (ratios, utilizations in [0,1)) quantile correctly;
/// values below 2^-32 (and exact zero) are tracked in a dedicated underflow
/// counter and quantile as 0.0.
class Histogram {
 public:
  void Record(double value);

  std::uint64_t count() const { return count_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return max_; }
  double mean() const;
  double stddev() const;
  /// Approximate p-quantile (0 <= p <= 1) via log-bucket interpolation.
  double Quantile(double p) const;
  double sum() const { return sum_; }

  void Reset();

  /// Values below the bucketed range (exact zeros and samples < 2^-32).
  std::uint64_t zeros() const { return zeros_; }
  /// Half-power-of-two bucket counts: bucket i spans
  /// [2^((i+kBucketOrigin)/2), 2^((i+kBucketOrigin+1)/2)).
  std::span<const std::uint64_t> buckets() const { return buckets_; }

  /// A histogram with an exact summary and bucket counts (the latency plane
  /// mirrors its sketches into the registry this way).
  static Histogram FromBuckets(std::uint64_t count, double sum, double sum_sq,
                               double min, double max, std::uint64_t zeros,
                               std::span<const std::uint64_t> buckets);

  /// Tags of the snapshot fields; a histogram rides inside another record
  /// (stats registry entries, health ship records), each with its own tags.
  struct Tags {
    TlvTag count, sum, sum_sq, min, max, zeros, origin, bucket;
  };

  /// Snapshot fields. The bucket origin is saved with the buckets, and a
  /// load refuses any origin but kBucketOrigin.
  template <class A>
  void Visit(A& a, const Tags& tags) {
    a.U64(tags.count, count_);
    a.F64(tags.sum, sum_);
    a.F64(tags.sum_sq, sum_sq_);
    a.F64(tags.min, min_);
    a.F64(tags.max, max_);
    a.U64(tags.zeros, zeros_);
    std::int32_t origin = kBucketOrigin;
    a.U64(tags.origin, origin);
    if constexpr (A::kLoading) {
      if (origin != kBucketOrigin) {
        a.Fail(InvalidArgument("histogram bucket origin " +
                               std::to_string(origin) + ", want " +
                               std::to_string(kBucketOrigin)));
      }
      std::fill(std::begin(buckets_), std::end(buckets_), 0);
      a.Repeated(tags.bucket, std::span(buckets_));
    } else {
      a.Repeated(tags.bucket, buckets());
    }
  }

  /// Half-exponent of bucket 0: buckets start at 2^(kBucketOrigin/2) = 2^-32.
  static constexpr std::int32_t kBucketOrigin = -64;
  /// 192 half-power-of-two buckets: half-exponents -64..127 cover
  /// [2^-32, 2^64).
  static constexpr int kBucketCount = 192;

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t buckets_[kBucketCount] = {};
  std::uint64_t zeros_ = 0;
};

/// (time, value) samples for series plots (Figure-1/3/4-style evolution).
///
/// Optionally memory-bounded: with a max-sample cap set, the series keeps
/// every stride-th record and doubles the stride (decimating the retained
/// samples) whenever the cap is reached. Down-sampling is purely a function
/// of the record sequence, so capped series stay bit-for-bit deterministic.
class TimeSeries {
 public:
  void Record(TimePoint t, double value);
  struct Sample {
    TimePoint time;
    double value;
  };
  const std::vector<Sample>& samples() const { return samples_; }

  /// Caps retained samples (0 = unbounded). The cap is configuration, not
  /// snapshotted state; set it before recording.
  void set_max_samples(std::size_t cap) { max_samples_ = cap; }
  std::size_t max_samples() const { return max_samples_; }

  /// Down-sampling position, for snapshot/restore: the series keeps records
  /// whose tick is a multiple of stride.
  std::uint64_t stride() const { return stride_; }
  std::uint64_t ticks() const { return ticks_; }

  /// Mean of the recorded values (0 when empty).
  double Mean() const;

  /// Drops all samples (snapshot restore replaces the series wholesale).
  void Clear() {
    samples_.clear();
    stride_ = 1;
    ticks_ = 0;
  }

  /// Snapshot fields (inside a stats registry record): down-sampling
  /// position and every retained sample. A load replaces them verbatim,
  /// bypassing Record() so it never re-triggers decimation, and refuses a
  /// stride of 0.
  template <class A>
  void Visit(A& a) {
    std::uint64_t stride = stride_;
    a.U64(0x0C, stride);
    a.U64(0x0D, ticks_);
    a.Each(0x0B, samples_, [](auto& r, auto& sample) {
      r.U64(0x01, sample.time);
      r.F64(0x02, sample.value);
    });
    if constexpr (A::kLoading) {
      if (stride == 0) {
        a.Fail(InvalidArgument("time series stride 0"));
      } else {
        stride_ = stride;
      }
    }
  }

 private:
  std::vector<Sample> samples_;
  std::size_t max_samples_ = 0;
  std::uint64_t stride_ = 1;  // keep records with ticks_ % stride_ == 0
  std::uint64_t ticks_ = 0;   // records offered since construction/Clear
};

/// Name → metric store. One registry per simulation replica; benches merge
/// registries across replicas by name. Metrics live in sorted flat vectors
/// (base::FlatNameMap): string_view binary-search lookups never allocate,
/// iteration stays lexicographic (export order is unchanged from the old
/// std::map implementation), and metric addresses are stable, so hot paths
/// resolve a Counter&/Histogram& once and keep it across registry growth.
/// Table footprints are attributed to the memory observatory's
/// kStatsRegistry domain (docs/MEMORY.md).
class StatsRegistry {
 public:
  template <typename T>
  using MetricMap =
      base::FlatNameMap<T, telemetry::mem::Domain::kStatsRegistry>;
  Counter& GetCounter(std::string_view name) {
    return counters_.GetOrCreate(name);
  }
  Gauge& GetGauge(std::string_view name) { return gauges_.GetOrCreate(name); }
  Histogram& GetHistogram(std::string_view name) {
    return histograms_.GetOrCreate(name);
  }
  TimeSeries& GetTimeSeries(std::string_view name) {
    return series_.GetOrCreate(name);
  }

  /// Counter value or 0 when absent (read-only accessor for reports).
  std::uint64_t CounterValue(std::string_view name) const {
    const Counter* c = counters_.Find(name);
    return c == nullptr ? 0 : c->value();
  }
  /// Histogram lookup (nullptr when absent).
  const Histogram* FindHistogram(std::string_view name) const {
    return histograms_.Find(name);
  }
  const TimeSeries* FindTimeSeries(std::string_view name) const {
    return series_.Find(name);
  }

  /// Snapshot fields (the genesis stats section): one named record per
  /// counter, gauge, histogram and series. A load overwrites the named
  /// metrics and leaves others in place.
  template <class A>
  void Visit(A& a) {
    VisitNamed(a, 0x01, counters_, [](auto& r, Counter& counter) {
      r.U64(0x02, counter.value_);
    });
    VisitNamed(a, 0x02, gauges_, [](auto& r, Gauge& gauge) {
      r.F64(0x03, gauge.value_);
    });
    VisitNamed(a, 0x03, histograms_, [](auto& r, Histogram& histogram) {
      histogram.Visit(r, {0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0E, 0x0A});
    });
    VisitNamed(a, 0x04, series_, [](auto& r, TimeSeries& series) {
      series.Visit(r);
    });
  }

  const MetricMap<Counter>& counters() const { return counters_; }
  const MetricMap<Gauge>& gauges() const { return gauges_; }
  const MetricMap<Histogram>& histograms() const { return histograms_; }
  const MetricMap<TimeSeries>& series() const { return series_; }

 private:
  // One record per metric: its name (tag 0x01), then `fields`.
  template <class A, class T, class Fields>
  static void VisitNamed(A& a, TlvTag tag, MetricMap<T>& metrics,
                         Fields fields) {
    if constexpr (A::kLoading) {
      a.Records(tag, [&](auto& record) {
        std::string_view name;
        record.Str(0x01, name);
        if (name.empty()) {
          record.Fail(InvalidArgument("unnamed metric in stats section"));
          return;
        }
        fields(record, metrics.GetOrCreate(name));
      });
    } else {
      for (const auto& [name, metric] : metrics) {
        a.Record(tag, [&](auto& record) {
          record.Str(0x01, name);
          fields(record, const_cast<T&>(metric));
        });
      }
    }
  }

  MetricMap<Counter> counters_;
  MetricMap<Gauge> gauges_;
  MetricMap<Histogram> histograms_;
  MetricMap<TimeSeries> series_;
};

/// Mean and sample standard deviation of a vector (used when aggregating a
/// metric across replicas).
struct MeanStddev {
  double mean = 0.0;
  double stddev = 0.0;
};
MeanStddev Summarize(const std::vector<double>& values);

}  // namespace viator::sim
