#include "sim/stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace viator::sim {
namespace {

// Smallest tracked magnitude: the low edge of bucket 0 (half-exponent
// kBucketOrigin). Anything below it is lumped into the underflow counter.
constexpr double kMinTracked = 0x1p-32;

// Bucket index for a value >= kMinTracked: 2 buckets per power of two,
// offset so bucket 0 starts at 2^-32.
int BucketFor(double v) {
  const double l = std::log2(v);
  int idx = static_cast<int>(std::floor(l * 2.0)) - Histogram::kBucketOrigin;
  if (idx < 0) idx = 0;
  if (idx >= 192) idx = 191;
  return idx;
}

double BucketLow(int idx) {
  return std::exp2(static_cast<double>(idx + Histogram::kBucketOrigin) / 2.0);
}

}  // namespace

void Histogram::Record(double value) {
  if (value < 0.0) value = 0.0;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  ++count_;
  sum_ += value;
  sum_sq_ += value * value;
  if (value < kMinTracked) {
    ++zeros_;
  } else {
    ++buckets_[BucketFor(value)];
  }
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::stddev() const {
  if (count_ < 2) return 0.0;
  const double n = static_cast<double>(count_);
  const double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1.0);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

double Histogram::Quantile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count_);
  double seen = static_cast<double>(zeros_);
  if (target <= seen) return 0.0;
  for (int i = 0; i < kBucketCount; ++i) {
    const double in_bucket = static_cast<double>(buckets_[i]);
    if (seen + in_bucket >= target && in_bucket > 0.0) {
      const double lo = BucketLow(i);
      const double hi = BucketLow(i + 1);
      const double frac = (target - seen) / in_bucket;
      return std::min(lo + (hi - lo) * frac, max_);
    }
    seen += in_bucket;
  }
  return max_;
}

void Histogram::Reset() { *this = Histogram(); }

Histogram Histogram::FromBuckets(std::uint64_t count, double sum,
                                 double sum_sq, double min, double max,
                                 std::uint64_t zeros,
                                 std::span<const std::uint64_t> buckets) {
  Histogram h;
  h.count_ = count;
  h.sum_ = sum;
  h.sum_sq_ = sum_sq;
  h.min_ = min;
  h.max_ = max;
  h.zeros_ = zeros;
  const std::size_t n =
      std::min(buckets.size(), static_cast<std::size_t>(kBucketCount));
  std::copy_n(buckets.begin(), n, h.buckets_);
  return h;
}

void TimeSeries::Record(TimePoint t, double value) {
  const std::uint64_t tick = ticks_++;
  if (stride_ > 1 && tick % stride_ != 0) return;
  samples_.push_back({t, value});
  if (max_samples_ > 0 && samples_.size() >= max_samples_ &&
      samples_.size() >= 2) {
    // Decimate: keep even positions (those are the records whose tick is a
    // multiple of the doubled stride) and double the stride.
    std::size_t w = 0;
    for (std::size_t r = 0; r < samples_.size(); r += 2) {
      samples_[w++] = samples_[r];
    }
    samples_.resize(w);
    stride_ *= 2;
  }
}

double TimeSeries::Mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (const auto& sample : samples_) s += sample.value;
  return s / static_cast<double>(samples_.size());
}

MeanStddev Summarize(const std::vector<double>& values) {
  MeanStddev out;
  if (values.empty()) return out;
  double sum = 0.0;
  for (double v : values) sum += v;
  out.mean = sum / static_cast<double>(values.size());
  if (values.size() >= 2) {
    double ss = 0.0;
    for (double v : values) ss += (v - out.mean) * (v - out.mean);
    out.stddev = std::sqrt(ss / static_cast<double>(values.size() - 1));
  }
  return out;
}

}  // namespace viator::sim
