// Deterministic random number generation.
//
// Every stochastic decision in the simulator draws from an explicitly seeded
// Rng. Replicated experiments give each replica its own stream via
// Rng::Fork(), so runs are reproducible bit-for-bit regardless of thread
// scheduling. The generator is xoshiro256** seeded through splitmix64.
#pragma once

#include <cstdint>
#include <vector>

namespace viator {

/// Deterministic sub-stream seed derivation: maps (base_seed, stream) to a
/// seed that is statistically independent across streams and stable across
/// platforms and runs. Used wherever one logical seed must fan out into many
/// parallel streams (replica runners, topology shards) without the streams
/// correlating or depending on spawn order. Implemented as two rounds of the
/// splitmix64 finalizer over base_seed ^ mix(stream), the same generator the
/// Rng constructor seeds with, so DeriveSubstreamSeed(s, i) != s for i > 0
/// with overwhelming probability.
std::uint64_t DeriveSubstreamSeed(std::uint64_t base_seed,
                                  std::uint64_t stream);

/// xoshiro256** PRNG with convenience distributions. Cheap to copy; forkable
/// into statistically independent child streams.
class Rng {
 public:
  /// Seeds the state by running splitmix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit draw.
  std::uint64_t Next();

  /// Flight-recorder hook: called after every raw draw with the stream label
  /// and the drawn value. A plain function pointer (not std::function) keeps
  /// the unhooked path to one predicted branch. The hook must never draw from
  /// any Rng itself. Fork() children start unhooked; copies inherit the hook.
  using DrawHook = void (*)(void* ctx, std::uint32_t stream,
                            std::uint64_t value);
  void SetDrawHook(DrawHook hook, void* ctx, std::uint32_t stream) {
    hook_ = hook;
    hook_ctx_ = ctx;
    hook_stream_ = stream;
  }
  void ClearDrawHook() {
    hook_ = nullptr;
    hook_ctx_ = nullptr;
    hook_stream_ = 0;
  }

  /// Child generator independent of (and not advancing with) this one beyond
  /// the two draws consumed to seed it. Use one fork per replica/subsystem.
  Rng Fork();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t UniformInt(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean);

  /// Standard normal via Box–Muller, scaled to (mean, stddev).
  double Normal(double mean, double stddev);

  /// Pareto-distributed value (shape alpha > 0, scale xm > 0). Used for
  /// heavy-tailed content popularity and flow sizes.
  double Pareto(double alpha, double xm);

  /// Zipf-like rank selection over n items (rank 0 most popular) by inverse
  /// CDF over precomputed weights. O(log n) after O(n) first call per size.
  std::size_t Zipf(std::size_t n, double skew);

  /// Index drawn uniformly from [0, n). Requires n > 0.
  std::size_t Index(std::size_t n);

  /// Fisher–Yates shuffle of an index vector 0..n-1.
  std::vector<std::size_t> Permutation(std::size_t n);

  /// Snapshot fields (base/archive.h): the four state words, tag 0x01 each.
  template <class A>
  void Visit(A& a) {
    a.Words(0x01, state_);
  }

 private:
  std::uint64_t state_[4];
  DrawHook hook_ = nullptr;
  void* hook_ctx_ = nullptr;
  std::uint32_t hook_stream_ = 0;
  // Cached Zipf tables keyed by (n, skew); small and replica-local.
  struct ZipfTable {
    std::size_t n;
    double skew;
    std::vector<double> cdf;
  };
  std::vector<ZipfTable> zipf_tables_;
};

}  // namespace viator
