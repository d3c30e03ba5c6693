// Facts and the fact store (Pulsating Metamorphosis Principle, Def. 3(3)).
//
// "Facts have a certain lifetime in the Wandering Network which depends on
// their clustering inside the ships, as well as [on] their transmission
// intensity, or bandwidth (weight). As soon as a fact does not reach its
// frequency threshold, it is deleted to leave space for new facts."
//
// A fact is a keyed 64-bit observation with a weight. Each Touch (local
// refresh or arrival by shuttle) counts toward the fact's frequency within a
// sliding window; Sweep() deletes facts whose windowed frequency — scaled by
// weight, so high-bandwidth facts live longer — falls below the store's
// threshold. Net functions reference facts; when a function's facts die, the
// function (and its knowledge quanta) dies with them, which is what drives
// functional churn in the wandering experiments.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/time.h"
#include "telemetry/mem_counters.h"

namespace viator::wli {

using FactKey = std::uint64_t;

struct Fact {
  FactKey key = 0;
  std::int64_t value = 0;
  double weight = 1.0;  // transmission intensity / "bandwidth"
  std::uint32_t touches_in_window = 0;
  sim::TimePoint last_touch = 0;
  sim::TimePoint created = 0;
};

struct FactStoreConfig {
  double frequency_threshold_hz = 0.2;  // required touches/sec (weight 1.0)
  sim::Duration window = 10 * sim::kSecond;
  std::size_t capacity = 4096;  // hard cap; weakest facts evicted first
};

class FactStore {
 public:
  explicit FactStore(const FactStoreConfig& config = {}) : config_(config) {}

  /// Inserts or refreshes a fact at time `now`. Every call counts one touch.
  /// When at capacity, the weakest fact (lowest windowed rate) is evicted.
  void Touch(FactKey key, std::int64_t value, double weight,
             sim::TimePoint now);

  /// Reads a fact's value without touching it.
  std::optional<std::int64_t> Get(FactKey key) const;
  const Fact* Find(FactKey key) const;

  bool Erase(FactKey key);

  /// Deletes every fact below its frequency threshold at `now` and starts a
  /// new window. Returns the number of facts deleted.
  std::size_t Sweep(sim::TimePoint now);

  /// Windowed touch rate of a fact, scaled by its weight (Sweep's criterion).
  double EffectiveRate(const Fact& fact, sim::TimePoint now) const;

  std::size_t size() const { return facts_.size(); }
  const FactStoreConfig& config() const { return config_; }

  /// Top-k facts by weight (for genetic transcoding snapshots).
  std::vector<Fact> TopByWeight(std::size_t k) const;

  /// All keys currently alive (deterministically ordered).
  std::vector<FactKey> Keys() const;

  std::uint64_t total_evictions() const { return evictions_; }
  std::uint64_t total_expirations() const { return expirations_; }

  /// Every live fact, sorted by key.
  std::vector<Fact> AllFacts() const;

  /// Snapshot fields (inlined in a ship's genesis record, tags 0x11-0x14):
  /// every fact sorted by key, the window start and the death counters. A
  /// load replaces the contents; the configured capacity still applies and
  /// excess facts are dropped.
  template <class A>
  void Visit(A& a) {
    std::vector<Fact> facts;
    if constexpr (A::kLoading) {
      facts_.clear();
    } else {
      facts = AllFacts();
    }
    a.Each(
        0x11, facts,
        [](auto& r, auto& fact) {
          r.U64(0x01, fact.key);
          r.U64(0x02, fact.value);
          r.F64(0x03, fact.weight);
          r.U32(0x04, fact.touches_in_window);
          r.U64(0x05, fact.last_touch);
          r.U64(0x06, fact.created);
        },
        [this](auto&, Fact& fact) {
          if (facts_.size() < config_.capacity) facts_[fact.key] = fact;
        });
    a.U64(0x12, window_start_);
    a.U64(0x13, evictions_);
    a.U64(0x14, expirations_);
    if constexpr (A::kLoading) AccountMem();
  }

 private:
  // Estimated heap per stored fact: the hash node (value + next pointer)
  // plus one bucket-array slot's share of pointer overhead. An estimate —
  // but a deterministic one, which is what the pinned baselines need.
  static constexpr std::size_t kFactNodeBytes =
      sizeof(std::pair<const FactKey, Fact>) + 2 * sizeof(void*);

  // Re-mirrors the table footprint (nodes + bucket array) into the
  // kFactsGenome domain after a mutation. O(1).
  void AccountMem() {
    mem_bytes_.Set(facts_.size() * kFactNodeBytes +
                   facts_.bucket_count() * sizeof(void*));
  }

  FactStoreConfig config_;
  std::unordered_map<FactKey, Fact> facts_;
  sim::TimePoint window_start_ = 0;
  std::uint64_t evictions_ = 0;    // capacity pressure
  std::uint64_t expirations_ = 0;  // frequency-threshold deaths
  telemetry::mem::ChargedBytes<telemetry::mem::Domain::kFactsGenome>
      mem_bytes_;
};

}  // namespace viator::wli
