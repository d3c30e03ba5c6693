#include "core/facts.h"

#include <algorithm>

namespace viator::wli {

void FactStore::Touch(FactKey key, std::int64_t value, double weight,
                      sim::TimePoint now) {
  auto it = facts_.find(key);
  if (it != facts_.end()) {
    Fact& f = it->second;
    f.value = value;
    f.weight = std::max(f.weight, weight);
    ++f.touches_in_window;
    f.last_touch = now;
    return;
  }
  if (facts_.size() >= config_.capacity) {
    // Evict the weakest fact to "leave space for new facts".
    auto weakest = facts_.end();
    double weakest_rate = 0.0;
    for (auto fit = facts_.begin(); fit != facts_.end(); ++fit) {
      const double rate = EffectiveRate(fit->second, now);
      if (weakest == facts_.end() || rate < weakest_rate) {
        weakest = fit;
        weakest_rate = rate;
      }
    }
    if (weakest != facts_.end()) {
      facts_.erase(weakest);
      ++evictions_;
    }
  }
  Fact f;
  f.key = key;
  f.value = value;
  f.weight = weight;
  f.touches_in_window = 1;
  f.last_touch = now;
  f.created = now;
  facts_.emplace(key, f);
  AccountMem();
}

std::optional<std::int64_t> FactStore::Get(FactKey key) const {
  const auto it = facts_.find(key);
  if (it == facts_.end()) return std::nullopt;
  return it->second.value;
}

const Fact* FactStore::Find(FactKey key) const {
  const auto it = facts_.find(key);
  return it == facts_.end() ? nullptr : &it->second;
}

bool FactStore::Erase(FactKey key) {
  const bool erased = facts_.erase(key) > 0;
  if (erased) AccountMem();
  return erased;
}

double FactStore::EffectiveRate(const Fact& fact, sim::TimePoint now) const {
  // Rate over the elapsed window (or since the fact's birth when younger),
  // scaled by weight: heavy (high-bandwidth) facts decay more slowly.
  const sim::TimePoint since = std::max(window_start_, fact.created);
  const sim::Duration elapsed = now > since ? now - since : 1;
  const double seconds = std::max(sim::ToSeconds(elapsed), 1e-9);
  return fact.weight * static_cast<double>(fact.touches_in_window) / seconds;
}

std::size_t FactStore::Sweep(sim::TimePoint now) {
  std::size_t deleted = 0;
  // Facts younger than a window get one grace period: their rate estimate
  // is too noisy to kill them yet.
  for (auto it = facts_.begin(); it != facts_.end();) {
    Fact& f = it->second;
    const bool mature = now >= f.created + config_.window;
    if (mature && EffectiveRate(f, now) < config_.frequency_threshold_hz) {
      it = facts_.erase(it);
      ++deleted;
      ++expirations_;
    } else {
      f.touches_in_window = 0;
      ++it;
    }
  }
  window_start_ = now;
  if (deleted != 0) AccountMem();
  return deleted;
}

std::vector<Fact> FactStore::TopByWeight(std::size_t k) const {
  std::vector<Fact> out;
  out.reserve(facts_.size());
  for (const auto& [key, fact] : facts_) out.push_back(fact);
  std::sort(out.begin(), out.end(), [](const Fact& a, const Fact& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.key < b.key;  // deterministic tiebreak
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<FactKey> FactStore::Keys() const {
  std::vector<FactKey> keys;
  keys.reserve(facts_.size());
  for (const auto& [key, fact] : facts_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<Fact> FactStore::AllFacts() const {
  std::vector<Fact> out;
  out.reserve(facts_.size());
  for (const auto& [key, fact] : facts_) out.push_back(fact);
  std::sort(out.begin(), out.end(),
            [](const Fact& a, const Fact& b) { return a.key < b.key; });
  return out;
}

}  // namespace viator::wli
