// Structured trace log. Subsystems emit (time, level, component, message)
// entries into a bounded ring buffer; tests assert against the buffer.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.h"

namespace viator::sim {

enum class TraceLevel : std::uint8_t { kDebug = 0, kInfo, kWarn, kError };
inline constexpr TraceLevel kTraceLevelCount = TraceLevel{4};

std::string_view TraceLevelName(TraceLevel level);

/// Bounded in-memory trace sink. Not thread-safe by design: each simulation
/// replica owns one sink (shared mutable state stays replica-local).
class TraceSink {
 public:
  struct Entry {
    TimePoint time;
    TraceLevel level;
    std::string component;
    std::string message;
  };

  /// Entries retained; the oldest is evicted past it.
  static constexpr std::size_t kCapacity = 8192;

  /// Records an entry, evicting the oldest when over capacity.
  void Log(TimePoint time, TraceLevel level, std::string component,
           std::string message);

  const std::deque<Entry>& entries() const { return entries_; }

  /// Number of retained entries whose message contains `needle`.
  std::size_t CountContaining(std::string_view needle) const;

  /// All retained entries for one component, oldest first.
  std::vector<Entry> ForComponent(std::string_view component) const;

  /// Dumps every retained entry as one JSON object per line
  /// ({"t":...,"level":...,"component":...,"message":...}), oldest first.
  /// Stable field order, so two sinks with equal entries produce byte-equal
  /// output — the offline diff format for deterministic-resume checks.
  void WriteJsonl(std::ostream& out) const;

  /// Snapshot fields (the genesis trace section): one record per retained
  /// entry. A load replaces the entries verbatim, still enforcing the
  /// capacity bound.
  template <class A>
  void Visit(A& a) {
    a.Each(0x01, entries_, [](auto& r, auto& entry) {
      r.U64(0x01, entry.time);
      r.Enum(0x02, entry.level, kTraceLevelCount, "trace level");
      r.Str(0x03, entry.component);
      r.Str(0x04, entry.message);
    });
    if constexpr (A::kLoading) {
      while (entries_.size() > kCapacity) entries_.pop_front();
    }
  }

  void Clear() { entries_.clear(); }

 private:
  std::deque<Entry> entries_;
};

}  // namespace viator::sim
