// Span records and their collector.
//
// A span is one timed unit of work attributed to a (ship, component, name)
// triple and linked into a per-trace causal tree via parent span ids. The
// SpanCollector hands out trace/span ids and stores finished spans in a
// bounded buffer; its entire state snapshot/restores exactly (genesis).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "sim/time.h"
#include "telemetry/trace_context.h"

namespace viator::telemetry {

/// One finished span. Times are virtual (simulator) nanoseconds.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  // 0 = root of its trace
  std::uint64_t ship = 0;            // node the work ran on
  std::string component;             // e.g. "ship", "svc.caching"
  std::string name;                  // e.g. "consume", "get"
  sim::TimePoint start = 0;
  sim::TimePoint end = 0;
};

/// Issues trace/span ids and accumulates finished spans.
///
/// Ids are drawn from the collector's own RNG (forked from the replica seed
/// at construction), so tracing never perturbs the network's random stream:
/// a traced run and an untraced run make identical simulation decisions.
/// The buffer is bounded; once full, new spans are counted as dropped rather
/// than evicting old ones (the front of a trace is worth more than its tail).
class SpanCollector {
 public:
  SpanCollector(std::uint64_t id_seed, std::size_t capacity)
      : rng_(id_seed), capacity_(capacity) {}

  /// Starts a fresh trace: a context with a new nonzero trace id and no
  /// spans yet (span_id 0 = "the injection itself is the root's parent").
  TraceContext StartTrace() {
    ++traces_started_;
    return TraceContext{rng_.Next() | 1, 0, 0};
  }

  /// Next sequential span id (unique per collector, never 0).
  std::uint64_t NextSpanId() { return ++last_span_id_; }

  /// Stores a finished span, honoring the capacity bound.
  void Commit(SpanRecord record) {
    if (spans_.size() >= capacity_) {
      ++spans_dropped_;
      return;
    }
    spans_.push_back(std::move(record));
    ++spans_recorded_;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::uint64_t traces_started() const { return traces_started_; }
  std::uint64_t spans_recorded() const { return spans_recorded_; }
  std::uint64_t spans_dropped() const { return spans_dropped_; }
  std::size_t capacity() const { return capacity_; }

  void Clear() {
    spans_.clear();
    // id state is deliberately kept: cleared collectors keep issuing unique
    // ids, so exported files from successive windows never collide.
  }

  /// Snapshot fields (genesis TelemetryAdapter): the id RNG stream, id and
  /// drop counters, and every retained span. Capacity is configuration, not
  /// state.
  template <class A>
  void Visit(A& a) {
    rng_.Visit(a);
    a.U64(0x02, last_span_id_);
    a.U64(0x03, traces_started_);
    a.U64(0x04, spans_recorded_);
    a.U64(0x05, spans_dropped_);
    a.Each(0x06, spans_, [](auto& r, auto& span) {
      r.U64(0x01, span.trace_id);
      r.U64(0x02, span.span_id);
      r.U64(0x03, span.parent_span_id);
      r.U64(0x04, span.ship);
      r.Str(0x05, span.component);
      r.Str(0x06, span.name);
      r.U64(0x07, span.start);
      r.U64(0x08, span.end);
    });
  }

 private:
  Rng rng_;
  std::size_t capacity_;
  std::uint64_t last_span_id_ = 0;
  std::uint64_t traces_started_ = 0;
  std::uint64_t spans_recorded_ = 0;
  std::uint64_t spans_dropped_ = 0;
  std::vector<SpanRecord> spans_;
};

}  // namespace viator::telemetry
