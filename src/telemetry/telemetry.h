// The Wandering Observatory hub: one Telemetry object per WanderingNetwork
// owning the span collector.
//
// Design constraints (see docs/OBSERVABILITY.md):
//  - zero-cost-when-off: with tracing disabled, instrumented code paths pay
//    one branch per SpanScope, nothing more;
//  - determinism-neutral: trace ids come from a dedicated RNG forked off the
//    replica seed and trace contexts are excluded from wire sizes — a traced
//    run and an untraced run of the same seed make identical simulation
//    decisions.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/simulator.h"
#include "telemetry/span.h"
#include "telemetry/trace_context.h"

namespace viator::telemetry {

struct TelemetryConfig {
  bool enable_tracing = false;
  /// Bound on retained spans; past it new spans are dropped (and counted).
  std::size_t span_capacity = 65536;
};

class Telemetry {
 public:
  /// `id_seed` seeds the span collector's private id RNG — derived from the
  /// network seed so traces are reproducible, distinct from the network's
  /// own stream so they do not perturb it.
  Telemetry(sim::Simulator& simulator, const TelemetryConfig& config,
            std::uint64_t id_seed)
      : simulator_(simulator),
        config_(config),
        spans_(id_seed, config.span_capacity) {}
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  bool tracing_enabled() const { return config_.enable_tracing; }

  /// Fresh trace context for a newly injected capsule (inactive context when
  /// tracing is off, so callers need no branch of their own).
  TraceContext StartTrace() {
    return config_.enable_tracing ? spans_.StartTrace() : TraceContext{};
  }

  SpanCollector& spans() { return spans_; }
  const SpanCollector& spans() const { return spans_; }

  /// Snapshot fields (genesis TelemetryAdapter): the span collector's. Plane
  /// measurements (cycles, bytes, latency) are host measurements, not
  /// simulated state, so traced runs snapshot bit-identically whether or
  /// not a plane was on.
  template <class A>
  void Visit(A& a) {
    spans_.Visit(a);
  }
  sim::Simulator& simulator() { return simulator_; }

 private:
  sim::Simulator& simulator_;
  TelemetryConfig config_;
  SpanCollector spans_;
};

/// RAII span: opens a child span of `parent` on construction, commits it
/// with the current virtual time on destruction. When tracing is disabled or
/// the parent context is inactive, the scope is inert and `context()` simply
/// echoes `parent` — instrumented code stays branch-free:
///
///   SpanScope span(telemetry, shuttle.trace, id, "svc.caching", "get");
///   reply.trace = span.context();   // children of this span
///
/// `component` and `name` must outlive the scope (string literals in
/// practice).
class SpanScope {
 public:
  SpanScope(Telemetry& telemetry, const TraceContext& parent,
            std::uint64_t ship, std::string_view component,
            std::string_view name)
      : ctx_(parent) {
    if (!telemetry.tracing_enabled() || !parent.active()) return;
    collector_ = &telemetry.spans();
    simulator_ = &telemetry.simulator();
    ctx_.span_id = collector_->NextSpanId();
    ctx_.parent_span_id = parent.span_id;
    ship_ = ship;
    component_ = component;
    name_ = name;
    start_ = simulator_->now();
  }
  ~SpanScope() {
    if (collector_ == nullptr) return;
    SpanRecord record;
    record.trace_id = ctx_.trace_id;
    record.span_id = ctx_.span_id;
    record.parent_span_id = ctx_.parent_span_id;
    record.ship = ship_;
    record.component = std::string(component_);
    record.name = std::string(name_);
    record.start = start_;
    record.end = simulator_->now();
    collector_->Commit(std::move(record));
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Context for work caused by this span: stamp it onto outgoing shuttles.
  const TraceContext& context() const { return ctx_; }

 private:
  TraceContext ctx_;
  SpanCollector* collector_ = nullptr;
  sim::Simulator* simulator_ = nullptr;
  std::uint64_t ship_ = 0;
  std::string_view component_;
  std::string_view name_;
  sim::TimePoint start_ = 0;
};

}  // namespace viator::telemetry
