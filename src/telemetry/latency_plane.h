// End-to-end shuttle latency attribution — the time twin of the cycle plane
// (telemetry/perf_counters.h) and the byte plane (telemetry/mem_counters.h).
//
// A `lat::Lane` lives on each WanderingNetwork and owns (a) a side table of
// in-flight shuttles keyed by the shuttle's transient `lat_id` — kept out of
// the shuttle and the 64-byte simulator Event on purpose — and (b) a matrix
// of LatencySketch histograms over the lifecycle stages, classed by shuttle
// kind (delivery / hop / queue / drop) or by first-level service role
// (exec). Probes fire at birth (Inject/Dispatch), per-hop transit and queue
// wait (net::Fabric), EE execution (Ship::Consume → ExecuteShuttleCode) and
// delivery/drop; all durations are pure sim-time differences, so the sketch
// contents are bit-identical at any thread count (bench_latency's
// ReplayNeutrality + bucket-exactness gates).
//
// The switch and the cost contract are the planes' shared kit
// (telemetry/plane.h, docs/OBSERVABILITY.md); runtime on costs integer
// bucket arithmetic against this network's Lane, plus one hash-table touch
// per lifecycle transition.
//
// Determinism contract: latency values never feed a simulation decision,
// never enter journals or state hashes. `lat_id` values come from a global
// relaxed counter and are NOT deterministic across thread counts — they are
// transient side-table keys only and must never be published or compared;
// every published artifact (sketch buckets, quantiles, exemplars) is a
// function of deterministic sim-time values.
//
// Single-writer discipline: a Lane is touched only by the thread currently
// running its network (the shard worker inside a window, the barrier thread
// during merge/fold), the same quiescence argument the mem plane and the
// ShardSlot scratch rely on.
//
// This header is self-contained below net/core (sim + base only) so the
// fabric can record hop/queue stages without inverting the library order;
// the out-of-line helpers (PublishLatStats, FormatLatReport) live in
// latency_plane.cpp inside viator_telemetry.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "sim/time.h"
#include "telemetry/latency_sketch.h"
#include "telemetry/plane.h"

namespace viator::telemetry::lat {

/// Lifecycle stages a shuttle's time is attributed to.
enum class Stage : std::uint8_t {
  kDelivery = 0,  // birth → consumption (end-to-end, incl. cross-shard)
  kHop,           // per-hop link transit (fabric send → delivery)
  kQueue,         // per-hop serialization wait in the link queue
  kExec,          // EE/service execution (code-fetch park → completion)
  kDrop,          // birth → loss (TTL, no-route, queue/link drop, reject)
  kCount,
};
inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kCount);

/// Stable dotted stage name ("lat.delivery", ...), the exporters' prefix.
inline const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kDelivery: return "lat.delivery";
    case Stage::kHop: return "lat.hop";
    case Stage::kQueue: return "lat.queue";
    case Stage::kExec: return "lat.exec";
    case Stage::kDrop: return "lat.drop";
    case Stage::kCount: break;
  }
  return "lat.unknown";
}

/// Class dimension for delivery/hop/queue/drop: mirrors wli::ShuttleKind
/// (static_assert'd in core/wandering_network.cpp — this header cannot see
/// core). Kept as a plain byte so the fabric can class frames without
/// knowing shuttle types.
inline constexpr std::size_t kClassCount = 8;
inline const char* ClassName(std::size_t cls) {
  static constexpr const char* kNames[kClassCount] = {
      "data",      "code", "code_request", "code_reply",
      "knowledge", "jet",  "control",      "probe"};
  return cls < kClassCount ? kNames[cls] : "unknown";
}

/// Role dimension for the exec stage: mirrors node::FirstLevelRole
/// (static_assert'd in core/wandering_network.cpp).
inline constexpr std::size_t kRoleCount = 6;
inline const char* RoleName(std::size_t role) {
  static constexpr const char* kNames[kRoleCount] = {
      "fusion", "fission", "caching", "delegation", "replication",
      "next_step"};
  return role < kRoleCount ? kNames[role] : "unknown";
}

/// Sketch index space of a stage: exec is classed by role, the rest by kind.
inline constexpr std::size_t StageClassCount(Stage stage) {
  return stage == Stage::kExec ? kRoleCount : kClassCount;
}

namespace internal {
/// Global flight-id spring. Relaxed and shared across lanes/threads: ids
/// are unique, not deterministic (see the header contract).
inline std::atomic<std::uint64_t> g_next_id{1};
}  // namespace internal

/// The runtime switch. Off (default): every probe costs one predicted
/// branch. Flip before building the world to cover construction traffic.
inline bool Enabled() { return plane::Switch<Stage>::On(); }
inline void SetEnabled(bool on) { plane::Switch<Stage>::Set(on); }
inline std::uint64_t NextFlightId() {
  return internal::g_next_id.fetch_add(1, std::memory_order_relaxed);
}

/// One tail shuttle kept from a window: every field is a deterministic
/// function of sim time, so the worst-K selection is thread-count-stable.
/// `trace_id` is 0 when tracing was off; with tracing on it hands `wnscope
/// latency` / `wnreplay seek` the drill-down coordinate.
struct Exemplar {
  std::uint64_t duration_ns = 0;
  std::uint64_t trace_id = 0;
  sim::TimePoint birth = 0;
  std::uint8_t cls = 0;

  /// Worst-first order: longest duration, then trace/birth/class as
  /// deterministic tie-breaks.
  bool WorseThan(const Exemplar& other) const {
    if (duration_ns != other.duration_ns) {
      return duration_ns > other.duration_ns;
    }
    if (trace_id != other.trace_id) return trace_id < other.trace_id;
    if (birth != other.birth) return birth < other.birth;
    return cls < other.cls;
  }
  friend bool operator==(const Exemplar&, const Exemplar&) = default;
};

/// Per-network latency state. See the header comment for the writer
/// discipline; no method is thread-safe on its own.
class Lane {
 public:
  /// Worst-K exemplars retained per window.
  static constexpr std::size_t kExemplarCapacity = 4;

  // ---- side table -----------------------------------------------------

  struct Flight {
    sim::TimePoint birth = 0;
    sim::TimePoint exec_enter = 0;
    std::uint64_t trace_id = 0;
    std::uint8_t cls = 0;
    bool in_exec = false;
  };

  void OnBirth(std::uint64_t id, sim::TimePoint now, std::uint8_t cls,
               std::uint64_t trace_id) {
    flights_.emplace(id, Flight{now, 0, trace_id, cls, false});
  }

  void OnExecEnter(std::uint64_t id, sim::TimePoint now) {
    const auto it = flights_.find(id);
    if (it == flights_.end()) return;
    it->second.exec_enter = now;
    it->second.in_exec = true;
  }

  void OnExecDone(std::uint64_t id, sim::TimePoint now, std::uint8_t role) {
    const auto it = flights_.find(id);
    if (it == flights_.end() || !it->second.in_exec) return;
    it->second.in_exec = false;
    if (role < kRoleCount) {
      exec_[role].Record(DurationNs(it->second.exec_enter, now));
    }
  }

  /// Closes a flight as delivered: end-to-end duration into the cumulative
  /// per-class delivery sketch, the window sketch and the worst-K exemplars.
  void OnDelivered(std::uint64_t id, sim::TimePoint now) {
    const auto it = flights_.find(id);
    if (it == flights_.end()) return;
    const Flight& f = it->second;
    const std::uint64_t ns = DurationNs(f.birth, now);
    if (f.cls < kClassCount) per_class_[DeliveryIdx][f.cls].Record(ns);
    window_delivery_.Record(ns);
    OfferExemplar(Exemplar{ns, f.trace_id, f.birth, f.cls});
    flights_.erase(it);
  }

  /// Closes a flight as lost (TTL, unroutable, queue/link drop, reject).
  void OnDropped(std::uint64_t id, sim::TimePoint now) {
    const auto it = flights_.find(id);
    if (it == flights_.end()) return;
    const Flight& f = it->second;
    if (f.cls < kClassCount) {
      per_class_[DropIdx][f.cls].Record(DurationNs(f.birth, now));
    }
    flights_.erase(it);
  }

  void RecordHop(std::uint8_t cls, std::uint64_t ns) {
    if (cls < kClassCount) per_class_[HopIdx][cls].Record(ns);
  }
  void RecordQueue(std::uint8_t cls, std::uint64_t ns) {
    if (cls < kClassCount) per_class_[QueueIdx][cls].Record(ns);
  }

  // ---- cross-shard continuity ----------------------------------------

  /// A flight leaving this lane on a cross-shard handoff: the deterministic
  /// pieces travel on the Handoff, the local entry is retired.
  struct Departure {
    sim::TimePoint birth = 0;
    sim::TimePoint exec_enter = 0;
    std::uint64_t trace_id = 0;
    std::uint8_t cls = 0;
    bool valid = false;
  };

  Departure Depart(std::uint64_t id) {
    const auto it = flights_.find(id);
    if (it == flights_.end()) return {};
    Departure d{it->second.birth, it->second.exec_enter,
                it->second.trace_id, it->second.cls, true};
    flights_.erase(it);
    return d;
  }

  /// Seeds a flight carried over from another shard (barrier merge only).
  void Arrive(std::uint64_t id, const Departure& d) {
    if (!d.valid) return;
    flights_.emplace(id, Flight{d.birth, d.exec_enter, d.trace_id, d.cls,
                                false});
  }

  // ---- window fold (barrier / harness only) ---------------------------

  struct WindowStats {
    std::uint64_t p50_ns = 0;
    std::uint64_t p95_ns = 0;
    std::uint64_t p99_ns = 0;
    std::uint64_t delivered = 0;
    std::vector<Exemplar> worst;  // worst-first, deterministic order
  };

  /// Quantiles + exemplars of the deliveries since the previous fold; the
  /// window sketch resets, cumulative per-class sketches keep integrating.
  WindowStats FoldWindow() {
    WindowStats w;
    w.delivered = window_delivery_.count();
    w.p50_ns = window_delivery_.ValueAtQuantile(0.50);
    w.p95_ns = window_delivery_.ValueAtQuantile(0.95);
    w.p99_ns = window_delivery_.ValueAtQuantile(0.99);
    w.worst = std::move(window_worst_);
    window_worst_.clear();
    window_delivery_.Reset();
    return w;
  }

  // ---- aggregation / inspection ---------------------------------------

  /// Folds this lane's cumulative sketches into `target` (cross-shard
  /// aggregation; side tables and window state stay put).
  void MergeInto(Lane& target) const {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const Stage stage = static_cast<Stage>(s);
      for (std::size_t c = 0; c < StageClassCount(stage); ++c) {
        target.MutableSketch(stage, c).Merge(Sketch(stage, c));
      }
    }
  }

  const LatencySketch& Sketch(Stage stage, std::size_t index) const {
    return stage == Stage::kExec ? exec_[index]
                                 : per_class_[StageIdx(stage)][index];
  }
  LatencySketch& MutableSketch(Stage stage, std::size_t index) {
    return stage == Stage::kExec ? exec_[index]
                                 : per_class_[StageIdx(stage)][index];
  }
  const LatencySketch& window_sketch() const { return window_delivery_; }
  LatencySketch& mutable_window_sketch() { return window_delivery_; }

  std::uint64_t DeliveredCount() const {
    std::uint64_t n = 0;
    for (const LatencySketch& s : per_class_[DeliveryIdx]) n += s.count();
    return n;
  }
  std::uint64_t DroppedCount() const {
    std::uint64_t n = 0;
    for (const LatencySketch& s : per_class_[DropIdx]) n += s.count();
    return n;
  }
  std::size_t open_flights() const { return flights_.size(); }

  /// Snapshot fields (the genesis latency section): one record per
  /// non-empty (stage, class) sketch with its coordinates, then the window
  /// delivery sketch when non-empty. Open flights are transient and not
  /// captured (snapshots are quiescent). A load resets the lane first.
  template <class A>
  void Visit(A& a) {
    if constexpr (A::kLoading) {
      Reset();
      a.Records(0x01, [this](auto& record) {
        std::uint32_t stage = 0;
        std::uint32_t index = 0;
        LatencySketch sketch;
        record.U32(0x01, stage);
        record.U32(0x02, index);
        sketch.Visit(record);
        if (!record.ok()) return;
        if (stage >= kStageCount ||
            index >= StageClassCount(static_cast<Stage>(stage))) {
          record.Fail(InvalidArgument(
              "latency sketch coordinates out of range"));
          return;
        }
        MutableSketch(static_cast<Stage>(stage), index) = sketch;
      });
      a.Record(0x02, [this](auto& record) {
        window_delivery_.Visit(record);
      });
    } else {
      for (std::uint32_t stage = 0; stage < kStageCount; ++stage) {
        const auto s = static_cast<Stage>(stage);
        for (std::uint32_t index = 0; index < StageClassCount(s); ++index) {
          LatencySketch& sketch = MutableSketch(s, index);
          if (sketch.empty()) continue;
          a.Record(0x01, [&](auto& record) {
            record.U32(0x01, stage);
            record.U32(0x02, index);
            sketch.Visit(record);
          });
        }
      }
      if (!window_delivery_.empty()) {
        a.Record(0x02, [this](auto& record) {
          const std::uint32_t origin = 0;  // the window sketch has no class
          record.U32(0x01, origin);
          record.U32(0x02, origin);
          window_delivery_.Visit(record);
        });
      }
    }
  }

  /// Full reset (bench scenario isolation): sketches, table, window state.
  void Reset() {
    for (auto& row : per_class_) {
      for (LatencySketch& s : row) s.Reset();
    }
    for (LatencySketch& s : exec_) s.Reset();
    window_delivery_.Reset();
    window_worst_.clear();
    flights_.clear();
  }

 private:
  // per_class_ rows for the four kind-classed stages; exec is role-classed.
  static constexpr std::size_t DeliveryIdx = 0;
  static constexpr std::size_t HopIdx = 1;
  static constexpr std::size_t QueueIdx = 2;
  static constexpr std::size_t DropIdx = 3;

  static constexpr std::size_t StageIdx(Stage stage) {
    switch (stage) {
      case Stage::kDelivery: return DeliveryIdx;
      case Stage::kHop: return HopIdx;
      case Stage::kQueue: return QueueIdx;
      case Stage::kDrop: return DropIdx;
      default: return DeliveryIdx;  // kExec handled by callers
    }
  }

  static std::uint64_t DurationNs(sim::TimePoint from, sim::TimePoint to) {
    return to >= from ? static_cast<std::uint64_t>(to - from) : 0;
  }

  /// Bounded worst-K insertion, kept sorted worst-first; cheap because a
  /// candidate below the current K-th worst is rejected with one compare.
  void OfferExemplar(Exemplar candidate) {
    if (window_worst_.size() >= kExemplarCapacity &&
        !candidate.WorseThan(window_worst_.back())) {
      return;
    }
    const auto pos = std::lower_bound(
        window_worst_.begin(), window_worst_.end(), candidate,
        [](const Exemplar& a, const Exemplar& b) { return a.WorseThan(b); });
    window_worst_.insert(pos, candidate);
    if (window_worst_.size() > kExemplarCapacity) window_worst_.pop_back();
  }

  std::array<std::array<LatencySketch, kClassCount>, 4> per_class_{};
  std::array<LatencySketch, kRoleCount> exec_{};
  LatencySketch window_delivery_;
  std::vector<Exemplar> window_worst_;
  std::unordered_map<std::uint64_t, Flight> flights_;
};

// ---- probe helpers (duck-typed over wli::Shuttle, which this layer cannot
// see: any type with `lat_id`, `header.kind` and `trace.trace_id` works) ---

template <typename ShuttleT>
inline void ProbeBirth(Lane* lane, ShuttleT& shuttle, sim::TimePoint now) {
  if (lane == nullptr || !Enabled()) return;
  if (shuttle.lat_id != 0) return;  // re-dispatch of a tracked flight
  shuttle.lat_id = NextFlightId();
  lane->OnBirth(shuttle.lat_id, now,
                static_cast<std::uint8_t>(shuttle.header.kind),
                shuttle.trace.trace_id);
}

template <typename ShuttleT>
inline void ProbeDelivered(Lane* lane, const ShuttleT& shuttle,
                           sim::TimePoint now) {
  if (lane == nullptr || !Enabled() || shuttle.lat_id == 0) return;
  lane->OnDelivered(shuttle.lat_id, now);
}

template <typename ShuttleT>
inline void ProbeDrop(Lane* lane, const ShuttleT& shuttle,
                      sim::TimePoint now) {
  if (lane == nullptr || !Enabled() || shuttle.lat_id == 0) return;
  lane->OnDropped(shuttle.lat_id, now);
}

template <typename ShuttleT>
inline void ProbeExecEnter(Lane* lane, const ShuttleT& shuttle,
                           sim::TimePoint now) {
  if (lane == nullptr || !Enabled() || shuttle.lat_id == 0) return;
  lane->OnExecEnter(shuttle.lat_id, now);
}

template <typename ShuttleT>
inline void ProbeExecDone(Lane* lane, const ShuttleT& shuttle,
                          sim::TimePoint now, std::uint8_t role) {
  if (lane == nullptr || !Enabled() || shuttle.lat_id == 0) return;
  lane->OnExecDone(shuttle.lat_id, now, role);
}

inline void ProbeHop(Lane* lane, std::uint8_t cls, std::uint64_t ns) {
  if (lane == nullptr || !Enabled()) return;
  lane->RecordHop(cls, ns);
}

inline void ProbeQueue(Lane* lane, std::uint8_t cls, std::uint64_t ns) {
  if (lane == nullptr || !Enabled()) return;
  lane->RecordQueue(cls, ns);
}

/// A frame the fabric lost with the shuttle inside (loss draw, link down,
/// queue overflow before the payload type is known): closes by bare id.
inline void ProbeLost(Lane* lane, std::uint64_t lat_id, sim::TimePoint now) {
  if (lane == nullptr || !Enabled() || lat_id == 0) return;
  lane->OnDropped(lat_id, now);
}

}  // namespace viator::telemetry::lat

// The probe macros instrumented code uses.
#define VIATOR_LAT_BIRTH(lane, shuttle, now) \
  ::viator::telemetry::lat::ProbeBirth((lane), (shuttle), (now))
#define VIATOR_LAT_DELIVERED(lane, shuttle, now) \
  ::viator::telemetry::lat::ProbeDelivered((lane), (shuttle), (now))
#define VIATOR_LAT_DROP(lane, shuttle, now) \
  ::viator::telemetry::lat::ProbeDrop((lane), (shuttle), (now))
#define VIATOR_LAT_EXEC_ENTER(lane, shuttle, now) \
  ::viator::telemetry::lat::ProbeExecEnter((lane), (shuttle), (now))
#define VIATOR_LAT_EXEC_DONE(lane, shuttle, now, role) \
  ::viator::telemetry::lat::ProbeExecDone((lane), (shuttle), (now), (role))
#define VIATOR_LAT_HOP(lane, cls, ns) \
  ::viator::telemetry::lat::ProbeHop((lane), (cls), (ns))
#define VIATOR_LAT_QUEUE(lane, cls, ns) \
  ::viator::telemetry::lat::ProbeQueue((lane), (cls), (ns))
#define VIATOR_LAT_LOST(lane, lat_id, now) \
  ::viator::telemetry::lat::ProbeLost((lane), (lat_id), (now))
