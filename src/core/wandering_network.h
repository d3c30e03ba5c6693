// The Wandering Network orchestrator — the top-level public API.
//
// Owns the ships, the code origin store, the principle engines (DCP
// morphing, SRP reputation/clustering, MFP feedback bus, PMP wanderers and
// resonance), the overlay manager and the metamorphosis pulse. Transport is
// delegated to net::Fabric over the caller's Topology; shuttles are routed
// hop-by-hop along shortest paths unless a routing service overrides the
// next-hop choice.
//
// Definition 1 in one type: a closed set of ship productions whose
// composition/decomposition at all functional levels (Pulse()) recursively
// re-constitutes the system and specifies its own extension.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/archive.h"
#include "base/hash.h"
#include "base/rng.h"
#include "base/status.h"
#include "core/dcp.h"
#include "core/knowledge.h"
#include "core/ledger.h"
#include "core/mfp.h"
#include "core/overlay.h"
#include "core/pmp.h"
#include "core/ship.h"
#include "core/shuttle.h"
#include "core/shuttle_pool.h"
#include "core/srp.h"
#include "genesis/section_ids.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/trace.h"
#include "telemetry/latency_plane.h"
#include "telemetry/telemetry.h"
#include "vm/code_repository.h"

namespace viator::wli {

struct WnConfig {
  /// Wandering Network generation (1..4, §B). Gates node capabilities and
  /// which pulse mechanisms run (4G enables self-distribution/replication).
  int generation = 4;

  node::ResourceQuota quota;
  FactStoreConfig fact_config;

  /// Metamorphosis cadence: one pulse = sweep facts, expire functions,
  /// horizontal + vertical wandering, resonance detection.
  sim::Duration pulse_interval = 500 * sim::kMillisecond;

  bool enable_horizontal = true;
  bool enable_vertical = true;

  HorizontalWanderer::Config horizontal;
  VerticalWanderer::Config vertical;
  ResonanceDetector::Config resonance;

  /// Shared capsule-authorization key; 0 disables authorization checks.
  std::uint64_t auth_key = 0;

  /// Upper bound the security class clamps jet replication budgets to.
  std::uint32_t jet_budget_cap = 16;

  /// Wandering Observatory switches (both off by default: zero-cost).
  telemetry::TelemetryConfig telemetry;
};

class WanderingNetwork {
 public:
  /// Borrows the simulator and topology (must outlive the network). `seed`
  /// drives every stochastic choice in this network instance.
  WanderingNetwork(sim::Simulator& simulator, net::Topology& topology,
                   const WnConfig& config, std::uint64_t seed);

  WanderingNetwork(const WanderingNetwork&) = delete;
  WanderingNetwork& operator=(const WanderingNetwork&) = delete;

  // ---- Population ----

  /// Creates the ship living on physical node `node`.
  Ship& AddShip(net::NodeId node,
                node::ShipClass ship_class = node::ShipClass::kServer);

  /// Creates one server ship per topology node.
  void PopulateAllNodes();

  Ship* ship(net::NodeId node);
  const Ship* ship(net::NodeId node) const;
  std::size_t ship_count() const { return ship_count_; }
  /// Iterates ships in node order.
  void ForEachShip(const std::function<void(Ship&)>& fn);

  // ---- Code distribution ----

  /// Verifies and stores a program at the network origin `origin` (the
  /// publisher node demand-loading requests are sent to).
  Result<Digest> PublishProgram(const vm::Program& program,
                                net::NodeId origin);
  const vm::Program* FindPublished(Digest digest) const;
  net::NodeId OriginOf(Digest digest) const;

  // ---- Transport ----

  /// Injects a shuttle at its header source and routes it to destination.
  Status Inject(Shuttle shuttle);

  /// Routes `shuttle` one hop onward from `at` (used by ships; exposed for
  /// routing services that precomputed the next hop themselves).
  Status Dispatch(net::NodeId at, Shuttle shuttle);

  /// Routing override: services may install a next-hop chooser; return
  /// kInvalidNode to fall back to shortest path, or `at` itself to signal
  /// that the chooser absorbed the shuttle (buffered it for later).
  using NextHopChooser =
      std::function<net::NodeId(net::NodeId at, const Shuttle&)>;
  void SetNextHopChooser(NextHopChooser chooser) {
    next_hop_chooser_ = std::move(chooser);
  }

  /// Health-plane hook: every kProbe shuttle arriving at a ship is handed to
  /// this handler *before* any workload processing (TTL, feedback, counters),
  /// so probes observe ships without perturbing them. Unhandled probes are
  /// dropped and counted.
  using ProbeHandler = std::function<void(Ship& at, Shuttle probe,
                                          net::NodeId arrived_from)>;
  void SetProbeHandler(ProbeHandler handler) {
    probe_handler_ = std::move(handler);
  }
  /// Called by ships on probe arrival (internal plumbing).
  void HandleProbe(Ship& at, Shuttle probe, net::NodeId arrived_from);

  /// Sharding hook: a shuttle that reaches its shard-local destination while
  /// still carrying a transit_destination is a cross-shard capsule at its
  /// exit gateway. It is handed to this handler *instead of* being consumed,
  /// so the sharding layer (src/shard) can carry it over the cross-shard
  /// link into the neighbouring shard's network. Without a handler such
  /// shuttles are dropped and counted (wn.boundary_unhandled) — a plain
  /// single-network run never produces them.
  using BoundaryHandler = std::function<void(Ship& at, Shuttle shuttle,
                                             net::NodeId arrived_from)>;
  void SetBoundaryHandler(BoundaryHandler handler) {
    boundary_handler_ = std::move(handler);
  }
  /// Called by ships when a transit shuttle lands on its gateway (internal
  /// plumbing, same shape as HandleProbe).
  void HandleBoundary(Ship& at, Shuttle shuttle, net::NodeId arrived_from);

  // ---- Function deployment and wandering ----

  /// Installs `function` on `host` and registers its placement. Returns the
  /// (possibly newly assigned) function id.
  FunctionId DeployFunction(net::NodeId host, NetFunction function);

  const std::map<FunctionId, net::NodeId>& placements() const {
    return placements_;
  }

  /// Called by ships when a migrated function finishes installing.
  void NotifyFunctionInstalled(net::NodeId host, const NetFunction& function);

  /// Moves one function to a new host by shipping its code and genome as a
  /// real code shuttle (it pays transfer bytes and latency; placement is
  /// updated when the shuttle lands). Used by the horizontal wanderer and
  /// by nomadic services (Delegation).
  Status MigrateFunction(FunctionId function, net::NodeId to);

  /// One metamorphosis cycle (also runs on the periodic pulse timer).
  void Pulse();

  /// Starts the periodic pulse until `until`.
  void StartPulse(sim::TimePoint until);

  /// Mixes every field of every decision-state section (ForEachSection) into
  /// a rolling state digest (the flight recorder's window hashes): topology,
  /// code repository and origins, every ship (node order) with its facts,
  /// functions, congruence, code cache, EEs and hardware, placements and
  /// their roles, ledger, reputation, clusters, demand, overlays and class
  /// overlays, morphing and feedback counters, orchestrator counters, the
  /// network RNG and the fabric (link configs included, via the topology).
  /// The clock, stats, trace, memory peaks and latency sketches stay out so
  /// that runs differing only in observation probes stay comparable.
  ///
  /// The digest has two levels, so its cost follows what changed since the
  /// last one. The topology and each ship are mixed as one word, the digest
  /// of their own fields: the topology caches its digest per generation,
  /// and the network keeps one word per ship, re-hashing only the ships
  /// listed as changed since (see core/ship.h for what lists a ship). Every
  /// other section is walked in full. Refreshing those caches makes this
  /// call unsafe to run concurrently with itself on one network.
  void MixDigest(Hasher& hasher) const;

  /// The same digest with every cache bypassed: each ship and the topology
  /// re-walked. Exists so tests can prove the cached digest exact; not a
  /// data-path API.
  void MixDigestUncached(Hasher& hasher) const;

  /// Called by a ship whose fields may change after its digest was taken
  /// (internal plumbing): MixDigest re-hashes it.
  void ShipChanged(net::NodeId node) { changed_ships_.push_back(node); }

  /// The built-in genesis sections, one row each, in capture and restore
  /// order: `row(id, decision_state, visit)`, where `visit(archive)` walks
  /// the section's fields (base/archive.h). The order is restore dependency
  /// order: topology and clock first, then code, then ships (AddShip forks
  /// the network RNG and installs fabric handlers), then engine state, and
  /// only then the RNG streams the earlier steps perturbed; the memory
  /// watermarks follow every reschedule. Decision-state rows are the ones
  /// MixDigest hashes.
  template <class Row>
  void ForEachSection(Row&& row) {
    using namespace genesis;  // section ids
    row(kSectionTopology, true, [this](auto& a) { VisitTopology(a); });
    row(kSectionClock, false, [this](auto& a) { simulator_.Visit(a); });
    row(kSectionRepository, true, [this](auto& a) { VisitRepository(a); });
    row(kSectionShips, true, [this](auto& a) { VisitShips(a); });
    row(kSectionPlacements, true, [this](auto& a) { VisitPlacements(a); });
    row(kSectionLedger, true, [this](auto& a) { ledger_.Visit(a); });
    row(kSectionReputation, true, [this](auto& a) { reputation_.Visit(a); });
    row(kSectionClusters, true, [this](auto& a) { clusters_.Visit(a); });
    row(kSectionDemand, true, [this](auto& a) { demand_.Visit(a); });
    row(kSectionOverlays, true, [this](auto& a) { VisitOverlays(a); });
    row(kSectionMorphing, true, [this](auto& a) { morphing_.Visit(a); });
    row(kSectionFeedback, true, [this](auto& a) { feedback_.Visit(a); });
    row(kSectionNetworkCounters, true, [this](auto& a) { VisitCounters(a); });
    row(kSectionNetworkRng, true, [this](auto& a) { rng_.Visit(a); });
    row(kSectionFabric, true, [this](auto& a) { fabric_.Visit(a); });
    row(kSectionStats, false, [this](auto& a) { stats_.Visit(a); });
    row(kSectionTrace, false, [this](auto& a) { trace_.Visit(a); });
    row(kSectionMemPeaks, false, [this](auto& a) { VisitMemPeaks(a); });
    row(kSectionLatency, false, [this](auto& a) { lat_lane_.Visit(a); });
  }

  // ---- Figure-1 metrics ----

  /// Shannon entropy (bits) of the ship-role distribution.
  double RoleDiversity() const;
  std::map<node::FirstLevelRole, std::size_t> RoleCensus() const;

  std::uint64_t migrations_executed() const { return migrations_executed_; }
  std::uint64_t functions_emerged() const { return functions_emerged_; }
  std::uint64_t pulses() const { return pulses_; }

  // ---- Infrastructure access ----

  sim::Simulator& simulator() { return simulator_; }
  net::Topology& topology() { return topology_; }
  net::Fabric& fabric() { return fabric_; }
  sim::StatsRegistry& stats() { return stats_; }
  sim::TraceSink& trace() { return trace_; }
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }
  MorphingEngine& morphing() { return morphing_; }
  FeedbackBus& feedback() { return feedback_; }
  ReputationSystem& reputation() { return reputation_; }
  ClusterManager& clusters() { return clusters_; }
  OverlayManager& overlays() { return overlays_; }
  DemandTracker& demand() { return demand_; }
  FunctionUsageLedger& ledger() { return ledger_; }
  const FunctionUsageLedger& ledger() const { return ledger_; }
  const WnConfig& config() const { return config_; }
  /// Free-list of shuttle shells: ships release consumed shuttles here and
  /// hot senders acquire from it, recycling section-buffer capacity.
  ShuttlePool& shuttle_pool() { return shuttle_pool_; }
  const ShuttlePool& shuttle_pool() const { return shuttle_pool_; }
  Rng& rng() { return rng_; }
  const Rng& rng() const { return rng_; }
  /// Latency-plane state for this network: lifecycle sketches and the
  /// in-flight side table (telemetry/latency_plane.h). Single-writer: only
  /// the thread currently running this network (shard worker in a window,
  /// barrier thread between windows) may touch it.
  telemetry::lat::Lane& lat_lane() { return lat_lane_; }
  const telemetry::lat::Lane& lat_lane() const { return lat_lane_; }
  FunctionId NextFunctionId() { return next_function_id_++; }

  vm::CodeRepository& repository() { return repository_; }
  const vm::CodeRepository& repository() const { return repository_; }

 private:
  // ---- Section field lists (ForEachSection rows) ----

  // The topology's fields; a hash archive mixes the digest it caches.
  template <class A>
  void VisitTopology(A& a) {
    if constexpr (CachingArchive<A>) {
      a.Cached(topology_, [this] { return topology_.digest(); });
    } else {
      topology_.Visit(a);
    }
  }

  // Stored programs, then every program's origin node.
  template <class A>
  void VisitRepository(A& a) {
    repository_.Visit(a);
    a.Each(0x02, origins_, [](auto& r, auto& digest, auto& origin) {
      r.U64(0x01, digest);
      r.U64(0x02, origin);
    });
  }

  // One record per ship, in node order. A load creates each ship on a
  // node of the restored topology (at most once) before its fields load. A
  // hash archive mixes each ship's cached digest instead, after re-hashing
  // the ships listed as changed.
  template <class A>
  void VisitShips(A& a) {
    if constexpr (A::kLoading) {
      if (ship_count_ != 0) {
        a.Fail(FailedPrecondition(
            "ship restore requires a network with no ships"));
        return;
      }
      a.Records(0x01, [this](auto& record) {
        std::uint64_t node = net::kInvalidNode;
        node::ShipClass ship_class = node::ShipClass::kServer;
        record.U64(0x01, node);
        record.Enum(0x02, ship_class, node::kShipClassCount, "ship class");
        if (!record.ok()) return;
        if (node >= topology_.node_count()) {
          record.Fail(InvalidArgument(
              "ship record for node " + std::to_string(node) +
              " outside the " + std::to_string(topology_.node_count()) +
              "-node topology"));
          return;
        }
        if (ship(static_cast<net::NodeId>(node)) != nullptr) {
          record.Fail(InvalidArgument("duplicate ship record for node " +
                                      std::to_string(node)));
          return;
        }
        AddShip(static_cast<net::NodeId>(node), ship_class).Visit(record);
      });
    } else if constexpr (CachingArchive<A>) {
      if (!a.uncached()) RefreshShipDigests();
      for (std::size_t node = 0; node < ships_.size(); ++node) {
        if (!ships_[node]) continue;
        a.Cached(*ships_[node], [&] { return ship_digests_[node]; });
      }
    } else {
      for (const auto& ship : ships_) {
        if (ship) a.Record(0x01, *ship);
      }
    }
  }

  // Where each function lives and the role it fills there.
  template <class A>
  void VisitPlacements(A& a) {
    if constexpr (A::kLoading) placement_roles_.clear();
    a.Each(0x01, placements_, [this](auto& r, auto& function, auto& host) {
      r.U64(0x01, function);
      r.U64(0x02, host);
      node::FirstLevelRole role = node::FirstLevelRole::kCaching;
      if constexpr (!A::kLoading) {
        const auto it = placement_roles_.find(function);
        if (it != placement_roles_.end()) role = it->second;
      }
      r.Enum(0x03, role, node::FirstLevelRole::kRoleCount, "first-level role");
      if constexpr (A::kLoading) placement_roles_[function] = role;
    });
  }

  // The overlay manager, then which overlay serves each function class.
  template <class A>
  void VisitOverlays(A& a) {
    overlays_.Visit(a);
    a.Each(0x04, class_overlays_, [](auto& r, auto& cls, auto& overlay) {
      r.Enum(0x01, cls, node::SecondLevelClass::kClassCount,
             "second-level class");
      r.U32(0x02, overlay);
    });
  }

  template <class A>
  void VisitCounters(A& a) {
    a.U64(0x01, migrations_executed_);
    a.U64(0x02, functions_emerged_);
    a.U64(0x03, pulses_);
    a.U64(0x04, next_function_id_);
  }

  // Memory watermarks: advisory telemetry (see genesis/section_ids.h). A
  // load folds the calendar-queue peak into what the rebuild reached and
  // keeps the fresh pool's peak when the tag is absent.
  template <class A>
  void VisitMemPeaks(A& a) {
    std::uint64_t queue_peak = simulator_.queue_peak_heap_bytes();
    std::uint64_t pool_peak = shuttle_pool_.peak_retained_bytes();
    a.U64(0x01, queue_peak);
    a.U64(0x02, pool_peak);
    if constexpr (A::kLoading) {
      simulator_.RestoreQueuePeakHeapBytes(queue_peak);
      shuttle_pool_.RestorePeakRetainedBytes(pool_peak);
    }
  }

  // Re-hashes the ships listed as changed into ship_digests_.
  void RefreshShipDigests();
  void ExecuteMigrations();
  net::NodeId FirstShipNode() const;

  sim::Simulator& simulator_;
  net::Topology& topology_;
  WnConfig config_;
  Rng rng_;
  sim::StatsRegistry stats_;
  sim::TraceSink trace_;
  telemetry::Telemetry telemetry_;
  telemetry::lat::Lane lat_lane_;
  net::Fabric fabric_;
  // Per-dispatch counters resolved once — Dispatch() is the hottest path in
  // the system and registry name lookups would tax every shuttle hop.
  sim::Counter& shuttles_injected_;
  sim::Counter& excluded_dropped_;
  sim::Counter& router_absorbed_;
  sim::Counter& unroutable_;

  std::vector<std::unique_ptr<Ship>> ships_;  // indexed by NodeId
  std::size_t ship_count_ = 0;
  // The ships section's digest store: one word per node, the ship's
  // TakeDigest(), current except for the ships in changed_ships_ (each
  // listed once). Dense, so a digest reads it in order instead of visiting
  // every Ship object.
  std::vector<Digest> ship_digests_;
  std::vector<net::NodeId> changed_ships_;
  ShuttlePool shuttle_pool_;

  vm::CodeRepository repository_;
  std::map<Digest, net::NodeId> origins_;

  MorphingEngine morphing_;
  FeedbackBus feedback_;
  ReputationSystem reputation_;
  ClusterManager clusters_;
  OverlayManager overlays_;
  DemandTracker demand_;
  FunctionUsageLedger ledger_;
  HorizontalWanderer horizontal_;
  VerticalWanderer vertical_;
  ResonanceDetector resonance_;

  std::map<FunctionId, net::NodeId> placements_;
  std::map<FunctionId, node::FirstLevelRole> placement_roles_;
  std::map<node::SecondLevelClass, OverlayId> class_overlays_;

  NextHopChooser next_hop_chooser_;
  ProbeHandler probe_handler_;
  BoundaryHandler boundary_handler_;

  FunctionId next_function_id_ = 1;
  std::uint64_t migrations_executed_ = 0;
  std::uint64_t functions_emerged_ = 0;
  std::uint64_t pulses_ = 0;
};

}  // namespace viator::wli
