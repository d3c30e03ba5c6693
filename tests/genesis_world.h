// A seeded world that fills every built-in genesis section and the six
// adapter sections: demand-loaded code (repository, code caches, EEs),
// facts, a deployed and migrated function, pulses and a spawned overlay, an
// SRP audit with a dishonest ship, a docked hardware module, tracing, the
// latency plane, a health probe plane, a content cache, a failure process,
// a mobility process and a distance-vector router. Shared by the golden
// snapshot test and the field-perturbation test.
#pragma once

#include <cstdint>
#include <memory>

#include "core/wanderlib.h"
#include "core/wandering_network.h"
#include "genesis/adapters.h"
#include "genesis/manager.h"
#include "health/probe.h"
#include "net/failure.h"
#include "net/mobility.h"
#include "net/topology.h"
#include "services/audit.h"
#include "services/caching.h"
#include "services/routing.h"
#include "sim/simulator.h"
#include "telemetry/latency_plane.h"

namespace viator::testing {

class GenesisWorld {
 public:
  static constexpr std::uint64_t kSeed = 0x6e6e5e5;
  static constexpr net::NodeId kCacheNode = 12;
  static constexpr net::NodeId kOriginNode = 15;
  static constexpr std::size_t kMobileNodes = 6;

  /// `drive` = true builds the 4x4 grid and runs the workload; false builds
  /// the empty shell a snapshot restores into (the processes exist, the
  /// network has no topology and no ships, the router is not built yet).
  explicit GenesisWorld(bool drive = true) {
    config.telemetry.enable_tracing = true;
    if (drive) topology = net::MakeGrid(4, 4);
    network = std::make_unique<wli::WanderingNetwork>(simulator, topology,
                                                      config, kSeed);
    if (drive) network->PopulateAllNodes();
    injector = std::make_unique<net::FailureInjector>(simulator, topology,
                                                      Rng(kSeed + 1));
    mobility = std::make_unique<net::RandomWaypointMobility>(
        kMobileNodes, net::RandomWaypointMobility::Config{},
        Rng(drive ? kSeed + 2 : 1));
    origin = std::make_unique<services::ContentOrigin>(*network, kOriginNode);
    cache = std::make_unique<services::CachingService>(
        *network, kCacheNode, kOriginNode, /*capacity_objects=*/4);
    health::HealthConfig hconfig;
    hconfig.enable_probes = true;
    hconfig.collector = 0;
    plane = std::make_unique<health::ProbePlane>(*network, hconfig, kSeed);
    if (drive) Drive();
  }

  /// The router sizes its tables from the topology, so a restore shell
  /// builds it only once the topology is back.
  void BuildRouter() {
    router = std::make_unique<services::DistanceVectorRouter>(
        *network, services::DistanceVectorRouter::Config{});
  }

  /// Registers the six adapters on `manager` (the router's only when built).
  void RegisterAdapters(genesis::GenesisManager& manager) {
    failure_adapter =
        std::make_unique<genesis::FailureInjectorAdapter>(*injector);
    mobility_adapter = std::make_unique<genesis::MobilityAdapter>(*mobility);
    cache_adapter = std::make_unique<genesis::CachingServiceAdapter>(*cache);
    telemetry_adapter =
        std::make_unique<genesis::TelemetryAdapter>(network->telemetry());
    health_adapter = std::make_unique<genesis::HealthAdapter>(*plane);
    (void)manager.RegisterExtra(*failure_adapter);
    (void)manager.RegisterExtra(*mobility_adapter);
    (void)manager.RegisterExtra(*cache_adapter);
    (void)manager.RegisterExtra(*telemetry_adapter);
    (void)manager.RegisterExtra(*health_adapter);
    if (router != nullptr) {
      router_adapter = std::make_unique<genesis::DvRouterAdapter>(*router);
      (void)manager.RegisterExtra(*router_adapter);
    }
  }

  sim::Simulator simulator;
  net::Topology topology;
  wli::WnConfig config;
  std::unique_ptr<wli::WanderingNetwork> network;
  std::unique_ptr<net::FailureInjector> injector;
  std::unique_ptr<net::RandomWaypointMobility> mobility;
  std::unique_ptr<services::ContentOrigin> origin;
  std::unique_ptr<services::CachingService> cache;
  std::unique_ptr<health::ProbePlane> plane;
  std::unique_ptr<services::DistanceVectorRouter> router;

  std::unique_ptr<genesis::FailureInjectorAdapter> failure_adapter;
  std::unique_ptr<genesis::MobilityAdapter> mobility_adapter;
  std::unique_ptr<genesis::CachingServiceAdapter> cache_adapter;
  std::unique_ptr<genesis::TelemetryAdapter> telemetry_adapter;
  std::unique_ptr<genesis::HealthAdapter> health_adapter;
  std::unique_ptr<genesis::DvRouterAdapter> router_adapter;

 private:
  void Drive() {
    const bool lat_was_on = telemetry::lat::Enabled();
    telemetry::lat::SetEnabled(true);
    wli::WanderingNetwork& wn = *network;
    const std::size_t n = topology.node_count();
    wn.ship(5)->set_honest(false);

    // Demand-loaded code: a checksum routine published at node 0 fills the
    // repository, every carrier's code cache and EE, and plants facts.
    auto checksum = wli::wanderlib::PayloadChecksum(77);
    const vm::Program& program = *checksum;
    (void)wn.PublishProgram(program, 0);
    for (int i = 0; i < 24; ++i) {
      const auto src = static_cast<net::NodeId>(wn.rng().UniformInt(0, n - 1));
      auto dst = static_cast<net::NodeId>(wn.rng().UniformInt(0, n - 1));
      if (dst == src) dst = static_cast<net::NodeId>((dst + 1) % n);
      wli::Shuttle shuttle = wli::Shuttle::Data(
          src, dst, {i, 7, 11}, static_cast<std::uint64_t>(i) + 1);
      shuttle.trace = wn.telemetry().StartTrace();
      if (i % 2 == 0) shuttle.code_digest = program.digest();
      (void)wn.Inject(std::move(shuttle));
      simulator.RunAll();
      if (i % 8 == 7) {
        wn.Pulse();
        simulator.RunAll();
      }
    }
    wn.ship(2)->facts().Touch(901, -42, 2.5, simulator.now());
    wn.ship(2)->facts().Touch(902, 7, 1.0, simulator.now());

    // A 3G+ ship docks a hardware module carrying its own driver.
    node::Netbot bot;
    bot.module.module_id = 3;
    bot.module.name = "crc-engine";
    bot.module.accelerates = node::SecondLevelClass::kTranscoding;
    bot.module.gate_count = 4000;
    bot.module.speedup = 2.5;
    bot.module.driver_digest = program.digest();
    bot.driver_image = program.Serialize();
    (void)wn.ship(3)->os().DockNetbot(bot);

    // SRP audit rounds catch the dishonest ship.
    services::AuditService audit(wn, Rng(kSeed + 3));
    for (int i = 0; i < 3; ++i) {
      audit.RunRound();
      simulator.RunAll();
    }

    // An explicitly spawned overlay plus pulses over the activity above.
    (void)wn.overlays().Spawn("golden-overlay", {0, 5, 10, 15});
    wn.Pulse();
    simulator.RunAll();

    // A function deployed on one ship, then migrated by code shuttle (after
    // the last pulse, which would expire it).
    wli::NetFunction fn;
    fn.name = "golden-fn";
    fn.role = node::FirstLevelRole::kFusion;
    fn.cls = node::SecondLevelClass::kFiltering;
    fn.program_digest = program.digest();
    fn.fact_keys = {901};
    const wli::FunctionId id = wn.DeployFunction(6, fn);
    (void)wn.MigrateFunction(id, 9);
    simulator.RunAll();

    // Content cache: misses, a hit and an LRU eviction.
    for (std::int64_t content : {41, 42, 41, 43, 44, 45, 46}) {
      (void)wn.Inject(wli::Shuttle::Data(
          0, kCacheNode, {services::kCacheOpGet, content},
          static_cast<std::uint64_t>(content)));
      simulator.RunAll();
    }

    // Health probes wander, deposit and feed the detector.
    for (int i = 0; i < 4; ++i) {
      plane->RunRound();
      simulator.RunAll();
    }
    plane->Evaluate();

    // One link failure that repairs, a few mobility steps, a converged
    // distance-vector router.
    injector->FailLink(0, simulator.now() + sim::kMillisecond,
                       2 * sim::kMillisecond);
    simulator.RunAll();
    mobility->Pin(1);
    for (int i = 0; i < 4; ++i) mobility->Step(0.75);
    BuildRouter();
    for (int i = 0; i < 4; ++i) {
      router->AdvertiseRound();
      simulator.RunAll();
    }
    (void)router->Send(0, 15, {5, 6}, 99);
    simulator.RunAll();

    telemetry::lat::SetEnabled(lat_was_on);
  }
};

}  // namespace viator::testing
