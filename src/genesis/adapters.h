// Snapshotable adapters for subsystems the WanderingNetwork does not own:
// network processes (failure injection, mobility) and services (routing,
// caching). Register them on a GenesisManager to ride in the extras region
// of every snapshot.
//
// Each adapter serializes durable state only. Scheduled closures (pending
// failure repairs, in-flight cache misses) cannot cross a snapshot; capture
// at quiescent points where none are outstanding.
#pragma once

#include <cstdint>

#include "genesis/snapshot.h"
#include "genesis/snapshotable.h"
#include "health/probe.h"
#include "net/failure.h"
#include "net/mobility.h"
#include "services/caching.h"
#include "services/routing.h"
#include "telemetry/telemetry.h"

namespace viator::genesis {

/// Failure-process RNG stream + injection counter.
class FailureInjectorAdapter : public Snapshotable {
 public:
  explicit FailureInjectorAdapter(net::FailureInjector& injector,
                                  std::uint32_t id = kExtraSectionBase + 0)
      : injector_(injector), id_(id) {}

  std::uint32_t section_id() const override { return id_; }
  std::string section_name() const override { return "failure-injector"; }
  std::vector<std::byte> Save() const override;
  Status Load(std::span<const std::byte> payload) override;

 private:
  net::FailureInjector& injector_;
  std::uint32_t id_;
};

/// Full kinematic state of a random-waypoint process.
class MobilityAdapter : public Snapshotable {
 public:
  explicit MobilityAdapter(net::RandomWaypointMobility& mobility,
                           std::uint32_t id = kExtraSectionBase + 1)
      : mobility_(mobility), id_(id) {}

  std::uint32_t section_id() const override { return id_; }
  std::string section_name() const override { return "mobility"; }
  std::vector<std::byte> Save() const override;
  Status Load(std::span<const std::byte> payload) override;

 private:
  net::RandomWaypointMobility& mobility_;
  std::uint32_t id_;
};

/// Distance-vector routing tables + control-plane counters.
class DvRouterAdapter : public Snapshotable {
 public:
  explicit DvRouterAdapter(services::DistanceVectorRouter& router,
                           std::uint32_t id = kExtraSectionBase + 2)
      : router_(router), id_(id) {}

  std::uint32_t section_id() const override { return id_; }
  std::string section_name() const override { return "dv-router"; }
  std::vector<std::byte> Save() const override;
  Status Load(std::span<const std::byte> payload) override;

 private:
  services::DistanceVectorRouter& router_;
  std::uint32_t id_;
};

/// LRU content cache of a CachingService, bodies included.
class CachingServiceAdapter : public Snapshotable {
 public:
  explicit CachingServiceAdapter(services::CachingService& cache,
                                 std::uint32_t id = kExtraSectionBase + 3)
      : cache_(cache), id_(id) {}

  std::uint32_t section_id() const override { return id_; }
  std::string section_name() const override { return "caching-service"; }
  std::vector<std::byte> Save() const override;
  Status Load(std::span<const std::byte> payload) override;

 private:
  services::CachingService& cache_;
  std::uint32_t id_;
};

/// Wandering Observatory span collector: id RNG stream, id/drop counters and
/// every retained span. Plane measurements (cycles, bytes, latency) are
/// intentionally excluded (host measurements, not simulated state), so
/// traced runs snapshot bit-identically whether or not a plane was on.
class TelemetryAdapter : public Snapshotable {
 public:
  explicit TelemetryAdapter(telemetry::Telemetry& telemetry,
                            std::uint32_t id = kExtraSectionBase + 4)
      : telemetry_(telemetry), id_(id) {}

  std::uint32_t section_id() const override { return id_; }
  std::string section_name() const override { return "telemetry"; }
  std::vector<std::byte> Save() const override;
  Status Load(std::span<const std::byte> payload) override;

 private:
  telemetry::Telemetry& telemetry_;
  std::uint32_t id_;
};

/// Whole health plane: probe RNG/counters, the pending-probe set, per-ship
/// registry series (EWMAs + histogram sketches) and the anomaly detector's
/// event log and episode flags. Capture at quiescent points with no probes
/// in flight (pending_count() == 0), like parked shuttles.
class HealthAdapter : public Snapshotable {
 public:
  explicit HealthAdapter(health::ProbePlane& plane,
                         std::uint32_t id = kExtraSectionBase + 5)
      : plane_(plane), id_(id) {}

  std::uint32_t section_id() const override { return id_; }
  std::string section_name() const override { return "health"; }
  std::vector<std::byte> Save() const override;
  Status Load(std::span<const std::byte> payload) override;

 private:
  health::ProbePlane& plane_;
  std::uint32_t id_;
};

}  // namespace viator::genesis
