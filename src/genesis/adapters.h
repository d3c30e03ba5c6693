// Snapshotable adapters for subsystems the WanderingNetwork does not own:
// network processes (failure injection, mobility), services (routing,
// caching) and the observability planes (span collector, health plane).
// Register them on a GenesisManager to ride in the extras region of every
// snapshot.
//
// One template serves them all (SnapshotAdapter, genesis/snapshotable.h):
// each target declares its durable state in a Visit field list
// (base/archive.h), which Save() and Load() run.
// Scheduled closures (pending failure repairs, in-flight cache misses,
// probes in flight) cannot cross a snapshot; capture at quiescent points
// where none are outstanding.
#pragma once

#include "genesis/snapshotable.h"
#include "health/probe.h"
#include "net/failure.h"
#include "net/mobility.h"
#include "services/caching.h"
#include "services/routing.h"
#include "telemetry/telemetry.h"

namespace viator::genesis {

/// Failure-process RNG stream + injection counter.
using FailureInjectorAdapter =
    SnapshotAdapter<net::FailureInjector, 0, "failure-injector">;
/// Full kinematic state of a random-waypoint process.
using MobilityAdapter =
    SnapshotAdapter<net::RandomWaypointMobility, 1, "mobility">;
/// Distance-vector routing tables + control-plane counters.
using DvRouterAdapter =
    SnapshotAdapter<services::DistanceVectorRouter, 2, "dv-router">;
/// LRU content cache of a CachingService, bodies included.
using CachingServiceAdapter =
    SnapshotAdapter<services::CachingService, 3, "caching-service">;
/// Wandering Observatory span collector: id RNG stream, id/drop counters and
/// every retained span.
using TelemetryAdapter = SnapshotAdapter<telemetry::Telemetry, 4, "telemetry">;
/// Whole health plane: probe RNG/counters, the pending-probe set, per-ship
/// registry series and the anomaly detector's event log and episodes.
/// Capture with no probes in flight (pending_count() == 0).
using HealthAdapter = SnapshotAdapter<health::ProbePlane, 5, "health">;

}  // namespace viator::genesis
