// Section ids of the genesis snapshot container: the built-in sections,
// one per subsystem, and the base of the extras range. A leaf header (no
// dependencies) so that core's section table (WanderingNetwork::
// ForEachSection) and the container code share one numbering.
#pragma once

#include <cstdint>

namespace viator::genesis {

/// Well-known section identifiers. Extra sections registered through
/// GenesisManager::RegisterExtra live at kExtraSectionBase and above.
enum SectionId : std::uint32_t {
  kSectionClock = 1,
  kSectionNetworkRng,
  kSectionStats,
  kSectionTrace,
  kSectionTopology,
  kSectionFabric,
  kSectionRepository,
  kSectionShips,
  kSectionPlacements,
  kSectionLedger,
  kSectionReputation,
  kSectionClusters,
  kSectionDemand,
  kSectionOverlays,
  kSectionMorphing,
  kSectionFeedback,
  kSectionNetworkCounters,
  /// Memory watermarks (pool / queue peak bytes). Advisory telemetry: the
  /// peaks round-trip a restore so a resumed world remembers its high-water
  /// marks, but they are not decision state — pools restore empty by
  /// design, so a resumed run's subsequent watermarks may lawfully diverge
  /// from the uninterrupted run's (see GenesisResume tests).
  kSectionMemPeaks,
  /// Latency Observatory sketches (telemetry/latency_plane.h): the exact
  /// bucket arrays + integer totals of every per-(stage, class) quantile
  /// sketch plus the current window's delivery sketch. Advisory telemetry
  /// like the peaks above — never decision state — but integer-exact, so a
  /// capture → restore → capture cycle reproduces the section bit for bit.
  /// Open-flight side entries are transient and deliberately not captured
  /// (snapshots are quiescent; nothing is in flight).
  kSectionLatency,
  kExtraSectionBase = 0x1000,
};

}  // namespace viator::genesis
