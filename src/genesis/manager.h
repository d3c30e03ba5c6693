// GenesisManager: captures and restores whole-network snapshots.
//
// A manager is bound to one WanderingNetwork. CaptureFull() serializes every
// subsystem into one container; CaptureDelta() re-serializes everything but
// emits only the sections whose content digest changed since the last full
// capture (deltas are cumulative against that full, so any single delta can
// be merged onto its base). RestoreFull() validates the whole container
// first — corrupt input never touches network state — then applies sections
// in dependency order into a *fresh* network (empty topology, no ships,
// idle simulator).
//
// Crash recovery: capture at a quiescent point, and after a failure restore
// that snapshot into a fresh network and resume.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "base/status.h"
#include "core/wandering_network.h"
#include "genesis/snapshot.h"
#include "genesis/snapshotable.h"

namespace viator::genesis {

struct GenesisConfig {
  /// Creator tag stamped into every header: the scenario seed, or in a
  /// sharded checkpoint the shard's index, which its restore checks.
  std::uint64_t scenario_tag = 0;
};

class GenesisManager {
 public:
  explicit GenesisManager(wli::WanderingNetwork& network,
                          GenesisConfig config = {});

  /// Adds an external subsystem (service, failure/mobility process) to every
  /// subsequent capture. Fails on ids below kExtraSectionBase or duplicates.
  /// The object must outlive the manager; restores apply to it in place.
  Status RegisterExtra(Snapshotable& extra);

  /// True when nothing non-serializable is in flight.
  bool IsQuiescent() const;

  Result<std::vector<std::byte>> CaptureFull();

  /// Sections unchanged since the last CaptureFull() are omitted. Requires a
  /// prior full capture.
  Result<std::vector<std::byte>> CaptureDelta();

  /// Validates `bytes` end to end, then applies every section. The bound
  /// network must be freshly constructed: empty topology, zero ships, idle
  /// simulator. After a successful restore the manager can produce deltas
  /// against the restored snapshot.
  Status RestoreFull(std::span<const std::byte> bytes);

  /// The apply half of RestoreFull: applies a full snapshot ParseSnapshot
  /// already validated, so a caller can verify several snapshots before it
  /// applies any. Same preconditions as RestoreFull.
  Status Restore(const ParsedSnapshot& snapshot);

 private:
  Result<std::vector<std::byte>> Capture(SnapshotKind kind);

  wli::WanderingNetwork& network_;
  GenesisConfig config_;
  std::vector<Snapshotable*> extras_;

  std::uint64_t sequence_ = 0;
  // Digest per section at the last full capture; deltas diff against these.
  std::map<std::uint32_t, std::uint64_t> full_digests_;
  std::uint64_t full_sequence_ = 0;
  bool have_full_ = false;
};

}  // namespace viator::genesis
