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
// StartCheckpointing() self-schedules a capture cadence on the network's
// simulator and keeps a bounded ring of recent checkpoints, the crash
// recovery story: after a failure, restore the newest checkpoint into a
// fresh network and resume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <vector>

#include "base/status.h"
#include "core/wandering_network.h"
#include "genesis/snapshot.h"
#include "genesis/snapshotable.h"
#include "sim/time.h"

namespace viator::genesis {

struct GenesisConfig {
  /// Checkpoint cadence for StartCheckpointing().
  sim::Duration checkpoint_cadence = 50 * sim::kMillisecond;

  /// Bounded checkpoint ring: oldest snapshots are dropped beyond this.
  std::size_t keep_checkpoints = 4;

  /// Free-form creator tag stamped into every header (e.g. scenario seed).
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

  /// Schedules periodic full captures on the network's simulator, every
  /// checkpoint_cadence until `until` (inclusive). Captures that find the
  /// network non-quiescent are skipped and counted, not errored.
  void StartCheckpointing(sim::TimePoint until);

  /// Most recent checkpoints, oldest first (bounded by keep_checkpoints).
  const std::deque<std::vector<std::byte>>& checkpoints() const {
    return checkpoints_;
  }

  std::uint64_t captures_taken() const { return captures_taken_; }
  std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  std::uint64_t checkpoints_skipped() const { return checkpoints_skipped_; }
  std::uint64_t last_sequence() const { return sequence_; }

 private:
  Result<std::vector<std::byte>> Capture(SnapshotKind kind);
  void CheckpointTick(sim::TimePoint until);

  wli::WanderingNetwork& network_;
  GenesisConfig config_;
  std::vector<Snapshotable*> extras_;

  std::uint64_t sequence_ = 0;
  // Digest per section at the last full capture; deltas diff against these.
  std::map<std::uint32_t, std::uint64_t> full_digests_;
  std::uint64_t full_sequence_ = 0;
  bool have_full_ = false;

  std::deque<std::vector<std::byte>> checkpoints_;
  std::uint64_t captures_taken_ = 0;
  std::uint64_t checkpoints_taken_ = 0;
  std::uint64_t checkpoints_skipped_ = 0;
};

}  // namespace viator::genesis
