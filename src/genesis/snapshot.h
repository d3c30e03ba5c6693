// Network Genesis snapshot container.
//
// The paper's Node Genesis serializes one ship as a genome; Network Genesis
// lifts the same genetic transcoding to the whole Wandering Network: a
// versioned, checksummed TLV container holding one section per subsystem
// (clock, RNG streams, topology, fabric, ships, engines, ledger, overlays,
// stats, trace, ...). Full snapshots carry every section; delta snapshots
// carry only the sections whose content digest changed since the base full
// snapshot. Every section carries its own FNV-1a digest and the outer TLV
// stream carries the codec checksum trailer, so corruption anywhere is
// detected before any state is touched.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "genesis/section_ids.h"
#include "sim/time.h"
#include "telemetry/mem_counters.h"

namespace viator::genesis {

/// "VGENES01" as a little-endian u64 — the first record of every snapshot.
inline constexpr std::uint64_t kSnapshotMagic = 0x31305345'4E454756ULL;

/// Bumped on incompatible container changes; mismatches are rejected.
inline constexpr std::uint32_t kFormatVersion = 1;

enum class SnapshotKind : std::uint32_t { kFull = 0, kDelta = 1 };

/// Human name for a section id ("clock", "ships", "extra:4097", ...).
std::string SectionName(std::uint32_t id);

struct SnapshotHeader {
  std::uint32_t format_version = kFormatVersion;
  SnapshotKind kind = SnapshotKind::kFull;
  std::uint64_t sequence = 0;       // capture counter of the producing manager
  std::uint64_t base_sequence = 0;  // deltas: sequence of the base full
  sim::TimePoint snap_time = 0;     // virtual clock at capture
  std::uint64_t scenario_tag = 0;   // free-form creator tag (e.g. the seed)
};

struct SectionRecord {
  std::uint32_t id = 0;
  std::uint32_t version = 1;
  std::uint64_t digest = 0;  // FNV-1a over payload
  std::vector<std::byte> payload;
};

/// Assembles a snapshot byte stream. Sections keep insertion order.
class SnapshotBuilder {
 public:
  explicit SnapshotBuilder(const SnapshotHeader& header) : header_(header) {}

  /// Adds a section; the digest is computed over `payload`.
  void AddSection(std::uint32_t id, std::vector<std::byte> payload,
                  std::uint32_t version = 1);

  std::vector<std::byte> Finish() const;

 private:
  SnapshotHeader header_;
  std::vector<SectionRecord> sections_;
  // Accumulated section payload bytes, attributed to the kGenesisBuffer
  // domain while the builder holds them (released when the builder dies).
  telemetry::mem::ChargedBytes<telemetry::mem::Domain::kGenesisBuffer>
      mem_bytes_;
};

struct ParsedSnapshot {
  SnapshotHeader header;
  std::vector<SectionRecord> sections;

  const SectionRecord* Find(std::uint32_t id) const;
};

/// Strict parse: validates the codec checksum, the magic, the format
/// version, the section count, per-section digests and duplicate ids.
/// Corrupt, truncated or version-mismatched input yields a Status error —
/// never a partially-parsed result.
Result<ParsedSnapshot> ParseSnapshot(std::span<const std::byte> bytes);

/// Parse-and-discard validation (the wngen `verify` command).
Status VerifySnapshot(std::span<const std::byte> bytes);

/// Applies a delta to its base full snapshot, yielding a new full snapshot:
/// sections present in the delta replace (or extend) the base's. Fails when
/// the delta's base_sequence does not match the base's sequence.
Result<std::vector<std::byte>> MergeDelta(std::span<const std::byte> base,
                                          std::span<const std::byte> delta);

/// Human-readable header + section table (the wngen `inspect` command).
Result<std::string> InspectSnapshot(std::span<const std::byte> bytes);

/// Section-level comparison of two snapshots (the wngen `diff` command):
/// lists sections that changed, appeared or disappeared between `a` and `b`.
Result<std::string> DiffSnapshots(std::span<const std::byte> a,
                                  std::span<const std::byte> b);

}  // namespace viator::genesis
