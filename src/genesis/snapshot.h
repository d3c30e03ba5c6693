// Network Genesis snapshot container.
//
// The paper's Node Genesis serializes one ship as a genome; Network Genesis
// lifts the same genetic transcoding to the whole Wandering Network: a
// versioned, checksummed TLV container holding one section per subsystem
// (clock, RNG streams, topology, fabric, ships, engines, ledger, overlays,
// stats, trace, ...). Full snapshots carry every section; delta snapshots
// carry only the sections whose content digest changed since the base full
// snapshot. The container is one field list (base/archive.h): the header,
// one group per section (its id, version, payload and the payload's
// digest), then the section count. Every section payload is a finished TLV
// stream in a Sealed field: its own trailer covers its bytes, and the
// container's trailer covers the framing, the section digests and each
// payload's checksum word. A parse hashes each byte once, and corruption
// anywhere is detected before any state is touched.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/archive.h"
#include "base/hash.h"
#include "base/status.h"
#include "base/tlv.h"
#include "genesis/section_ids.h"
#include "sim/time.h"
#include "telemetry/mem_counters.h"

namespace viator::genesis {

/// "VGENES01" as a little-endian u64 — the first record of every snapshot.
inline constexpr std::uint64_t kSnapshotMagic = 0x31305345'4E454756ULL;

/// Bumped on incompatible container changes; mismatches are rejected.
/// Version 2 embeds section payloads as sealed records.
inline constexpr std::uint32_t kFormatVersion = 2;

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

/// A section payload as ParseSnapshot hands it out: a view into the parsed
/// bytes, valid while they are, whose checksum trailer the parse checked.
/// It reads like the byte vector it views: it converts to a span, compares
/// with any byte range, and copies out to a vector for a caller that keeps
/// it past the bytes.
class SectionPayload {
 public:
  SectionPayload() = default;
  explicit SectionPayload(VerifiedTlv stream) : stream_(stream) {}

  /// The checked stream: what built-in sections load from unhashed.
  const VerifiedTlv& stream() const { return stream_; }
  std::span<const std::byte> bytes() const { return stream_.bytes(); }
  std::size_t size() const { return bytes().size(); }

  operator std::span<const std::byte>() const { return bytes(); }  // NOLINT
  operator std::vector<std::byte>() const {  // NOLINT: a copy, on request
    return {bytes().begin(), bytes().end()};
  }
  friend bool operator==(const SectionPayload& a,
                         std::span<const std::byte> b) {
    return std::ranges::equal(a.bytes(), b);
  }

 private:
  VerifiedTlv stream_;
};

struct SectionRecord {
  std::uint32_t id = 0;
  std::uint32_t version = 1;
  std::uint64_t digest = 0;  // FNV-1a over payload
  SectionPayload payload;
};

/// Writes a snapshot byte stream. Sections keep insertion order; each is
/// written into the container as it is added, so the builder holds the
/// container and no payload.
class SnapshotBuilder {
 public:
  explicit SnapshotBuilder(const SnapshotHeader& header);

  /// Adds a section: a finished TLV stream, whose digest is read off its
  /// trailer (TlvStreamDigest).
  void AddSection(std::uint32_t id, std::span<const std::byte> payload,
                  std::uint32_t version = 1);

  /// Adds a section whose payload `save(archive)` writes straight into the
  /// container, through a SaveArchive; returns the payload's digest.
  std::uint64_t SaveSection(std::uint32_t id,
                            const std::function<void(SaveArchive&)>& save,
                            std::uint32_t version = 1);

  /// Takes back the section added last (a delta's unchanged one).
  void DropLastSection();

  /// The container; the builder is spent afterwards.
  std::vector<std::byte> Finish();

 private:
  // Writes one section group: `payload` is the finished stream or the
  // in-place save. Returns the payload's digest.
  template <class Payload>
  std::uint64_t PutSection(std::uint32_t id, std::uint32_t version,
                           Payload&& payload);

  TlvWriter writer_;
  std::uint32_t sections_ = 0;
  std::size_t last_section_ = 0;  // where the section added last starts
  // The container bytes written so far, attributed to the kGenesisBuffer
  // domain while the builder holds them.
  telemetry::mem::ChargedBytes<telemetry::mem::Domain::kGenesisBuffer>
      mem_bytes_;
};

/// A parsed snapshot. Its payloads are views into the bytes it was parsed
/// from: keep those alive (and unchanged) while the parse is used.
struct ParsedSnapshot {
  SnapshotHeader header;
  std::vector<SectionRecord> sections;

  const SectionRecord* Find(std::uint32_t id) const;
};

/// Strict parse: validates the format version, the codec checksums (the
/// container's and each payload's, one hash per byte), the magic, the kind,
/// scalar widths, each section group, the section count, per-section
/// digests and duplicate ids.
/// Corrupt, truncated or version-mismatched input yields a Status error —
/// never a partially-parsed result. Payloads are views into `bytes`.
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
