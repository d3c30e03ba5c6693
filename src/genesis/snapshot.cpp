#include "genesis/snapshot.h"

#include <map>
#include <optional>
#include <sstream>

#include "base/strings.h"

namespace viator::genesis {
namespace {

// Container tags. Each section is an id, a version, its sealed payload and
// the payload's digest, in that order (the digest is read off the payload's
// trailer once the payload is written); the section count follows the last
// section.
constexpr TlvTag kTagMagic = 0x01;
constexpr TlvTag kTagFormatVersion = 0x02;
constexpr TlvTag kTagKind = 0x03;
constexpr TlvTag kTagSequence = 0x04;
constexpr TlvTag kTagBaseSequence = 0x05;
constexpr TlvTag kTagSnapTime = 0x06;
constexpr TlvTag kTagScenarioTag = 0x07;
constexpr TlvTag kTagSectionCount = 0x08;
constexpr TlvTag kTagSectionId = 0x10;
constexpr TlvTag kTagSectionVersion = 0x11;
constexpr TlvTag kTagSectionPayload = 0x12;  // sealed
constexpr TlvTag kTagSectionDigest = 0x13;

// Width of each scalar record; a record of another width is refused rather
// than read as 0. Zero for records that are not scalars.
std::size_t ScalarWidth(TlvTag tag) {
  switch (tag) {
    case kTagFormatVersion:
    case kTagKind:
    case kTagSectionCount:
    case kTagSectionId:
    case kTagSectionVersion:
      return 4;
    case kTagMagic:
    case kTagSequence:
    case kTagBaseSequence:
    case kTagSnapTime:
    case kTagScenarioTag:
    case kTagSectionDigest:
      return 8;
    default:
      return 0;
  }
}

Status UnsupportedVersion(std::uint32_t version) {
  return InvalidArgument("unsupported snapshot format version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kFormatVersion) + ")");
}

// The format version decides how the checksums are laid out, so it is read
// before they are checked: a container of another version is refused by its
// version, not by a checksum it was never meant to pass. Framing errors are
// left to the verify that follows.
Status CheckFormatVersion(std::span<const std::byte> bytes) {
  TlvReader reader(bytes);
  while (reader.HasNext()) {
    const Result<TlvRecord> rec = reader.Next();
    if (!rec.ok()) return OkStatus();
    if (rec->tag != kTagFormatVersion) continue;
    if (Status width = rec->CheckWidth(4); !width.ok()) return width;
    const std::uint32_t version = rec->AsU32();
    return version == kFormatVersion ? OkStatus() : UnsupportedVersion(version);
  }
  return OkStatus();
}

// Verifies one section's payload: its own trailer (the one pass over its
// bytes), then the declared digest, read off that trailer.
Result<SectionPayload> CheckPayload(const SectionRecord& section,
                                    std::span<const std::byte> payload) {
  Result<VerifiedTlv> stream = TlvReader(payload).Verified();
  if (!stream.ok()) {
    return Status(InvalidArgument("snapshot section '" +
                                  SectionName(section.id) + "' payload: " +
                                  std::string(stream.status().message())));
  }
  if (TlvStreamDigest(payload) != section.digest) {
    return Status(InvalidArgument("snapshot section '" +
                                  SectionName(section.id) +
                                  "' digest mismatch (payload corrupted)"));
  }
  return SectionPayload(*stream);
}

}  // namespace

std::string SectionName(std::uint32_t id) {
  switch (id) {
    case kSectionClock: return "clock";
    case kSectionNetworkRng: return "network-rng";
    case kSectionStats: return "stats";
    case kSectionTrace: return "trace";
    case kSectionTopology: return "topology";
    case kSectionFabric: return "fabric";
    case kSectionRepository: return "repository";
    case kSectionShips: return "ships";
    case kSectionPlacements: return "placements";
    case kSectionLedger: return "ledger";
    case kSectionReputation: return "reputation";
    case kSectionClusters: return "clusters";
    case kSectionDemand: return "demand";
    case kSectionOverlays: return "overlays";
    case kSectionMorphing: return "morphing";
    case kSectionFeedback: return "feedback";
    case kSectionNetworkCounters: return "network-counters";
    case kSectionMemPeaks: return "mem-peaks";
    case kSectionLatency: return "latency";
    default:
      if (id >= kExtraSectionBase) {
        return "extra:" + std::to_string(id);
      }
      return "unknown:" + std::to_string(id);
  }
}

SnapshotBuilder::SnapshotBuilder(const SnapshotHeader& header) {
  writer_.PutU64(kTagMagic, kSnapshotMagic);
  writer_.PutU32(kTagFormatVersion, header.format_version);
  writer_.PutU32(kTagKind, static_cast<std::uint32_t>(header.kind));
  writer_.PutU64(kTagSequence, header.sequence);
  writer_.PutU64(kTagBaseSequence, header.base_sequence);
  writer_.PutU64(kTagSnapTime, header.snap_time);
  writer_.PutU64(kTagScenarioTag, header.scenario_tag);
}

void SnapshotBuilder::AddSection(std::uint32_t id,
                                 std::span<const std::byte> payload,
                                 std::uint32_t version) {
  PutHeader(id, version);
  writer_.PutSealed(kTagSectionPayload, payload);
  PutDigest(payload);
}

void SnapshotBuilder::DropLastSection() {
  writer_.Truncate(last_section_);
  --sections_;
  mem_bytes_.Set(writer_.size());
}

void SnapshotBuilder::PutHeader(std::uint32_t id, std::uint32_t version) {
  last_section_ = writer_.size();
  writer_.PutU32(kTagSectionId, id);
  writer_.PutU32(kTagSectionVersion, version);
}

std::size_t SnapshotBuilder::BeginSection(std::uint32_t id,
                                          std::uint32_t version) {
  PutHeader(id, version);
  return writer_.BeginSealed(kTagSectionPayload);
}

std::uint64_t SnapshotBuilder::PutDigest(std::span<const std::byte> payload) {
  const std::uint64_t digest = TlvStreamDigest(payload);
  writer_.PutU64(kTagSectionDigest, digest);
  ++sections_;
  mem_bytes_.Set(writer_.size());
  return digest;
}

std::vector<std::byte> SnapshotBuilder::Finish() {
  writer_.PutU32(kTagSectionCount, sections_);
  return writer_.Finish();
}

const SectionRecord* ParsedSnapshot::Find(std::uint32_t id) const {
  for (const SectionRecord& section : sections) {
    if (section.id == id) return &section;
  }
  return nullptr;
}

Result<ParsedSnapshot> ParseSnapshot(std::span<const std::byte> bytes) {
  if (Status s = CheckFormatVersion(bytes); !s.ok()) return s;
  TlvReader reader(bytes);
  if (Status s = reader.Verify(kTagSectionPayload); !s.ok()) return s;

  ParsedSnapshot snapshot;
  bool have_magic = false, have_version = false, have_count = false;
  std::uint32_t declared_count = 0;
  // The section being read: its id opens it, its digest closes it.
  std::optional<SectionRecord> open;
  std::span<const std::byte> payload;
  bool have_payload = false;
  const Status incomplete =
      InvalidArgument("snapshot section missing id/digest/payload");
  while (reader.HasNext()) {
    auto rec = reader.Next();
    if (!rec.ok()) return rec.status();
    if (const std::size_t width = ScalarWidth(rec->tag); width != 0) {
      if (Status s = rec->CheckWidth(width); !s.ok()) return s;
    }
    switch (rec->tag) {
      case kTagMagic:
        if (rec->AsU64() != kSnapshotMagic) {
          return Status(InvalidArgument("not a genesis snapshot (bad magic)"));
        }
        have_magic = true;
        break;
      case kTagFormatVersion:
        snapshot.header.format_version = rec->AsU32();
        have_version = true;
        break;
      case kTagKind: {
        const std::uint32_t kind = rec->AsU32();
        if (kind > static_cast<std::uint32_t>(SnapshotKind::kDelta)) {
          return Status(InvalidArgument("unknown snapshot kind"));
        }
        snapshot.header.kind = static_cast<SnapshotKind>(kind);
        break;
      }
      case kTagSequence: snapshot.header.sequence = rec->AsU64(); break;
      case kTagBaseSequence:
        snapshot.header.base_sequence = rec->AsU64();
        break;
      case kTagSnapTime: snapshot.header.snap_time = rec->AsU64(); break;
      case kTagScenarioTag:
        snapshot.header.scenario_tag = rec->AsU64();
        break;
      case kTagSectionCount:
        declared_count = rec->AsU32();
        have_count = true;
        break;
      case kTagSectionId:
        if (open) return incomplete;
        open.emplace().id = rec->AsU32();
        have_payload = false;
        break;
      case kTagSectionVersion:
        if (!open) return incomplete;
        open->version = rec->AsU32();
        break;
      case kTagSectionPayload:
        if (!open || have_payload) return incomplete;
        payload = rec->payload;
        have_payload = true;
        break;
      case kTagSectionDigest: {
        if (!open || !have_payload) return incomplete;
        open->digest = rec->AsU64();
        Result<SectionPayload> checked = CheckPayload(*open, payload);
        if (!checked.ok()) return checked.status();
        open->payload = *checked;
        if (snapshot.Find(open->id) != nullptr) {
          return Status(InvalidArgument("duplicate snapshot section '" +
                                        SectionName(open->id) + "'"));
        }
        snapshot.sections.push_back(*open);
        open.reset();
        break;
      }
      default:
        break;  // forward-compatible skip
    }
  }
  if (open) return incomplete;
  if (!have_magic) {
    return Status(InvalidArgument("not a genesis snapshot (no magic record)"));
  }
  if (!have_version ||
      snapshot.header.format_version != kFormatVersion) {
    return UnsupportedVersion(snapshot.header.format_version);
  }
  if (!have_count || declared_count != snapshot.sections.size()) {
    return Status(InvalidArgument("snapshot section count mismatch"));
  }
  return snapshot;
}

Status VerifySnapshot(std::span<const std::byte> bytes) {
  return ParseSnapshot(bytes).status();
}

Result<std::vector<std::byte>> MergeDelta(std::span<const std::byte> base,
                                          std::span<const std::byte> delta) {
  auto base_snap = ParseSnapshot(base);
  if (!base_snap.ok()) return base_snap.status();
  auto delta_snap = ParseSnapshot(delta);
  if (!delta_snap.ok()) return delta_snap.status();
  if (base_snap->header.kind != SnapshotKind::kFull) {
    return Status(FailedPrecondition("merge base is not a full snapshot"));
  }
  if (delta_snap->header.kind != SnapshotKind::kDelta) {
    return Status(FailedPrecondition("merge delta is not a delta snapshot"));
  }
  if (delta_snap->header.base_sequence != base_snap->header.sequence) {
    return Status(FailedPrecondition(
        "delta bases on sequence " +
        std::to_string(delta_snap->header.base_sequence) +
        " but the given full snapshot is sequence " +
        std::to_string(base_snap->header.sequence)));
  }

  SnapshotHeader merged = delta_snap->header;
  merged.kind = SnapshotKind::kFull;
  merged.base_sequence = 0;
  SnapshotBuilder builder(merged);
  for (const SectionRecord& section : base_snap->sections) {
    const SectionRecord* replacement = delta_snap->Find(section.id);
    const SectionRecord& chosen = replacement ? *replacement : section;
    builder.AddSection(chosen.id, chosen.payload, chosen.version);
  }
  for (const SectionRecord& section : delta_snap->sections) {
    if (base_snap->Find(section.id) == nullptr) {
      builder.AddSection(section.id, section.payload, section.version);
    }
  }
  return builder.Finish();
}

Result<std::string> InspectSnapshot(std::span<const std::byte> bytes) {
  auto snapshot = ParseSnapshot(bytes);
  if (!snapshot.ok()) return snapshot.status();

  std::ostringstream out;
  const SnapshotHeader& h = snapshot->header;
  out << "genesis snapshot: "
      << (h.kind == SnapshotKind::kFull ? "full" : "delta")
      << " v" << h.format_version << " seq " << h.sequence;
  if (h.kind == SnapshotKind::kDelta) {
    out << " (base seq " << h.base_sequence << ")";
  }
  out << "\n  snap time: " << FormatNanos(h.snap_time)
      << "\n  scenario tag: " << h.scenario_tag
      << "\n  total size: " << FormatBytes(bytes.size())
      << "\n  sections: " << snapshot->sections.size() << "\n";

  TablePrinter table({"section", "id", "ver", "bytes", "digest"});
  for (const SectionRecord& section : snapshot->sections) {
    table.AddRow({SectionName(section.id), std::to_string(section.id),
                  std::to_string(section.version),
                  std::to_string(section.payload.size()),
                  DigestToHex(section.digest)});
  }
  out << table.ToString();
  return out.str();
}

Result<std::string> DiffSnapshots(std::span<const std::byte> a,
                                  std::span<const std::byte> b) {
  auto snap_a = ParseSnapshot(a);
  if (!snap_a.ok()) return snap_a.status();
  auto snap_b = ParseSnapshot(b);
  if (!snap_b.ok()) return snap_b.status();

  std::map<std::uint32_t, const SectionRecord*> in_a, in_b;
  for (const SectionRecord& s : snap_a->sections) in_a[s.id] = &s;
  for (const SectionRecord& s : snap_b->sections) in_b[s.id] = &s;

  std::ostringstream out;
  TablePrinter table({"section", "state", "bytes a", "bytes b"});
  std::size_t changed = 0;
  for (const auto& [id, sec_a] : in_a) {
    const auto it = in_b.find(id);
    if (it == in_b.end()) {
      table.AddRow({SectionName(id), "removed",
                    std::to_string(sec_a->payload.size()), "-"});
      ++changed;
    } else if (it->second->digest != sec_a->digest) {
      table.AddRow({SectionName(id), "changed",
                    std::to_string(sec_a->payload.size()),
                    std::to_string(it->second->payload.size())});
      ++changed;
    }
  }
  for (const auto& [id, sec_b] : in_b) {
    if (in_a.find(id) == in_a.end()) {
      table.AddRow({SectionName(id), "added", "-",
                    std::to_string(sec_b->payload.size())});
      ++changed;
    }
  }
  out << changed << " section(s) differ (" << in_a.size() << " in a, "
      << in_b.size() << " in b)\n";
  if (changed > 0) out << table.ToString();
  return out.str();
}

}  // namespace viator::genesis
