#include "genesis/snapshot.h"

#include <map>
#include <sstream>

#include "base/strings.h"

namespace viator::genesis {
namespace {

// Container tags, in the order the field list below reads them.
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

constexpr auto kKindCount = static_cast<SnapshotKind>(2);

/// One section as the container frames it. A load leaves the payload
/// unverified, for ParseSnapshot to check.
struct Section {
  std::uint32_t id = 0;
  std::uint32_t version = 1;
  std::span<const std::byte> payload;
  std::uint64_t digest = 0;
};

// The container's field list: the header, one group per section, then the
// section count. ParseSnapshot loads it whole; SnapshotBuilder saves it in
// parts as it streams. A load starts each required field at a value its
// check refuses, so an absent one is refused too.
struct Container {
  Container() { header.format_version = 0; }

  std::uint64_t magic = 0;
  SnapshotHeader header;
  std::vector<Section> sections;
  std::uint32_t count = ~0u;

  template <class A>
  void Visit(A& a) {
    Header(a);
    a.Flat(kTagSectionId, sections, [](auto& group, Section& section) {
      Group(group, section, section.payload);
    });
    a.U32(kTagSectionCount, count);
  }

  template <class A>
  void Header(A& a) {
    a.U64(kTagMagic, magic);
    a.U32(kTagFormatVersion, header.format_version);
    a.Enum(kTagKind, header.kind, kKindCount, "snapshot kind");
    a.U64(kTagSequence, header.sequence);
    a.U64(kTagBaseSequence, header.base_sequence);
    a.U64(kTagSnapTime, header.snap_time);
    a.U64(kTagScenarioTag, header.scenario_tag);
  }

  // One section: its id and version, its payload (what `payload` saves, or
  // where a load puts it), then exactly one digest record, which a save
  // reads off the payload's trailer.
  template <class A, class Payload>
  static void Group(A& a, Section& section, Payload&& payload) {
    a.U32(kTagSectionId, section.id);
    a.U32(kTagSectionVersion, section.version);
    const std::span<const std::byte> body =
        a.Sealed(kTagSectionPayload, payload);
    if constexpr (!A::kLoading) section.digest = TlvStreamDigest(body);
    a.Words(kTagSectionDigest, std::span(&section.digest, 1));
  }
};

Status UnsupportedVersion(std::uint32_t version) {
  return InvalidArgument("unsupported snapshot format version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kFormatVersion) + ")");
}

// Verifies one section's payload: its own trailer (the one pass over its
// bytes), then the declared digest, read off that trailer.
Result<SectionPayload> CheckPayload(const Section& section) {
  Result<VerifiedTlv> stream = VerifiedTlv::Check(section.payload);
  if (!stream.ok()) {
    return Status(InvalidArgument("snapshot section '" +
                                  SectionName(section.id) + "' payload: " +
                                  std::string(stream.status().message())));
  }
  if (TlvStreamDigest(section.payload) != section.digest) {
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
  Container container;
  container.magic = kSnapshotMagic;
  container.header = header;
  SaveArchive archive(writer_);
  container.Header(archive);
}

template <class Payload>
std::uint64_t SnapshotBuilder::PutSection(std::uint32_t id,
                                          std::uint32_t version,
                                          Payload&& payload) {
  last_section_ = writer_.size();
  Section section;
  section.id = id;
  section.version = version;
  SaveArchive archive(writer_);
  Container::Group(archive, section, payload);
  ++sections_;
  mem_bytes_.Set(writer_.size());
  return section.digest;
}

void SnapshotBuilder::AddSection(std::uint32_t id,
                                 std::span<const std::byte> payload,
                                 std::uint32_t version) {
  PutSection(id, version, payload);
}

std::uint64_t SnapshotBuilder::SaveSection(
    std::uint32_t id, const std::function<void(SaveArchive&)>& save,
    std::uint32_t version) {
  return PutSection(id, version, save);
}

void SnapshotBuilder::DropLastSection() {
  writer_.Truncate(last_section_);
  --sections_;
  mem_bytes_.Set(writer_.size());
}

std::vector<std::byte> SnapshotBuilder::Finish() {
  SaveArchive archive(writer_);
  archive.U32(kTagSectionCount, sections_);
  return writer_.Finish();
}

const SectionRecord* ParsedSnapshot::Find(std::uint32_t id) const {
  for (const SectionRecord& section : sections) {
    if (section.id == id) return &section;
  }
  return nullptr;
}

Result<ParsedSnapshot> ParseSnapshot(std::span<const std::byte> bytes) {
  // The format version decides how the checksums are laid out, so it is
  // read before they are checked: a container of another version is refused
  // by its version, not by a checksum it was never meant to pass.
  if (const auto version = LoadArchive::Peek(bytes, kTagFormatVersion, 4);
      version && *version != kFormatVersion) {
    return UnsupportedVersion(static_cast<std::uint32_t>(*version));
  }
  Container container;
  if (Status s = LoadFields(bytes, container, kTagSectionPayload); !s.ok()) {
    return s;
  }
  if (container.magic != kSnapshotMagic) {
    return Status(InvalidArgument(
        container.magic == 0 ? "not a genesis snapshot (no magic record)"
                             : "not a genesis snapshot (bad magic)"));
  }
  if (container.header.format_version != kFormatVersion) {
    return UnsupportedVersion(container.header.format_version);
  }
  ParsedSnapshot snapshot;
  snapshot.header = container.header;
  for (const Section& section : container.sections) {
    Result<SectionPayload> payload = CheckPayload(section);
    if (!payload.ok()) return payload.status();
    if (snapshot.Find(section.id) != nullptr) {
      return Status(InvalidArgument("duplicate snapshot section '" +
                                    SectionName(section.id) + "'"));
    }
    snapshot.sections.push_back(
        {section.id, section.version, section.digest, *payload});
  }
  if (container.count != snapshot.sections.size()) {
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
