#include "genesis/manager.h"

#include <algorithm>
#include <utility>

#include "base/archive.h"
#include "base/tlv.h"

namespace viator::genesis {

GenesisManager::GenesisManager(wli::WanderingNetwork& network,
                               GenesisConfig config)
    : network_(network), config_(config) {}

Status GenesisManager::RegisterExtra(Snapshotable& extra) {
  if (extra.section_id() < kExtraSectionBase) {
    return InvalidArgument("extra section id " +
                           std::to_string(extra.section_id()) +
                           " collides with built-in sections (use "
                           "kExtraSectionBase and above)");
  }
  for (const Snapshotable* existing : extras_) {
    if (existing->section_id() == extra.section_id()) {
      return InvalidArgument("extra section id " +
                             std::to_string(extra.section_id()) +
                             " registered twice");
    }
  }
  extras_.push_back(&extra);
  return OkStatus();
}

bool GenesisManager::IsQuiescent() const {
  if (network_.simulator().PendingEvents() != 0) return false;
  bool quiescent = true;
  network_.ForEachShip([&quiescent](wli::Ship& ship) {
    if (ship.waiting_for_code_count() != 0) quiescent = false;
  });
  return quiescent;
}

Result<std::vector<std::byte>> GenesisManager::Capture(SnapshotKind kind) {
  // Pending closures (scheduled events, shuttles waiting for code) cannot
  // be serialized, so a restore could not rebuild them.
  if (!IsQuiescent()) {
    return Status(FailedPrecondition(
        "capture requires a quiescent network (pending events or "
        "shuttles waiting for code)"));
  }
  SnapshotHeader header;
  header.kind = kind;
  header.sequence = ++sequence_;
  header.base_sequence =
      kind == SnapshotKind::kDelta ? full_sequence_ : 0;
  header.snap_time = network_.simulator().now();
  header.scenario_tag = config_.scenario_tag;

  // Every subsystem (and registered extra) in canonical order. Built-in
  // sections are saved straight into the container; a payload's digest is
  // read off its trailer. A delta takes back the sections whose digest is
  // unchanged since the base full snapshot.
  SnapshotBuilder builder(header);
  std::map<std::uint32_t, std::uint64_t> digests;
  const auto changed = [&](std::uint32_t id, std::uint64_t digest) {
    digests[id] = digest;
    if (kind != SnapshotKind::kDelta) return true;
    const auto it = full_digests_.find(id);
    return it == full_digests_.end() || it->second != digest;
  };
  network_.ForEachSection([&](std::uint32_t id, bool, auto&& visit) {
    if (!changed(id, builder.SaveSection(id, visit))) {
      builder.DropLastSection();
    }
  });
  for (const Snapshotable* extra : extras_) {
    const std::vector<std::byte> payload = extra->Save();
    if (changed(extra->section_id(), TlvStreamDigest(payload))) {
      builder.AddSection(extra->section_id(), payload,
                         extra->section_version());
    }
  }
  if (kind == SnapshotKind::kFull) {
    full_digests_ = std::move(digests);
    full_sequence_ = header.sequence;
    have_full_ = true;
  }
  return builder.Finish();
}

Result<std::vector<std::byte>> GenesisManager::CaptureFull() {
  return Capture(SnapshotKind::kFull);
}

Result<std::vector<std::byte>> GenesisManager::CaptureDelta() {
  if (!have_full_) {
    return Status(FailedPrecondition(
        "delta capture requires a prior full capture as base"));
  }
  return Capture(SnapshotKind::kDelta);
}

Status GenesisManager::RestoreFull(std::span<const std::byte> bytes) {
  // Validate the entire container (framing, checksums, per-section
  // digests) before touching any state.
  auto snapshot = ParseSnapshot(bytes);
  if (!snapshot.ok()) return snapshot.status();
  return Restore(*snapshot);
}

Status GenesisManager::Restore(const ParsedSnapshot& snap) {
  if (snap.header.kind != SnapshotKind::kFull) {
    return FailedPrecondition(
        "restore requires a full snapshot (merge deltas onto their base "
        "first)");
  }
  if (network_.topology().node_count() != 0 || network_.ship_count() != 0) {
    return FailedPrecondition(
        "restore requires a freshly constructed network (empty topology, "
        "no ships)");
  }
  if (network_.simulator().PendingEvents() != 0) {
    return FailedPrecondition("restore requires an idle simulator");
  }

  // Sections apply in the table's dependency order; absent sections keep
  // the fresh state. Built-in payloads were verified by the parse and load
  // without a second pass.
  Status status;
  network_.ForEachSection([&](std::uint32_t id, bool, auto&& visit) {
    const SectionRecord* section = snap.Find(id);
    if (!status.ok() || section == nullptr) return;
    LoadArchive archive(section->payload.stream());
    visit(archive);
    if (!archive.ok()) {
      status = Status(archive.status().code(),
                      "restoring section '" + SectionName(id) +
                          "': " + archive.status().message());
    }
  });
  if (!status.ok()) return status;
  for (Snapshotable* extra : extras_) {
    const SectionRecord* section = snap.Find(extra->section_id());
    if (section == nullptr) continue;
    if (section->version != extra->section_version()) {
      return InvalidArgument(
          "extra section '" + extra->section_name() + "' is version " +
          std::to_string(section->version) + " but the registered handler "
          "expects version " + std::to_string(extra->section_version()));
    }
    if (Status s = extra->Load(section->payload); !s.ok()) {
      return Status(s.code(), "restoring section '" + extra->section_name() +
                                  "': " + std::string(s.message()));
    }
  }

  // The restored state is now the delta base: re-derive its digests so
  // CaptureDelta() diffs against what was just applied.
  sequence_ = snap.header.sequence;
  full_sequence_ = snap.header.sequence;
  full_digests_.clear();
  for (const SectionRecord& section : snap.sections) {
    full_digests_[section.id] = section.digest;
  }
  have_full_ = true;
  return OkStatus();
}

}  // namespace viator::genesis
