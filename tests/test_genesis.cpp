// Network Genesis: whole-network snapshot, deterministic restore, delta
// merging, checkpoint-based crash recovery and corruption rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <tuple>
#include <fstream>
#include <sstream>
#include <vector>

#include "base/archive.h"
#include "base/tlv.h"
#include "core/genetic_transcoder.h"
#include "core/wandering_network.h"
#include "genesis/adapters.h"
#include "genesis/manager.h"
#include "genesis/snapshot.h"
#include "genesis_world.h"
#include "net/failure.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "telemetry/latency_plane.h"

namespace viator {
namespace {

constexpr std::uint64_t kSeed = 20260806;

/// One self-contained simulation replica. kPopulated builds the 3x3 grid
/// scenario; kFresh is an empty shell (no topology, no ships) for restores.
struct Replica {
  enum class Mode { kPopulated, kFresh };

  sim::Simulator simulator;
  net::Topology topology;
  wli::WnConfig config;
  std::unique_ptr<wli::WanderingNetwork> network;

  explicit Replica(Mode mode = Mode::kPopulated, bool tracing = false) {
    if (mode == Mode::kPopulated) topology = net::MakeGrid(3, 3);
    config.telemetry.enable_tracing = tracing;
    network = std::make_unique<wli::WanderingNetwork>(simulator, topology,
                                                      config, kSeed);
    if (mode == Mode::kPopulated) network->PopulateAllNodes();
  }
};

/// Seeded workload driven entirely by the network's own RNG (so a restored
/// network continues the exact same decision sequence): random data
/// shuttles, drained to quiescence, with a metamorphosis pulse every 8th
/// step.
void Drive(Replica& r, int begin, int end) {
  const std::size_t n = r.topology.node_count();
  for (int i = begin; i < end; ++i) {
    const auto src =
        static_cast<net::NodeId>(r.network->rng().UniformInt(0, n - 1));
    auto dst =
        static_cast<net::NodeId>(r.network->rng().UniformInt(0, n - 1));
    if (dst == src) dst = static_cast<net::NodeId>((dst + 1) % n);
    (void)r.network->Inject(
        wli::Shuttle::Data(src, dst, {i, 3, 5}, static_cast<std::uint64_t>(i) + 1));
    r.simulator.RunAll();
    if (i % 8 == 7) {
      r.network->Pulse();
      r.simulator.RunAll();
    }
  }
}

std::string TraceJsonl(const Replica& r) {
  std::ostringstream out;
  r.network->trace().WriteJsonl(out);
  return out.str();
}

// ---- The headline property: deterministic resume ---------------------------

TEST(GenesisResume, SnapshotRestoreContinuesBitIdentically) {
  // Uninterrupted reference: 2N steps in one life.
  Replica ref;
  Drive(ref, 0, 64);
  Drive(ref, 64, 128);

  // Interrupted twin: N steps, snapshot, restore into a fresh replica,
  // continue to 2N.
  Replica first;
  Drive(first, 0, 64);
  genesis::GenesisManager source(*first.network);
  auto snapshot = source.CaptureFull();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  Replica resumed = Replica(Replica::Mode::kFresh);
  genesis::GenesisManager target(*resumed.network);
  ASSERT_TRUE(target.RestoreFull(*snapshot).ok());
  Drive(resumed, 64, 128);

  // The trace log and the serialized stats of the resumed run must be
  // byte-identical to the uninterrupted run.
  EXPECT_EQ(TraceJsonl(resumed), TraceJsonl(ref));
  EXPECT_EQ(SaveFields(resumed.network->stats()),
            SaveFields(ref.network->stats()));
  EXPECT_EQ(resumed.simulator.now(), ref.simulator.now());
  EXPECT_EQ(resumed.simulator.dispatched(), ref.simulator.dispatched());
  EXPECT_EQ(resumed.network->pulses(), ref.network->pulses());

  // Strongest form: a full snapshot of each end state is byte-identical
  // (both managers are at the same sequence number by construction).
  genesis::GenesisManager ref_manager(*ref.network);
  auto ref_end = ref_manager.CaptureFull();
  auto resumed_end = target.CaptureFull();
  ASSERT_TRUE(ref_end.ok());
  ASSERT_TRUE(resumed_end.ok());
  auto ref_parsed = genesis::ParseSnapshot(*ref_end);
  auto res_parsed = genesis::ParseSnapshot(*resumed_end);
  ASSERT_TRUE(ref_parsed.ok());
  ASSERT_TRUE(res_parsed.ok());
  ASSERT_EQ(ref_parsed->sections.size(), res_parsed->sections.size());
  for (std::size_t i = 0; i < ref_parsed->sections.size(); ++i) {
    // Every decision-state section must match bit for bit. mem-peaks is the
    // one advisory section: shuttle pools restore empty by design (shells
    // are recycled capacity, not state), so the resumed run's retained-byte
    // watermark lawfully trails the uninterrupted run's.
    if (ref_parsed->sections[i].id == genesis::kSectionMemPeaks) continue;
    EXPECT_EQ(ref_parsed->sections[i].digest, res_parsed->sections[i].digest)
        << "section " << genesis::SectionName(ref_parsed->sections[i].id)
        << " diverged after resume";
  }
}

TEST(GenesisResume, TracedRunRestoresBitIdentically) {
  // Same deterministic-resume property, with capsule tracing live: the span
  // collector (id RNG, counters, every retained span) rides in the extras
  // region via TelemetryAdapter, and a restored run keeps issuing the exact
  // trace ids the uninterrupted run would have issued.
  Replica ref(Replica::Mode::kPopulated, /*tracing=*/true);
  Drive(ref, 0, 48);
  Drive(ref, 48, 96);

  Replica first(Replica::Mode::kPopulated, /*tracing=*/true);
  Drive(first, 0, 48);
  genesis::TelemetryAdapter source_adapter(first.network->telemetry());
  genesis::GenesisManager source(*first.network);
  ASSERT_TRUE(source.RegisterExtra(source_adapter).ok());
  auto snapshot = source.CaptureFull();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  // Fresh replica with tracing enabled but a *different* effective id seed
  // history (nothing recorded yet): the restore must overwrite all of it.
  Replica resumed(Replica::Mode::kFresh, /*tracing=*/true);
  genesis::TelemetryAdapter resumed_adapter(resumed.network->telemetry());
  genesis::GenesisManager target(*resumed.network);
  ASSERT_TRUE(target.RegisterExtra(resumed_adapter).ok());
  ASSERT_TRUE(target.RestoreFull(*snapshot).ok());
  Drive(resumed, 48, 96);

  // Span-for-span identical telemetry, including ids drawn after the resume.
  const auto& ref_spans = ref.network->telemetry().spans();
  const auto& res_spans = resumed.network->telemetry().spans();
  EXPECT_EQ(res_spans.traces_started(), ref_spans.traces_started());
  EXPECT_EQ(res_spans.spans_recorded(), ref_spans.spans_recorded());
  ASSERT_EQ(res_spans.spans().size(), ref_spans.spans().size());
  for (std::size_t i = 0; i < ref_spans.spans().size(); ++i) {
    const auto& a = ref_spans.spans()[i];
    const auto& b = res_spans.spans()[i];
    EXPECT_EQ(b.trace_id, a.trace_id) << "span " << i;
    EXPECT_EQ(b.span_id, a.span_id);
    EXPECT_EQ(b.parent_span_id, a.parent_span_id);
    EXPECT_EQ(b.ship, a.ship);
    EXPECT_EQ(b.component, a.component);
    EXPECT_EQ(b.name, a.name);
    EXPECT_EQ(b.start, a.start);
    EXPECT_EQ(b.end, a.end);
  }

  // The telemetry sections of both end states serialize byte-identically.
  genesis::TelemetryAdapter ref_adapter(ref.network->telemetry());
  EXPECT_EQ(resumed_adapter.Save(), ref_adapter.Save());
  EXPECT_EQ(TraceJsonl(resumed), TraceJsonl(ref));
  EXPECT_EQ(resumed.simulator.now(), ref.simulator.now());
}

TEST(GenesisResume, RestoredCountersAndStateMatchSource) {
  Replica source;
  Drive(source, 0, 40);
  genesis::GenesisManager manager(*source.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok());

  Replica restored = Replica(Replica::Mode::kFresh);
  genesis::GenesisManager target(*restored.network);
  ASSERT_TRUE(target.RestoreFull(*snapshot).ok());

  EXPECT_EQ(restored.topology.node_count(), source.topology.node_count());
  EXPECT_EQ(restored.topology.link_count(), source.topology.link_count());
  EXPECT_EQ(restored.network->ship_count(), source.network->ship_count());
  EXPECT_EQ(restored.simulator.now(), source.simulator.now());
  EXPECT_EQ(restored.simulator.dispatched(), source.simulator.dispatched());
  EXPECT_EQ(restored.network->fabric().frames_delivered(),
            source.network->fabric().frames_delivered());
  EXPECT_EQ(restored.network->fabric().next_frame_id(),
            source.network->fabric().next_frame_id());
  for (net::NodeId node = 0; node < restored.topology.node_count(); ++node) {
    const wli::Ship* a = source.network->ship(node);
    const wli::Ship* b = restored.network->ship(node);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->shuttles_consumed(), a->shuttles_consumed());
    EXPECT_EQ(b->shuttles_forwarded(), a->shuttles_forwarded());
    EXPECT_EQ(b->os().current_role(), a->os().current_role());
    EXPECT_EQ(b->facts().AllFacts().size(), a->facts().AllFacts().size());
  }
}

TEST(GenesisResume, MemoryPeaksSurviveSnapshotRestore) {
  // The Memory Observatory's deterministic high-water marks — calendar-queue
  // heap peak and shuttle-pool retained peak — ride the clock and
  // network-counter sections as optional tags, so a restored world reports
  // the same peaks the interrupted one reached (old snapshots without the
  // tags keep the fresh world's own peaks).
  Replica source;
  Drive(source, 0, 40);
  const std::size_t pool_peak =
      source.network->shuttle_pool().peak_retained_bytes();
  const std::size_t queue_peak = source.simulator.queue_peak_heap_bytes();
  EXPECT_GT(queue_peak, 0u);
  EXPECT_GT(pool_peak, 0u);
  genesis::GenesisManager manager(*source.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok());

  Replica restored = Replica(Replica::Mode::kFresh);
  genesis::GenesisManager target(*restored.network);
  ASSERT_TRUE(target.RestoreFull(*snapshot).ok());
  EXPECT_EQ(restored.network->shuttle_pool().peak_retained_bytes(), pool_peak);
  EXPECT_EQ(restored.simulator.queue_peak_heap_bytes(), queue_peak);
}

TEST(GenesisResume, LatencySketchesSurviveSnapshotRestore) {
  // The Latency Observatory section is advisory but integer-exact: every
  // per-(stage, class) sketch and the window delivery sketch round-trip
  // bit-identically (open flights are deliberately not captured — a
  // quiescent boundary has none worth keeping).
  telemetry::lat::SetEnabled(true);
  Replica source;
  Drive(source, 0, 40);
  telemetry::lat::SetEnabled(false);
  const telemetry::lat::Lane& lane = source.network->lat_lane();
  EXPECT_GT(lane.DeliveredCount(), 0u);

  genesis::GenesisManager manager(*source.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  Replica restored = Replica(Replica::Mode::kFresh);
  genesis::GenesisManager target(*restored.network);
  ASSERT_TRUE(target.RestoreFull(*snapshot).ok());
  const telemetry::lat::Lane& twin = restored.network->lat_lane();
  for (std::size_t s = 0; s < telemetry::lat::kStageCount; ++s) {
    const auto stage = static_cast<telemetry::lat::Stage>(s);
    for (std::size_t c = 0; c < telemetry::lat::StageClassCount(stage); ++c) {
      EXPECT_EQ(twin.Sketch(stage, c), lane.Sketch(stage, c))
          << telemetry::lat::StageName(stage) << "[" << c << "]";
    }
  }
  EXPECT_EQ(twin.window_sketch(), lane.window_sketch());

  // Capture → restore → capture: the latency payload is byte-stable.
  auto recapture = target.CaptureFull();
  ASSERT_TRUE(recapture.ok());
  auto first = genesis::ParseSnapshot(*snapshot);
  auto second = genesis::ParseSnapshot(*recapture);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const genesis::SectionRecord* a =
      first->Find(genesis::kSectionLatency);
  const genesis::SectionRecord* b =
      second->Find(genesis::kSectionLatency);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->digest, b->digest);
  EXPECT_EQ(a->payload, b->payload);
}

// ---- Delta snapshots --------------------------------------------------------

TEST(GenesisDelta, DeltaMergeEqualsDirectFullCapture) {
  Replica replica;
  Drive(replica, 0, 32);
  genesis::GenesisManager manager(*replica.network);
  auto full = manager.CaptureFull();
  ASSERT_TRUE(full.ok());

  Drive(replica, 32, 48);
  auto delta = manager.CaptureDelta();
  ASSERT_TRUE(delta.ok());
  auto delta_parsed = genesis::ParseSnapshot(*delta);
  ASSERT_TRUE(delta_parsed.ok());
  EXPECT_EQ(delta_parsed->header.kind, genesis::SnapshotKind::kDelta);

  // The delta must skip sections that cannot have changed (topology,
  // repository) and therefore be smaller than a full capture would be.
  auto full_now = genesis::ParseSnapshot(*full);
  ASSERT_TRUE(full_now.ok());
  EXPECT_LT(delta_parsed->sections.size(), full_now->sections.size());
  EXPECT_EQ(delta_parsed->Find(genesis::kSectionTopology), nullptr);
  EXPECT_NE(delta_parsed->Find(genesis::kSectionClock), nullptr);

  auto merged = genesis::MergeDelta(*full, *delta);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  Replica restored = Replica(Replica::Mode::kFresh);
  genesis::GenesisManager target(*restored.network);
  ASSERT_TRUE(target.RestoreFull(*merged).ok());
  EXPECT_EQ(SaveFields(restored.network->stats()),
            SaveFields(replica.network->stats()));
  EXPECT_EQ(restored.simulator.now(), replica.simulator.now());

  // The merged state resumes identically to the source.
  Drive(replica, 48, 64);
  Drive(restored, 48, 64);
  EXPECT_EQ(TraceJsonl(restored), TraceJsonl(replica));
}

TEST(GenesisDelta, DeltaRequiresPriorFullAndMatchingBase) {
  Replica replica;
  genesis::GenesisManager manager(*replica.network);
  EXPECT_FALSE(manager.CaptureDelta().ok());

  Drive(replica, 0, 8);
  auto full1 = manager.CaptureFull();
  ASSERT_TRUE(full1.ok());
  Drive(replica, 8, 16);
  auto full2 = manager.CaptureFull();
  ASSERT_TRUE(full2.ok());
  Drive(replica, 16, 24);
  auto delta = manager.CaptureDelta();
  ASSERT_TRUE(delta.ok());

  // The delta bases on full2; merging onto full1 must be refused.
  EXPECT_FALSE(genesis::MergeDelta(*full1, *delta).ok());
  EXPECT_TRUE(genesis::MergeDelta(*full2, *delta).ok());
  // A delta is not restorable directly.
  Replica fresh = Replica(Replica::Mode::kFresh);
  genesis::GenesisManager target(*fresh.network);
  EXPECT_FALSE(target.RestoreFull(*delta).ok());
}

// ---- Checkpointing + crash recovery ----------------------------------------

TEST(GenesisCheckpoint, CrashRecoveryFromNewestCheckpoint) {
  Replica replica;
  net::FailureInjector injector(replica.simulator, replica.topology,
                                Rng(kSeed ^ 0xfa11));
  genesis::FailureInjectorAdapter adapter(injector);
  genesis::GenesisManager manager(*replica.network);
  ASSERT_TRUE(manager.RegisterExtra(adapter).ok());

  // A transient link failure that fully plays out before the checkpoint is
  // taken (no pending repair closures at capture time).
  injector.FailLink(0, 2 * sim::kMillisecond, 5 * sim::kMillisecond);
  replica.simulator.RunUntil(100 * sim::kMillisecond);
  const auto checkpoint = manager.CaptureFull();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  const std::vector<std::byte>& newest = *checkpoint;

  // "Crash": throw the replica away, restore the newest checkpoint into a
  // fresh one, failure process included.
  Replica recovered = Replica(Replica::Mode::kFresh);
  net::FailureInjector recovered_injector(recovered.simulator,
                                          recovered.topology, Rng(1));
  genesis::FailureInjectorAdapter recovered_adapter(recovered_injector);
  genesis::GenesisManager target(*recovered.network);
  ASSERT_TRUE(target.RegisterExtra(recovered_adapter).ok());
  ASSERT_TRUE(target.RestoreFull(newest).ok());

  EXPECT_EQ(recovered_injector.failures_injected(),
            injector.failures_injected());
  EXPECT_EQ(recovered.topology.link_count(), replica.topology.link_count());
  for (net::LinkId id = 0; id < recovered.topology.link_count(); ++id) {
    EXPECT_EQ(recovered.topology.link(id).up, true);
  }

  // The recovered replica serializes back to the checkpoint bit for bit.
  auto recaptured = target.CaptureFull();
  ASSERT_TRUE(recaptured.ok());
  auto a = genesis::ParseSnapshot(newest);
  auto b = genesis::ParseSnapshot(*recaptured);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->sections.size(), b->sections.size());
  for (std::size_t i = 0; i < a->sections.size(); ++i) {
    EXPECT_EQ(a->sections[i].digest, b->sections[i].digest)
        << "section " << genesis::SectionName(a->sections[i].id);
  }
}

TEST(GenesisCheckpoint, NonQuiescentCapturesAreSkipped) {
  Replica replica;
  genesis::GenesisManager manager(*replica.network);
  // A far-future event makes the network non-quiescent.
  auto handle = replica.simulator.ScheduleAt(sim::kSecond, [] {});
  EXPECT_FALSE(manager.CaptureFull().ok());
  handle.Cancel();
  EXPECT_TRUE(manager.CaptureFull().ok());
}

// ---- Strict validation ------------------------------------------------------

TEST(GenesisValidation, EverySampledBitFlipIsRejected) {
  Replica replica;
  Drive(replica, 0, 16);
  genesis::GenesisManager manager(*replica.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok());

  std::vector<std::byte> bytes = *snapshot;
  const std::size_t total_bits = bytes.size() * 8;
  std::size_t flips = 0;
  for (std::size_t bit = 0; bit < total_bits; bit += 1009) {
    std::vector<std::byte> corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_FALSE(genesis::VerifySnapshot(corrupt).ok())
        << "bit " << bit << " flip was not detected";
    Replica fresh = Replica(Replica::Mode::kFresh);
    genesis::GenesisManager target(*fresh.network);
    EXPECT_FALSE(target.RestoreFull(corrupt).ok());
    EXPECT_EQ(fresh.network->ship_count(), 0u)
        << "corrupt restore touched network state";
    ++flips;
  }
  EXPECT_GT(flips, 50u);
}

TEST(GenesisValidation, TruncationsAreRejected) {
  Replica replica;
  Drive(replica, 0, 16);
  genesis::GenesisManager manager(*replica.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok());

  for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          snapshot->size() / 2, snapshot->size() - 1}) {
    std::vector<std::byte> truncated(snapshot->begin(),
                                     snapshot->begin() + len);
    EXPECT_FALSE(genesis::VerifySnapshot(truncated).ok())
        << "truncation to " << len << " bytes was not detected";
  }
}

TEST(GenesisValidation, FormatVersionMismatchIsRejected) {
  genesis::SnapshotHeader header;
  header.format_version = 99;
  genesis::SnapshotBuilder builder(header);
  builder.AddSection(genesis::kSectionClock, {});
  const std::vector<std::byte> bytes = builder.Finish();
  Status status = genesis::VerifySnapshot(bytes);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST(GenesisValidation, RestoreRequiresFreshNetwork) {
  Replica replica;
  Drive(replica, 0, 8);
  genesis::GenesisManager manager(*replica.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok());

  // Restoring on top of the (populated) source network must be refused.
  Status status = manager.RestoreFull(*snapshot);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(GenesisValidation, ExtraRegistrationIsValidated) {
  Replica replica;
  net::FailureInjector injector(replica.simulator, replica.topology, Rng(1));
  genesis::GenesisManager manager(*replica.network);
  genesis::FailureInjectorAdapter bad(injector, /*id=*/7);  // built-in range
  EXPECT_FALSE(manager.RegisterExtra(bad).ok());
  genesis::FailureInjectorAdapter good(injector);
  EXPECT_TRUE(manager.RegisterExtra(good).ok());
  genesis::FailureInjectorAdapter dup(injector);
  EXPECT_FALSE(manager.RegisterExtra(dup).ok());
}

TEST(GenesisValidation, ShipRecordsMustNameDistinctTopologyNodes) {
  // Re-sealed snapshots of the 3x3 grid whose ships section names a node
  // the restored topology lacks, or one node twice, are refused with a
  // Status: AddShip would otherwise grow the network past its topology (or
  // abort allocating for a node id near 2^32) or overwrite the first ship.
  Replica source;
  Drive(source, 0, 8);
  genesis::GenesisManager manager(*source.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok());
  auto parsed = genesis::ParseSnapshot(*snapshot);
  ASSERT_TRUE(parsed.ok());

  std::vector<std::vector<std::byte>> ships;  // one ship record each
  TlvReader reader(parsed->Find(genesis::kSectionShips)->payload);
  while (reader.HasNext()) {
    auto record = reader.Next();
    ASSERT_TRUE(record.ok());
    ships.emplace_back(record->payload.begin(), record->payload.end());
  }
  ASSERT_EQ(ships.size(), 9u);
  const auto with_node = [](std::span<const std::byte> ship,
                            std::uint64_t node) {
    TlvWriter out;
    TlvReader fields(ship);
    while (fields.HasNext()) {
      auto field = fields.Next();
      if (field->tag == 0x01) {
        out.PutU64(0x01, node);
      } else {
        out.PutBytes(field->tag, field->payload);
      }
    }
    return out.Finish();
  };
  const auto restore_with = [&](const std::vector<std::byte>& extra_ship) {
    TlvWriter section;
    for (const auto& ship : ships) section.PutBytes(0x01, ship);
    section.PutBytes(0x01, extra_ship);
    genesis::SnapshotBuilder builder(parsed->header);
    for (const genesis::SectionRecord& record : parsed->sections) {
      builder.AddSection(record.id,
                         record.id == genesis::kSectionShips
                             ? section.Finish()
                             : record.payload,
                         record.version);
    }
    Replica fresh(Replica::Mode::kFresh);
    genesis::GenesisManager target(*fresh.network);
    return target.RestoreFull(builder.Finish());
  };
  for (std::uint64_t node : {std::uint64_t{9}, std::uint64_t{100000},
                             std::uint64_t{0xFFFFFFF0}}) {
    const Status status = restore_with(with_node(ships[0], node));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "node " << node << ": " << status.ToString();
  }
  const Status duplicate = restore_with(ships[3]);
  EXPECT_EQ(duplicate.code(), StatusCode::kInvalidArgument)
      << duplicate.ToString();
  EXPECT_NE(duplicate.message().find("duplicate"), std::string::npos);
}

/// `stream` with one U64 record replaced by `value`: the one reached by
/// following `tags`, taking the first record with each tag at every level.
std::vector<std::byte> WithU64At(std::span<const std::byte> stream,
                                 std::span<const TlvTag> tags,
                                 std::uint64_t value) {
  TlvWriter out;
  TlvReader reader(stream);
  bool replaced = false;
  while (reader.HasNext()) {
    auto record = reader.Next();
    const bool match = !replaced && record->tag == tags.front();
    if (!match) {
      out.PutBytes(record->tag, record->payload);
    } else if (tags.size() == 1) {
      out.PutU64(record->tag, value);
    } else {
      out.PutBytes(record->tag,
                   WithU64At(record->payload, tags.subspan(1), value));
    }
    replaced = replaced || match;
  }
  return out.Finish();
}

TEST(GenesisValidation, OverlayNodesMustBeInTopology) {
  // Re-sealed snapshots of the 3x3 grid whose overlays section names a node
  // the restored topology lacks — as an overlay member, a virtual link's
  // endpoint or a node on its physical path — are refused with a Status:
  // the next pulse's RefreshPaths would otherwise index the topology with
  // it.
  Replica source;
  ASSERT_TRUE(source.network->overlays().Spawn("corners", {0, 8}).ok());
  genesis::GenesisManager manager(*source.network);
  auto snapshot = manager.CaptureFull();
  ASSERT_TRUE(snapshot.ok());
  auto parsed = genesis::ParseSnapshot(*snapshot);
  ASSERT_TRUE(parsed.ok());
  const std::vector<std::byte>& overlays =
      parsed->Find(genesis::kSectionOverlays)->payload;
  const auto restore_with = [&](const std::vector<std::byte>& section) {
    genesis::SnapshotBuilder builder(parsed->header);
    for (const genesis::SectionRecord& record : parsed->sections) {
      builder.AddSection(record.id,
                         record.id == genesis::kSectionOverlays
                             ? section
                             : record.payload,
                         record.version);
    }
    Replica fresh(Replica::Mode::kFresh);
    genesis::GenesisManager target(*fresh.network);
    return target.RestoreFull(builder.Finish());
  };
  // The overlay record (0x03) holds the members (0x03) and virtual links
  // (0x05); a link holds its endpoint a (0x01) and path nodes (0x04). Each
  // field's first value is node 0, which restores.
  const std::vector<std::vector<TlvTag>> fields = {
      {0x03, 0x03}, {0x03, 0x05, 0x01}, {0x03, 0x05, 0x04}};
  for (const std::vector<TlvTag>& field : fields) {
    const Status same = restore_with(WithU64At(overlays, field, 0));
    EXPECT_TRUE(same.ok()) << same.ToString();
    for (std::uint64_t node : {std::uint64_t{9}, std::uint64_t{100000}}) {
      const Status status = restore_with(WithU64At(overlays, field, node));
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << "field " << field.back() << " node " << node << ": "
          << status.ToString();
    }
  }
}

/// `value` as a `width`-byte little-endian payload.
std::vector<std::byte> LeBytes(std::uint64_t value, std::size_t width) {
  std::vector<std::byte> bytes(width);
  for (std::size_t i = 0; i < width; ++i) {
    bytes[i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
  }
  return bytes;
}

/// `snapshot` re-sealed in its own framing, in which each section payload
/// is a sealed record (tag 0x12), with the first record `pick` selects
/// rewritten 2 bytes wide: the low bytes of its value.
std::vector<std::byte> WithNarrowRecord(
    std::span<const std::byte> snapshot,
    const std::function<bool(const TlvRecord&)>& pick) {
  constexpr TlvTag kPayload = 0x12;
  TlvReader reader(snapshot);
  EXPECT_TRUE(reader.Verify(kPayload).ok());
  TlvWriter out;
  bool narrowed = false;
  while (reader.HasNext()) {
    const auto record = reader.Next();
    if (!record.ok()) {
      ADD_FAILURE() << record.status().ToString();
      break;
    }
    if (!narrowed && pick(*record)) {
      out.PutBytes(record->tag, record->payload.first(2));
      narrowed = true;
    } else if (record->tag == kPayload) {
      out.PutSealed(record->tag, record->payload);
    } else {
      out.PutBytes(record->tag, record->payload);
    }
  }
  return out.Finish();
}

TEST(GenesisValidation, WrongWidthScalarsAreRefused) {
  // A scalar record of the wrong width is refused, not read as 0: a ships
  // section whose id read as 0 used to be skipped (restoring none of the
  // ships), and a delta whose kind read as 0 passed as a full snapshot.
  Replica source;
  Drive(source, 0, 8);
  genesis::GenesisManager manager(*source.network);
  auto full = manager.CaptureFull();
  ASSERT_TRUE(full.ok());
  Drive(source, 8, 16);
  auto delta = manager.CaptureDelta();
  ASSERT_TRUE(delta.ok());

  const auto restore = [](const std::vector<std::byte>& bytes,
                          std::size_t* ships) {
    Replica fresh(Replica::Mode::kFresh);
    genesis::GenesisManager target(*fresh.network);
    const Status status = target.RestoreFull(bytes);
    *ships = fresh.network->ship_count();
    return status;
  };
  std::size_t ships = 0;
  const auto none = [](const TlvRecord&) { return false; };
  ASSERT_TRUE(restore(WithNarrowRecord(*full, none), &ships).ok())
      << "an unedited re-seal must restore";
  EXPECT_EQ(ships, 9u);

  struct Case {
    const char* what;
    const std::vector<std::byte>* snapshot;
    std::function<bool(const TlvRecord&)> pick;
  };
  const Case cases[] = {
      {"ships section id", &*full,
       [](const TlvRecord& r) {
         return r.tag == 0x10 &&
                std::ranges::equal(r.payload,
                                   LeBytes(genesis::kSectionShips, 4));
       }},
      {"delta kind", &*delta, [](const TlvRecord& r) { return r.tag == 0x03; }},
      {"format version", &*full,
       [](const TlvRecord& r) { return r.tag == 0x02; }},
      {"section count", &*full,
       [](const TlvRecord& r) { return r.tag == 0x08; }},
      {"section version", &*full,
       [](const TlvRecord& r) { return r.tag == 0x11; }},
      {"section digest", &*full,
       [](const TlvRecord& r) { return r.tag == 0x13; }},
  };
  for (const Case& c : cases) {
    const std::vector<std::byte> narrow = WithNarrowRecord(*c.snapshot, c.pick);
    EXPECT_EQ(genesis::VerifySnapshot(narrow).code(),
              StatusCode::kInvalidArgument)
        << c.what;
    const Status status = restore(narrow, &ships);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << c.what << ": " << status.ToString();
    EXPECT_EQ(ships, 0u) << c.what;
  }
}

/// A container's top-level records, in order.
using RecordList = std::vector<std::pair<TlvTag, std::vector<std::byte>>>;

RecordList ContainerRecords(std::span<const std::byte> container) {
  RecordList records;
  TlvReader reader(container);
  while (reader.HasNext()) {
    const auto record = reader.Next();
    if (!record.ok()) {
      ADD_FAILURE() << record.status().ToString();
      break;
    }
    records.emplace_back(record->tag,
                         std::vector<std::byte>(record->payload.begin(),
                                                record->payload.end()));
  }
  return records;
}

/// `records` sealed in the container's framing: section payloads (tag
/// 0x12) as sealed records, the rest as they are.
std::vector<std::byte> SealContainer(const RecordList& records) {
  TlvWriter out;
  for (const auto& [tag, payload] : records) {
    if (tag == 0x12) {
      out.PutSealed(tag, payload);
    } else {
      out.PutBytes(tag, payload);
    }
  }
  return out.Finish();
}

TEST(GenesisValidation, MalformedContainersAreRefused) {
  // Re-sealed containers whose framing is malformed: a section group (id
  // 0x10, version 0x11, payload 0x12, digest 0x13) without one of its
  // parts, a duplicate id, a wrong count (0x08), a bad or missing magic
  // (0x01) or an unknown kind (0x03). Each is refused with
  // InvalidArgument, and restoring it adds no ship.
  Replica source;
  Drive(source, 0, 8);
  genesis::GenesisManager manager(*source.network);
  auto full = manager.CaptureFull();
  ASSERT_TRUE(full.ok());
  const RecordList records = ContainerRecords(*full);
  ASSERT_TRUE(genesis::VerifySnapshot(SealContainer(records)).ok())
      << "an unedited re-seal must verify";

  // Index of the `nth` record tagged `tag`.
  const auto at = [&](TlvTag tag, std::size_t nth) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].first == tag && nth-- == 0) return i;
    }
    ADD_FAILURE() << "no record " << tag;
    return std::size_t{0};
  };
  const auto without = [&](TlvTag tag, std::size_t nth) {
    RecordList edited = records;
    edited.erase(edited.begin() + at(tag, nth));
    return edited;
  };
  const auto with = [&](TlvTag tag, std::size_t nth,
                        std::vector<std::byte> payload) {
    RecordList edited = records;
    edited[at(tag, nth)].second = std::move(payload);
    return edited;
  };
  std::size_t sections = 0;
  for (const auto& record : records) sections += record.first == 0x10;
  ASSERT_GT(sections, 2u);

  const std::pair<const char*, RecordList> cases[] = {
      {"a section without its payload", without(0x12, 0)},
      {"the last section without its digest", without(0x13, sections - 1)},
      {"a section without its digest, then a valid one", without(0x13, 0)},
      {"a duplicate section id", with(0x10, 1, records[at(0x10, 0)].second)},
      {"a section count one high", with(0x08, 0, LeBytes(sections + 1, 4))},
      {"a bad magic", with(0x01, 0, LeBytes(0x5eed, 8))},
      {"no magic", without(0x01, 0)},
      {"an unknown kind", with(0x03, 0, LeBytes(2, 4))},
  };
  for (const auto& [what, edited] : cases) {
    const std::vector<std::byte> bytes = SealContainer(edited);
    EXPECT_EQ(genesis::VerifySnapshot(bytes).code(),
              StatusCode::kInvalidArgument)
        << what;
    Replica fresh(Replica::Mode::kFresh);
    genesis::GenesisManager target(*fresh.network);
    const Status status = target.RestoreFull(bytes);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << what << ": " << status.ToString();
    EXPECT_EQ(fresh.network->ship_count(), 0u) << what;
  }
}

TEST(GenesisValidation, FormatOneContainerIsRefusedByItsVersion) {
  // Format 1 nested each section payload as an ordinary record under the
  // container's trailer. Its checksums follow another layout, so the
  // version is read before them and names the problem.
  Replica source;
  Drive(source, 0, 8);
  genesis::GenesisManager manager(*source.network);
  auto full = manager.CaptureFull();
  ASSERT_TRUE(full.ok());
  RecordList records = ContainerRecords(*full);
  TlvWriter v1;
  for (auto& [tag, payload] : records) {
    if (tag == 0x02) payload = LeBytes(1, 4);
    v1.PutBytes(tag, payload);
  }
  const Status status = genesis::VerifySnapshot(v1.Finish());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "unsupported snapshot format version 1 (expected 2)");
}

// ---- Pinned snapshot bytes --------------------------------------------------

/// "<name> <id> v<version> <size> <fnv>" per section, in capture order.
std::string SectionTable(const genesis::ParsedSnapshot& snapshot) {
  std::ostringstream out;
  for (const genesis::SectionRecord& section : snapshot.sections) {
    out << genesis::SectionName(section.id) << ' ' << section.id << " v"
        << section.version << ' ' << section.payload.size() << ' '
        << DigestToHex(section.digest) << '\n';
  }
  return out.str();
}

TEST(GenesisGolden, SectionDigestsArePinned) {
  // Every built-in section and all six adapters, captured from one seeded
  // world and compared with committed sizes and FNV digests: any change to
  // the snapshot bytes shows here. (The replay journal's section is not in
  // this world: its window hashes change whenever the state hash does.)
  testing::GenesisWorld world;
  const wli::WanderingNetwork& wn = *world.network;
  ASSERT_GT(wn.repository().size(), 0u);
  ASSERT_FALSE(wn.placements().empty());
  ASSERT_GT(wn.ledger().tracked_functions(), 0u);
  ASSERT_FALSE(world.network->overlays().overlays().empty());
  ASSERT_GT(world.network->reputation().reports(), 0u);
  ASSERT_FALSE(wn.ship(3)->os().hardware().slots().empty());
  ASSERT_GT(wn.ship(2)->facts().size(), 0u);
  ASSERT_GT(world.cache->hits(), 0u);
  ASSERT_GT(world.plane->probes_absorbed(), 0u);
  ASSERT_GT(world.injector->failures_injected(), 0u);
  ASSERT_GT(world.router->ads_sent(), 0u);
  ASSERT_FALSE(world.network->telemetry().spans().spans().empty());
  ASSERT_GT(wn.lat_lane().DeliveredCount(), 0u);

  genesis::GenesisManager manager(*world.network);
  world.RegisterAdapters(manager);
  ASSERT_TRUE(manager.IsQuiescent());
  auto bytes = manager.CaptureFull();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto parsed = genesis::ParseSnapshot(*bytes);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->sections.size(), 25u);
  const std::string table = SectionTable(*parsed);

  const std::string path =
      std::string(VIATOR_GOLDEN_DIR) + "/genesis_sections.txt";
  if (std::getenv("VIATOR_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path) << table;  // deliberate golden refresh
  }
  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing tests/golden/genesis_sections.txt";
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(table, expected.str());
}

// ---- Adapter round trips ----------------------------------------------------

TEST(GenesisAdapters, MobilityRoundTripIsByteIdentical) {
  const net::RandomWaypointMobility::Config config;
  net::RandomWaypointMobility source(5, config, Rng(11));
  source.Pin(2);
  for (int i = 0; i < 6; ++i) source.Step(0.8);
  const std::vector<std::byte> bytes =
      genesis::MobilityAdapter(source).Save();

  net::RandomWaypointMobility target(5, config, Rng(99));
  genesis::MobilityAdapter adapter(target);
  ASSERT_TRUE(adapter.Load(bytes).ok());
  EXPECT_EQ(adapter.Save(), bytes);
  EXPECT_EQ(SaveFields(target.rng()), SaveFields(source.rng()));
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(target.positions()[i].x, source.positions()[i].x);
    EXPECT_EQ(target.positions()[i].y, source.positions()[i].y);
    EXPECT_EQ(target.states()[i].target.x, source.states()[i].target.x);
    EXPECT_EQ(target.states()[i].target.y, source.states()[i].target.y);
    EXPECT_EQ(target.states()[i].speed, source.states()[i].speed);
    EXPECT_EQ(target.states()[i].pause_left, source.states()[i].pause_left);
    EXPECT_EQ(target.pinned()[i], source.pinned()[i]);
  }
  // Restored processes keep moving in lockstep.
  source.Step(1.3);
  target.Step(1.3);
  EXPECT_EQ(target.positions()[4].x, source.positions()[4].x);

  // A snapshot of a different population size is refused.
  net::RandomWaypointMobility smaller(4, config, Rng(1));
  EXPECT_FALSE(genesis::MobilityAdapter(smaller).Load(bytes).ok());
}

TEST(GenesisAdapters, DvRouterRoundTripIsByteIdentical) {
  Replica source;
  services::DistanceVectorRouter router(*source.network, {});
  for (int round = 0; round < 4; ++round) {
    router.AdvertiseRound();
    source.simulator.RunAll();
  }
  ASSERT_TRUE(router.Send(0, 8, {1, 2}, 5).ok());
  source.simulator.RunAll();
  const std::vector<std::byte> bytes =
      genesis::DvRouterAdapter(router).Save();

  Replica fresh;
  services::DistanceVectorRouter twin(*fresh.network, {});
  genesis::DvRouterAdapter adapter(twin);
  ASSERT_TRUE(adapter.Load(bytes).ok());
  EXPECT_EQ(adapter.Save(), bytes);
  EXPECT_EQ(twin.ads_sent(), router.ads_sent());
  EXPECT_EQ(twin.control_bytes(), router.control_bytes());
  EXPECT_EQ(twin.dropped_no_route(), router.dropped_no_route());
  ASSERT_EQ(twin.tables().size(), router.tables().size());
  for (std::size_t node = 0; node < router.tables().size(); ++node) {
    const auto& want = router.tables()[node];
    const auto& got = twin.tables()[node];
    ASSERT_EQ(got.size(), want.size()) << "node " << node;
    auto g = got.begin();
    for (const auto& [dst, route] : want) {
      EXPECT_EQ(g->first, dst);
      EXPECT_EQ(g->second.next_hop, route.next_hop);
      EXPECT_EQ(g->second.metric, route.metric);
      EXPECT_EQ(g->second.expires, route.expires);
      ++g;
    }
  }
}

TEST(GenesisAdapters, CachingServiceRoundTripIsByteIdentical) {
  Replica source;
  services::ContentOrigin origin(*source.network, 8);
  services::CachingService cache(*source.network, 4, 8, /*capacity=*/3);
  for (std::int64_t content : {1, 2, 1, 3, 4, 2}) {
    ASSERT_TRUE(source.network
                    ->Inject(wli::Shuttle::Data(
                        0, 4, {services::kCacheOpGet, content},
                        static_cast<std::uint64_t>(content)))
                    .ok());
    source.simulator.RunAll();
  }
  ASSERT_GT(cache.hits(), 0u);
  const std::vector<std::byte> bytes =
      genesis::CachingServiceAdapter(cache).Save();

  Replica fresh;
  services::ContentOrigin twin_origin(*fresh.network, 8);
  services::CachingService twin(*fresh.network, 4, 8, /*capacity=*/3);
  genesis::CachingServiceAdapter adapter(twin);
  ASSERT_TRUE(adapter.Load(bytes).ok());
  EXPECT_EQ(adapter.Save(), bytes);
  EXPECT_EQ(twin.hits(), cache.hits());
  EXPECT_EQ(twin.misses(), cache.misses());
  EXPECT_EQ(twin.CachedObjects(), cache.CachedObjects());
}

// ---- Field perturbation through the walker ----------------------------------

/// A save archive that writes one scalar field perturbed: the `target`-th
/// scalar visited (bools flipped, enums moved to the next valid value,
/// every other word +1). With no target it only counts the scalars.
class PerturbArchive : public WriteArchive<PerturbArchive> {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};

  explicit PerturbArchive(std::size_t first, std::size_t target = kNone)
      : next_(first), target_(target) {}

  std::size_t next() const { return next_; }
  /// Tag path of the perturbed field, e.g. "0001/001a/0004".
  const std::string& path() const { return path_; }
  std::vector<std::byte> Finish() { return writer_.Finish(); }

  void Bool(TlvTag tag, bool value) {
    writer_.PutU32(tag, (Hit(tag) ? !value : value) ? 1 : 0);
  }
  template <class E>
  void Enum(TlvTag tag, const E& value, E count, const char*) {
    auto raw = static_cast<std::uint32_t>(value);
    if (Hit(tag)) raw = (raw + 1) % static_cast<std::uint32_t>(count);
    writer_.PutU32(tag, raw);
  }
  template <class Range, class Find>
  void Images(TlvTag tag, const Range& digests, Find&& find) {
    for (const auto& digest : digests) {
      writer_.PutBytes(tag, find(digest).Serialize());
    }
  }

 private:
  friend class WriteArchive<PerturbArchive>;
  void Word(TlvTag tag, std::uint64_t word, int width) {
    if (Hit(tag)) ++word;
    if (width == 4) {
      writer_.PutU32(tag, static_cast<std::uint32_t>(word));
    } else {
      writer_.PutU64(tag, word);
    }
  }
  void Text(TlvTag tag, std::string_view text) { writer_.PutString(tag, text); }
  void Bytes(TlvTag tag, std::span<const std::byte> bytes) {
    writer_.PutBytes(tag, bytes);
  }
  std::size_t Open(TlvTag tag) {
    stack_.push_back(tag);
    return writer_.BeginNested(tag);
  }
  void Close(std::size_t mark) {
    stack_.pop_back();
    writer_.EndNested(mark);
  }
  void Count(std::size_t) {}

  bool Hit(TlvTag tag) {
    if (next_++ != target_) return false;
    for (TlvTag outer : stack_) path_ += DigestToHex(outer).substr(12) + "/";
    path_ += DigestToHex(tag).substr(12);
    return true;
  }

  TlvWriter writer_;
  std::size_t next_;
  std::size_t target_;
  std::vector<TlvTag> stack_;
  std::string path_;
};

TEST(GenesisWalker, EveryVisitedFieldIsSavedHashedAndRestored) {
  // Walks every scalar field the golden world's sections and adapters
  // visit and perturbs each in turn. Each perturbation must change the
  // snapshot bytes; restoring the perturbed section and recapturing must
  // give them back; and the state digest must change for every field of a
  // decision-state section and of the router and cache adapters (telemetry
  // rows must not move the network's digest, by design). A perturbation a
  // restore refuses with a Status (structural fields: a ship's node, an EE
  // id, a node count, a link endpoint, a histogram's bucket origin) is
  // counted as refused instead.
  testing::GenesisWorld world;
  genesis::GenesisManager manager(*world.network);
  world.RegisterAdapters(manager);
  auto captured = manager.CaptureFull();
  ASSERT_TRUE(captured.ok());
  auto golden = genesis::ParseSnapshot(*captured);
  ASSERT_TRUE(golden.ok());

  // Every section as a field list over the golden world, in capture order:
  // the network's table, then the adapters as registered.
  struct Section {
    std::uint32_t id = 0;
    bool hashed = false;
    std::function<void(PerturbArchive&)> walk;
    std::size_t first = 0, end = 0;  // scalar index range
  };
  std::vector<Section> sections;
  world.network->ForEachSection(
      [&](std::uint32_t id, bool decision_state, auto&& visit) {
        sections.push_back(
            {id, decision_state, [visit](PerturbArchive& a) { visit(a); }});
      });
  const std::size_t builtins = sections.size();
  const auto adapter = [&](std::uint32_t offset, bool hashed, auto& target) {
    sections.push_back({genesis::kExtraSectionBase + offset, hashed,
                        [&target](PerturbArchive& a) { Walk(target, a); }});
  };
  adapter(0, false, *world.injector);
  adapter(1, false, *world.mobility);
  adapter(3, true, *world.cache);
  adapter(4, false, world.network->telemetry());
  adapter(5, false, *world.plane);
  adapter(2, true, *world.router);
  ASSERT_EQ(sections.size(), golden->sections.size());
  std::size_t fields = 0;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    ASSERT_EQ(sections[i].id, golden->sections[i].id);
    PerturbArchive count(fields);
    sections[i].walk(count);
    ASSERT_EQ(count.Finish(), golden->sections[i].payload)
        << genesis::SectionName(sections[i].id);
    sections[i].first = fields;
    sections[i].end = fields = count.next();
  }
  std::printf("walker visited %zu scalar fields in %zu sections\n", fields,
              sections.size());

  // Built-in sections restore (all of them, one perturbed) into a fresh
  // network through GenesisManager; `recapture` saves one section again.
  const auto restore = [&](std::size_t perturbed,
                           const std::vector<std::byte>& payload) {
    genesis::SnapshotBuilder builder(golden->header);
    for (std::size_t i = 0; i < builtins; ++i) {
      const genesis::SectionRecord& record = golden->sections[i];
      builder.AddSection(record.id, i == perturbed ? payload : record.payload);
    }
    auto shell = std::make_unique<testing::GenesisWorld>(/*drive=*/false);
    genesis::GenesisManager target(*shell->network);
    const Status status = target.RestoreFull(builder.Finish());
    return std::make_pair(std::move(shell), status);
  };
  const auto recapture = [](wli::WanderingNetwork& network, std::uint32_t id) {
    std::vector<std::byte> out;
    network.ForEachSection([&](std::uint32_t row, bool, auto&& visit) {
      if (row != id) return;
      SaveArchive archive;
      visit(archive);
      out = archive.Finish();
    });
    return out;
  };
  const auto network_digest = [](const testing::GenesisWorld& w) {
    Hasher hasher;
    w.network->MixDigest(hasher);
    return hasher.digest();
  };
  auto [processes, restored_ok] = restore(builtins, {});
  ASSERT_TRUE(restored_ok.ok()) << restored_ok.ToString();
  const std::uint64_t base_network = network_digest(*processes);

  // Adapter sections load into the processes of one restored shell: each
  // adapter load replaces all of its target's state.
  processes->BuildRouter();
  genesis::GenesisManager shell_manager(*processes->network);
  processes->RegisterAdapters(shell_manager);
  const std::vector<genesis::Snapshotable*> adapters = {
      processes->failure_adapter.get(), processes->mobility_adapter.get(),
      processes->cache_adapter.get(),   processes->telemetry_adapter.get(),
      processes->health_adapter.get(),  processes->router_adapter.get()};
  const auto load_golden = [&](std::size_t i) {
    ASSERT_TRUE(adapters[i]->Load(golden->sections[builtins + i].payload).ok());
  };
  for (std::size_t i = 0; i < adapters.size(); ++i) load_golden(i);
  const auto process_digest = [&] {
    Hasher hasher;
    HashFields(*processes->router, hasher);
    processes->cache->MixDigest(hasher);
    return hasher.digest();
  };
  const std::uint64_t base_processes = process_digest();

  std::size_t refused = 0;
  std::size_t merged_keys = 0;
  std::size_t layout_words = 0;
  for (std::size_t s = 0; s < sections.size(); ++s) {
    const Section& section = sections[s];
    const std::vector<std::byte>& original = golden->sections[s].payload;
    for (std::size_t k = section.first; k < section.end; ++k) {
      PerturbArchive perturb(section.first, k);
      section.walk(perturb);
      const std::vector<std::byte> payload = perturb.Finish();
      const std::string where = genesis::SectionName(section.id) + " field " +
                                std::to_string(k - section.first) + " (" +
                                perturb.path() + ")";
      ASSERT_NE(payload, original) << where;

      // Restore it and save it again.
      std::unique_ptr<testing::GenesisWorld> fresh;
      genesis::Snapshotable* target = nullptr;
      Status status;
      if (s < builtins) {
        std::tie(fresh, status) = restore(s, payload);
      } else {
        target = adapters[s - builtins];
        status = target->Load(payload);
      }
      if (!status.ok()) {
        ++refused;
        if (target != nullptr) load_golden(s - builtins);
        continue;
      }
      const auto save = [&] {
        return target != nullptr ? target->Save()
                                 : recapture(*fresh->network, section.id);
      };
      const std::vector<std::byte> recaptured = save();
      if (recaptured == original) {
        // Only layout words may leave no trace: the latency window sketch's
        // fixed coordinates. (A histogram's bucket origin is refused.)
        const std::string path = perturb.path();
        const bool layout = section.id == genesis::kSectionLatency &&
                            path.starts_with("0002/");
        EXPECT_TRUE(layout) << where << " was not restored";
        ++layout_words;
        continue;
      }
      if (recaptured != payload) {
        // A key moved onto its neighbour's (fact 901 -> 902): the restored
        // state merged the two entries. It must be stable under another
        // restore.
        if (target != nullptr) {
          ASSERT_TRUE(target->Load(recaptured).ok()) << where;
        } else {
          std::tie(fresh, status) = restore(s, recaptured);
          ASSERT_TRUE(status.ok()) << where;
        }
        ASSERT_EQ(save(), recaptured) << where << " did not round-trip";
        ++merged_keys;
      }

      // The digest sees it exactly when the section is hashed.
      if (target == nullptr) {
        const bool moved = network_digest(*fresh) != base_network;
        EXPECT_EQ(moved, section.hashed)
            << where << (section.hashed ? " is not in the digest"
                                        : " moved the network digest");
      } else if (section.hashed) {
        EXPECT_NE(process_digest(), base_processes)
            << where << " is not in the digest";
      }
    }
  }
  std::printf("%zu of %zu perturbations refused by restore checks, %zu "
              "merged two keys, %zu hit layout words\n",
              refused, fields, merged_keys, layout_words);
  EXPECT_LT(refused + merged_keys + layout_words, fields / 10);
}

// ---- Genome fuzzing (satellite: DecodeBlueprint never crashes) --------------

TEST(GenomeFuzz, BlueprintBitFlipsAlwaysReturnStatusErrors) {
  wli::ShipBlueprint blueprint;
  blueprint.ship_class = node::ShipClass::kAgent;
  blueprint.role = node::FirstLevelRole::kDelegation;
  blueprint.resident_programs = {0x1234, 0x5678};
  blueprint.facts.push_back({42, 7, 1.5});
  blueprint.modules.push_back(
      {3, node::SecondLevelClass::kSupplementary, 128, 2.0, 0x9abc});
  wli::NetFunction fn;
  fn.id = 11;
  fn.name = "fuzzed";
  fn.fact_keys = {42};
  blueprint.functions.push_back(fn);

  const std::vector<std::byte> genome = wli::EncodeBlueprint(blueprint);
  ASSERT_TRUE(wli::DecodeBlueprint(genome).ok());

  // Every single-bit corruption must be caught by the checksum trailer.
  for (std::size_t bit = 0; bit < genome.size() * 8; ++bit) {
    std::vector<std::byte> corrupt = genome;
    corrupt[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    auto decoded = wli::DecodeBlueprint(corrupt);
    EXPECT_FALSE(decoded.ok()) << "bit " << bit << " flip decoded fine";
  }
  // Every truncation must fail cleanly too.
  for (std::size_t len = 0; len < genome.size(); ++len) {
    std::vector<std::byte> truncated(genome.begin(), genome.begin() + len);
    EXPECT_FALSE(wli::DecodeBlueprint(truncated).ok())
        << "truncation to " << len << " bytes decoded fine";
  }
}

TEST(GenomeFuzz, MultiByteCorruptionNeverCrashesDecode) {
  wli::ShipBlueprint blueprint;
  blueprint.resident_programs = {1, 2, 3};
  const std::vector<std::byte> genome = wli::EncodeBlueprint(blueprint);

  // Deterministic pseudo-random multi-byte corruption: whatever happens,
  // DecodeBlueprint must return (ok or error), never crash or hang.
  Rng rng(777);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::byte> corrupt = genome;
    const int edits = static_cast<int>(rng.UniformInt(1, 8));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos =
          static_cast<std::size_t>(rng.UniformInt(0, corrupt.size() - 1));
      corrupt[pos] = static_cast<std::byte>(rng.UniformInt(0, 255));
    }
    auto decoded = wli::DecodeBlueprint(corrupt);  // must not crash
    (void)decoded;
  }
  SUCCEED();
}

}  // namespace
}  // namespace viator
