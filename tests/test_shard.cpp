// Tier-1 tests for the sharded parallel simulation core (src/shard): shard
// planning, cross-shard transit, conservative window edge cases, and the
// headline decision-identity proof — a >=4-shard world stepped with 4
// threads makes bit-identical decisions to the same world stepped with 1,
// certified by the Flight Recorder (identical per-window hash timelines and
// a clean DivergenceAuditor diff).
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/tlv.h"
#include "replay/auditor.h"
#include "replay/journal.h"
#include "replay/scenario.h"
#include "shard/mailbox.h"
#include "shard/plan.h"
#include "shard/sharded_network.h"
#include "telemetry/export.h"
#include "telemetry/mem_stats.h"
#include "telemetry/perf_counters.h"
#include "telemetry/shard_metrics.h"

namespace viator {
namespace {

// ---- ShardPlan --------------------------------------------------------------

TEST(ShardPlan, ContiguousBlocksPartitionEvenly) {
  net::Topology grid = net::MakeGrid(8, 8);
  Result<shard::ShardPlan> plan =
      shard::BuildShardPlan(grid, 4, shard::ContiguousBlocks(4));
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->shard_count(), 4u);
  for (shard::ShardId s = 0; s < 4; ++s) {
    EXPECT_EQ(plan->members(s).size(), 16u);
  }
  // Global<->local maps round-trip, locals ascend in global order.
  for (net::NodeId node = 0; node < grid.node_count(); ++node) {
    const shard::ShardId s = plan->shard_of(node);
    EXPECT_EQ(plan->global_of(s, plan->local_of(node)), node);
  }
  EXPECT_EQ(plan->shard_of(0), 0u);
  EXPECT_EQ(plan->shard_of(63), 3u);
  // A row-major 8x8 grid cut into 2-row bands has 8 vertical cross links per
  // cut: 24 in total, and the window bound is the (uniform) link latency.
  EXPECT_EQ(plan->cross_links().size(), 24u);
  EXPECT_EQ(plan->min_cross_latency(), sim::kMillisecond);
  // Adjacent bands route directly; distant bands route through a first hop
  // toward the destination.
  EXPECT_NE(plan->RouteLink(0, 1), shard::ShardPlan::kInvalidRoute);
  const std::size_t far = plan->RouteLink(0, 3);
  ASSERT_NE(far, shard::ShardPlan::kInvalidRoute);
  const shard::CrossLink& first_hop = plan->cross_links()[far];
  EXPECT_TRUE(first_hop.shard_a == 0 || first_hop.shard_b == 0);
}

TEST(ShardPlan, RejectsInvalidAssignments) {
  net::Topology line = net::MakeLine(4);
  EXPECT_FALSE(
      shard::BuildShardPlan(line, 0, shard::ContiguousBlocks(1)).ok());
  auto out_of_range = [](net::NodeId, const net::Topology&) {
    return shard::ShardId{7};
  };
  Result<shard::ShardPlan> bad = shard::BuildShardPlan(line, 2, out_of_range);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardPlan, GatewayChoiceIsDeterministicBestLink) {
  // Two parallel cross links between the shards; the lower-latency one must
  // be the gateway regardless of insertion order.
  net::Topology topology;
  topology.AddNodes(4);
  net::LinkConfig slow;
  slow.latency = 5 * sim::kMillisecond;
  net::LinkConfig fast;
  fast.latency = 2 * sim::kMillisecond;
  topology.AddLink(0, 1, fast);
  topology.AddLink(0, 2, slow);  // cross
  topology.AddLink(1, 3, fast);  // cross
  topology.AddLink(2, 3, fast);
  auto assignment = [](net::NodeId node, const net::Topology&) {
    return static_cast<shard::ShardId>(node < 2 ? 0 : 1);
  };
  Result<shard::ShardPlan> plan = shard::BuildShardPlan(topology, 2, assignment);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->cross_links().size(), 2u);
  EXPECT_EQ(plan->min_cross_latency(), 2 * sim::kMillisecond);
  const std::size_t route = plan->RouteLink(0, 1);
  ASSERT_NE(route, shard::ShardPlan::kInvalidRoute);
  EXPECT_EQ(plan->cross_links()[route].config.latency, 2 * sim::kMillisecond);
}

// ---- Mailbox ----------------------------------------------------------------

TEST(MailboxGrid, DrainSortsByArrivalSourceSequence) {
  shard::MailboxGrid mailbox(2);
  auto make = [](sim::TimePoint at, shard::ShardId src, std::uint64_t seq) {
    shard::Handoff h;
    h.arrival_time = at;
    h.source_shard = src;
    h.sequence = seq;
    return h;
  };
  // Deposited in a scrambled order a racy run could produce.
  mailbox.Push(0, make(20, 1, 1));
  mailbox.Push(0, make(10, 2, 0));
  mailbox.Push(1, make(10, 1, 1));
  mailbox.Push(0, make(10, 1, 0));
  mailbox.Push(0, make(10, 2, 1));
  EXPECT_FALSE(mailbox.Empty());
  std::vector<shard::Handoff> batch = mailbox.DrainSorted();
  ASSERT_EQ(batch.size(), 5u);
  // Canonical total order: time, then source shard, then sequence.
  EXPECT_EQ(batch[0].source_shard, 1u);
  EXPECT_EQ(batch[0].sequence, 0u);
  EXPECT_EQ(batch[1].source_shard, 1u);
  EXPECT_EQ(batch[1].sequence, 1u);
  EXPECT_EQ(batch[2].source_shard, 2u);
  EXPECT_EQ(batch[2].sequence, 0u);
  EXPECT_EQ(batch[3].source_shard, 2u);
  EXPECT_EQ(batch[3].sequence, 1u);
  EXPECT_EQ(batch[4].arrival_time, 20u);
  EXPECT_TRUE(mailbox.Empty());
  EXPECT_EQ(mailbox.total_handoffs(), 5u);
}

// ---- Cross-shard transit ----------------------------------------------------

TEST(ShardedNetwork, DeliversAcrossShards) {
  net::Topology grid = net::MakeGrid(4, 4);
  shard::ShardedConfig config;
  config.shard_count = 2;
  config.threads = 1;
  shard::ShardedNetwork world(grid, config);
  EXPECT_EQ(world.window(), sim::kMillisecond);
  ASSERT_TRUE(world.Inject(0, 15, {42}, 7).ok());  // shard 0 -> shard 1
  world.RunUntilQuiescent(100);
  EXPECT_EQ(world.Delivered(), 1u);
  EXPECT_GE(world.stats().CounterValue("shard.handoffs"), 1u);
  EXPECT_EQ(world.clamped_handoffs(), 0u);
}

TEST(ShardedNetwork, RoutesThroughIntermediateShards) {
  // 3 shards in a line: 0-1 | 2-3 | 4-5. A capsule from node 0 to node 5
  // must hop shard 0 -> 1 -> 2 (two boundary crossings).
  net::Topology line = net::MakeLine(6);
  shard::ShardedConfig config;
  config.shard_count = 3;
  config.threads = 1;
  shard::ShardedNetwork world(line, config);
  ASSERT_TRUE(world.Inject(0, 5, {1, 2, 3}).ok());
  world.RunUntilQuiescent(200);
  EXPECT_EQ(world.Delivered(), 1u);
  EXPECT_EQ(world.stats().CounterValue("shard.handoffs"), 2u);
}

TEST(ShardedNetwork, InjectRejectsUnknownNodes) {
  net::Topology line = net::MakeLine(4);
  shard::ShardedConfig config;
  config.shard_count = 2;
  config.threads = 1;
  shard::ShardedNetwork world(line, config);
  EXPECT_EQ(world.Inject(0, 99, {1}).code(), StatusCode::kInvalidArgument);
}

// ---- Window edge cases ------------------------------------------------------

TEST(ShardedNetwork, ZeroLatencyCrossLinkClampsWindowToOneTick) {
  // A zero-latency cross link would collapse the conservative window to
  // nothing; the plan clamps the window to one tick and the merge defers
  // such arrivals to the boundary, counting every deferral.
  net::Topology topology;
  topology.AddNodes(2);
  net::LinkConfig instant;
  instant.latency = 0;
  topology.AddLink(0, 1, instant);
  shard::ShardedConfig config;
  config.shard_count = 2;
  config.threads = 1;
  config.assignment = [](net::NodeId node, const net::Topology&) {
    return static_cast<shard::ShardId>(node);
  };
  shard::ShardedNetwork world(topology, config);
  EXPECT_EQ(world.window(), 1u);
  ASSERT_TRUE(world.Inject(0, 1, {5}).ok());
  world.RunUntilQuiescent(16);
  EXPECT_EQ(world.Delivered(), 1u);
  EXPECT_GE(world.clamped_handoffs(), 1u);
}

TEST(ShardedNetwork, ToleratesEmptyShards) {
  // Shard 1 owns no nodes at all; windows must still run and cross-shard
  // traffic between shards 0 and 2 must still flow.
  net::Topology line = net::MakeLine(4);
  shard::ShardedConfig config;
  config.shard_count = 3;
  config.threads = 1;
  config.assignment = [](net::NodeId node, const net::Topology&) {
    return static_cast<shard::ShardId>(node < 2 ? 0 : 2);
  };
  shard::ShardedNetwork world(line, config);
  EXPECT_TRUE(world.plan().members(1).empty());
  ASSERT_TRUE(world.Inject(0, 3, {9}).ok());
  world.RunUntilQuiescent(100);
  EXPECT_EQ(world.Delivered(), 1u);
}

TEST(ShardedNetwork, QueueDrainingMidWindowLeavesWorldQuiescent) {
  // Intra-shard traffic finishes well inside the long window bought by a
  // slow cross link; subsequent windows dispatch nothing and quiescence
  // detection sees through the drained queues.
  net::Topology topology;
  topology.AddNodes(4);
  net::LinkConfig local;
  local.latency = sim::kMillisecond;
  net::LinkConfig cross;
  cross.latency = 10 * sim::kMillisecond;
  topology.AddLink(0, 1, local);
  topology.AddLink(2, 3, local);
  topology.AddLink(1, 2, cross);
  shard::ShardedConfig config;
  config.shard_count = 2;
  config.threads = 1;
  shard::ShardedNetwork world(topology, config);
  EXPECT_EQ(world.window(), 10 * sim::kMillisecond);
  ASSERT_TRUE(world.Inject(0, 1, {1}).ok());
  world.RunWindows(1);
  EXPECT_EQ(world.Delivered(), 1u);
  EXPECT_TRUE(world.IsQuiescent());
  const std::uint64_t settled = world.total_dispatched();
  EXPECT_EQ(world.RunWindows(2), 0u);
  EXPECT_EQ(world.total_dispatched(), settled);
  EXPECT_EQ(world.window_index(), 3u);
}

// ---- The decision-identity proof -------------------------------------------

/// The reference workload both thread counts execute: staged injections,
/// parallel windows, one metamorphosis pulse on every shard, more windows,
/// then a bounded drain (RunUntilQuiescent(256)). Windows run one at a
/// time; `each_window`, when set, runs after every one.
void RunReferenceWorkload(shard::ShardedNetwork& world,
                          const std::function<void()>& each_window = {}) {
  const auto run = [&](std::size_t windows) {
    for (std::size_t i = 0; i < windows; ++i) {
      world.RunWindows(1);
      if (each_window) each_window();
    }
  };
  const std::uint64_t nodes = 64;
  for (std::uint64_t i = 0; i < 48; ++i) {
    ASSERT_TRUE(
        world.Inject(i % nodes, (i * 29 + 17) % nodes,
                     {static_cast<std::int64_t>(i)}, /*flow=*/i)
            .ok());
  }
  run(6);
  world.PulseAll();
  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        world.Inject((i * 13 + 5) % nodes, (i * 41 + 2) % nodes, {7, 8}, i)
            .ok());
  }
  run(6);
  for (std::size_t i = 0; i < 256 && !world.IsQuiescent(); ++i) run(1);
}

TEST(ShardedNetwork, FourThreadsDecisionIdenticalToSingleThread) {
  // The tentpole claim: 4 shards on 4 worker threads produce bit-identical
  // decisions to the same partitioned world on 1 thread — same per-window
  // hash timeline, same journal digest, and a clean DivergenceAuditor diff.
  net::Topology grid = net::MakeGrid(8, 8);
  shard::ShardedConfig config;
  config.shard_count = 4;
  config.seed = 0xabcd1234;
  config.hash_every = 1;
  config.assignment = shard::GridRowBands(8, 8, 4);

  config.threads = 1;
  shard::ShardedNetwork sequential(grid, config);
  RunReferenceWorkload(sequential);

  config.threads = 4;
  shard::ShardedNetwork parallel(grid, config);
  RunReferenceWorkload(parallel);

  EXPECT_EQ(parallel.threads(), 4u);
  EXPECT_EQ(sequential.threads(), 1u);
  EXPECT_GT(sequential.Delivered(), 0u);
  EXPECT_GT(sequential.stats().CounterValue("shard.handoffs"), 0u);

  // Identical per-window hash timelines, element by element.
  const auto& hashes_1 = sequential.journal().window_hashes();
  const auto& hashes_4 = parallel.journal().window_hashes();
  ASSERT_EQ(hashes_1.size(), hashes_4.size());
  ASSERT_GT(hashes_1.size(), 0u);
  for (std::size_t i = 0; i < hashes_1.size(); ++i) {
    EXPECT_EQ(hashes_1[i], hashes_4[i]) << "window timeline diverges at " << i;
  }

  // Identical full journals (shard hashes included) and end states.
  EXPECT_EQ(sequential.journal().total_records(),
            parallel.journal().total_records());
  EXPECT_EQ(sequential.journal().rolling_digest(),
            parallel.journal().rolling_digest());
  EXPECT_EQ(sequential.StateHash(), parallel.StateHash());
  EXPECT_EQ(sequential.Delivered(), parallel.Delivered());
  EXPECT_EQ(sequential.total_dispatched(), parallel.total_dispatched());

  // And the auditor agrees: no divergence anywhere.
  const replay::DivergenceReport report = replay::DivergenceAuditor::Compare(
      sequential.journal(), parallel.journal());
  EXPECT_FALSE(report.diverged) << report.summary;
}

/// Requires the window that just ran to have hashed exactly: each shard
/// hash the journal recorded (taken on the workers, through the cached ship
/// and topology digests) and the merged StateHash equal their uncached
/// reference walks.
void ExpectWindowHashesExact(shard::ShardedNetwork& world) {
  const std::uint64_t window = world.window_index();
  std::vector<std::optional<std::uint64_t>> recorded(world.shard_count());
  const replay::DecisionJournal& journal = world.journal();
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const replay::JournalRecord& record = journal.at(i);
    if (record.kind == replay::RecordKind::kShardHash &&
        record.time == window) {
      recorded[record.stream] = record.a;
    }
  }
  Hasher plan;
  world.plan().MixDigest(plan);
  Hasher merged;
  merged.Mix(plan.digest());
  for (shard::ShardId shard = 0; shard < world.shard_count(); ++shard) {
    const wli::WanderingNetwork& network = world.shard_network(shard);
    Hasher reference;
    network.MixDigestUncached(reference);
    ASSERT_TRUE(recorded[shard].has_value())
        << "window " << window << " shard " << shard;
    EXPECT_EQ(*recorded[shard], reference.digest())
        << "window " << window << " shard " << shard;
    network.MixDigestUncached(merged);
  }
  EXPECT_EQ(world.StateHash(), merged.digest()) << "window " << window;
}

TEST(ShardedNetwork, CachedWindowHashesEqualTheReference) {
  // The per-window hashes re-hash only the ships a window changed; in every
  // window of the reference workload, pulses included, they must equal a
  // full walk, on 1 thread and on 4.
  net::Topology grid = net::MakeGrid(8, 8);
  shard::ShardedConfig config;
  config.shard_count = 4;
  config.seed = 0xabcd1234;
  config.hash_every = 1;
  config.assignment = shard::GridRowBands(8, 8, 4);
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    config.threads = threads;
    shard::ShardedNetwork world(grid, config);
    std::size_t windows = 0;
    RunReferenceWorkload(world, [&] {
      ExpectWindowHashesExact(world);
      ++windows;
    });
    EXPECT_TRUE(world.IsQuiescent());
    EXPECT_GT(windows, 12u);
    EXPECT_EQ(windows, world.journal().window_hashes().size());
  }
}

TEST(ShardedNetwork, DivergenceAuditorNamesTheDivergingShard) {
  // Different seeds -> different worlds; the auditor must detect divergence
  // between their journals (the negative control for the test above).
  net::Topology grid = net::MakeGrid(4, 4);
  shard::ShardedConfig config;
  config.shard_count = 4;
  config.threads = 1;

  shard::ShardedNetwork a(grid, config);
  config.seed = 0x9999;
  shard::ShardedNetwork b(grid, config);
  for (auto* world : {&a, &b}) {
    ASSERT_TRUE(world->Inject(0, 15, {1}).ok());
    world->RunWindows(4);
    world->PulseAll();
    world->RunWindows(4);
  }
  const replay::DivergenceReport report =
      replay::DivergenceAuditor::Compare(a.journal(), b.journal());
  EXPECT_TRUE(report.diverged);
  EXPECT_GT(report.first_divergent_step, 0u);
}

// ---- Checkpoint / restore ---------------------------------------------------

TEST(ShardedNetwork, CheckpointRestoreAtWindowBoundaryIsBitIdentical) {
  net::Topology grid = net::MakeGrid(4, 4);
  shard::ShardedConfig config;
  config.shard_count = 4;
  config.threads = 2;
  config.seed = 77;

  shard::ShardedNetwork original(grid, config);
  for (std::uint64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(original.Inject(i % 16, (i * 5 + 3) % 16, {1}, i).ok());
  }
  original.RunUntilQuiescent(128);
  ASSERT_TRUE(original.IsQuiescent());
  const std::uint64_t hash_at_capture = original.StateHash();
  const std::uint64_t window_at_capture = original.window_index();
  Result<std::vector<std::byte>> checkpoint = original.CaptureCheckpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();

  // Continue the original past the checkpoint.
  auto continue_run = [](shard::ShardedNetwork& world) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(world.Inject((i * 3) % 16, (i * 7 + 1) % 16, {2}, i).ok());
    }
    world.RunWindows(5);
    world.RunUntilQuiescent(128);
  };
  continue_run(original);

  // Restore into a fresh shell and replay the same continuation.
  shard::ShardedNetwork restored(grid, config, /*populate=*/false);
  ASSERT_TRUE(restored.RestoreCheckpoint(*checkpoint).ok());
  EXPECT_EQ(restored.window_index(), window_at_capture);
  EXPECT_EQ(restored.StateHash(), hash_at_capture);
  continue_run(restored);

  // Bit-identical continuation: same state, same hash timeline, clean diff.
  EXPECT_EQ(restored.StateHash(), original.StateHash());
  EXPECT_EQ(restored.window_index(), original.window_index());
  EXPECT_EQ(restored.Delivered(), original.Delivered());
  EXPECT_EQ(restored.journal().rolling_digest(),
            original.journal().rolling_digest());
  const replay::DivergenceReport report = replay::DivergenceAuditor::Compare(
      original.journal(), restored.journal());
  EXPECT_FALSE(report.diverged) << report.summary;
}

/// Re-seals a sharded checkpoint in its own framing, in which each shard's
/// container is a sealed record (tag 0x11). `edit` sees every record and
/// may write replacements; it returns false to have the record copied as
/// it is.
std::vector<std::byte> ResealCheckpoint(
    std::span<const std::byte> checkpoint,
    const std::function<bool(const TlvRecord&, TlvWriter&)>& edit) {
  constexpr TlvTag kContainer = 0x11;
  TlvReader reader(checkpoint);
  EXPECT_TRUE(reader.Verify(kContainer).ok());
  TlvWriter out;
  while (reader.HasNext()) {
    const Result<TlvRecord> record = reader.Next();
    if (!record.ok()) {
      ADD_FAILURE() << record.status().ToString();
      break;
    }
    if (edit(*record, out)) continue;
    if (record->tag == kContainer) {
      out.PutSealed(record->tag, record->payload);
    } else {
      out.PutBytes(record->tag, record->payload);
    }
  }
  return out.Finish();
}

/// A u64 record's value, as TlvWriter put it (little-endian).
std::uint64_t U64Of(const TlvRecord& record) {
  EXPECT_EQ(record.payload.size(), 8u) << "record " << record.tag;
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < record.payload.size() && i < 8; ++i) {
    value |= static_cast<std::uint64_t>(record.payload[i]) << (8 * i);
  }
  return value;
}

TEST(ShardedNetwork, CheckpointRefusedUnderADifferentPlan) {
  // Shard worlds fit only the plan they were cut by. A checkpoint records
  // the plan digest, and a world built on another plan (another grid, or
  // the same grid split another way) refuses it.
  const auto capture = [](const net::Topology& grid,
                          const shard::ShardedConfig& config) {
    shard::ShardedNetwork world(grid, config);
    const std::uint64_t nodes = grid.node_count();
    for (std::uint64_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(world.Inject(i % nodes, (i * 7 + 5) % nodes, {1}, i).ok());
    }
    world.RunUntilQuiescent(256);
    Result<std::vector<std::byte>> checkpoint = world.CaptureCheckpoint();
    EXPECT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
    return checkpoint.ok() ? *checkpoint : std::vector<std::byte>{};
  };
  const net::Topology small = net::MakeGrid(4, 4);
  const net::Topology large = net::MakeGrid(6, 6);
  shard::ShardedConfig rows;
  rows.shard_count = 2;
  rows.threads = 1;
  rows.assignment = shard::GridRowBands(4, 4, 2);
  shard::ShardedConfig large_rows = rows;
  large_rows.assignment = shard::GridRowBands(6, 6, 2);
  shard::ShardedConfig columns = rows;
  columns.assignment = [](net::NodeId node, const net::Topology&) {
    return static_cast<shard::ShardId>(node % 4 < 2 ? 0 : 1);
  };

  struct Case {
    const char* what;
    const net::Topology* from;
    const shard::ShardedConfig* from_config;
    const net::Topology* into;
    const shard::ShardedConfig* into_config;
  };
  const Case cases[] = {
      {"4x4 into 6x6", &small, &rows, &large, &large_rows},
      {"6x6 into 4x4", &large, &large_rows, &small, &rows},
      {"row bands into columns", &small, &rows, &small, &columns},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const std::vector<std::byte> checkpoint = capture(*c.from, *c.from_config);
    ASSERT_FALSE(checkpoint.empty());
    shard::ShardedNetwork shell(*c.into, *c.into_config, /*populate=*/false);
    EXPECT_EQ(shell.RestoreCheckpoint(checkpoint).code(),
              StatusCode::kInvalidArgument);
    // The same plan still restores it.
    shard::ShardedNetwork same(*c.from, *c.from_config, /*populate=*/false);
    EXPECT_TRUE(same.RestoreCheckpoint(checkpoint).ok());
  }

  // A checkpoint that records no plan is refused too.
  const std::vector<std::byte> checkpoint = capture(small, rows);
  std::size_t dropped = 0;
  const std::vector<std::byte> stripped =
      ResealCheckpoint(checkpoint, [&](const TlvRecord& record, TlvWriter&) {
        if (record.tag != 0x07) return false;
        ++dropped;
        return true;
      });
  ASSERT_EQ(dropped, 1u);
  shard::ShardedNetwork shell(small, rows, /*populate=*/false);
  EXPECT_EQ(shell.RestoreCheckpoint(stripped).code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedNetwork, CheckpointRefusedWhileHandoffsInFlight) {
  net::Topology grid = net::MakeGrid(4, 4);
  shard::ShardedConfig config;
  config.shard_count = 2;
  config.threads = 1;
  shard::ShardedNetwork world(grid, config);
  ASSERT_TRUE(world.Inject(0, 15, {1}).ok());
  // Events pending, nothing run yet: not a legal checkpoint state.
  EXPECT_FALSE(world.IsQuiescent());
  EXPECT_EQ(world.CaptureCheckpoint().status().code(),
            StatusCode::kFailedPrecondition);
}

/// The 4x4 grid in four shards on `threads` workers.
shard::ShardedConfig CheckpointConfig(std::size_t threads) {
  shard::ShardedConfig config;
  config.shard_count = 4;
  config.threads = threads;
  config.seed = 77;
  return config;
}

/// Cross-shard traffic, run to a quiescent window boundary.
void DriveToBoundary(shard::ShardedNetwork& world) {
  for (std::uint64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(world.Inject(i % 16, (i * 5 + 3) % 16, {1}, i).ok());
  }
  world.RunUntilQuiescent(128);
  ASSERT_TRUE(world.IsQuiescent());
}

TEST(ShardedNetwork, CheckpointBytesIndependentOfThreads) {
  // Each shard is captured on the worker that owns it and the checkpoint
  // is assembled in shard order, so its bytes do not depend on the thread
  // count; and a checkpoint restores into a shell with any thread count.
  const net::Topology grid = net::MakeGrid(4, 4);
  std::vector<std::vector<std::byte>> checkpoints;
  std::uint64_t state_hash = 0;
  for (std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    shard::ShardedNetwork world(grid, CheckpointConfig(threads));
    ASSERT_EQ(world.threads(), threads);
    DriveToBoundary(world);
    state_hash = world.StateHash();
    Result<std::vector<std::byte>> checkpoint = world.CaptureCheckpoint();
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
    checkpoints.push_back(*std::move(checkpoint));
  }
  EXPECT_TRUE(checkpoints[1] == checkpoints[0]) << "threads 2 differs";
  EXPECT_TRUE(checkpoints[2] == checkpoints[0]) << "threads 4 differs";

  shard::ShardedNetwork shell(grid, CheckpointConfig(4), /*populate=*/false);
  ASSERT_TRUE(shell.RestoreCheckpoint(checkpoints[0]).ok());
  EXPECT_EQ(shell.StateHash(), state_hash);
}

TEST(ShardedNetwork, CheckpointBitFlipsAreRefused) {
  // Sampled bit flips across a whole checkpoint: each is refused, and no
  // shard of the shell gains a ship. Every shard's container is verified
  // before any shard is applied, so a flip in the last shard leaves the
  // first ones untouched too.
  const net::Topology grid = net::MakeGrid(4, 4);
  shard::ShardedNetwork world(grid, CheckpointConfig(2));
  DriveToBoundary(world);
  Result<std::vector<std::byte>> checkpoint = world.CaptureCheckpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  {
    shard::ShardedNetwork shell(grid, CheckpointConfig(2), false);
    ASSERT_TRUE(shell.RestoreCheckpoint(*checkpoint).ok());
  }

  const std::vector<std::byte>& bytes = *checkpoint;
  std::size_t flips = 0;
  for (std::size_t bit = 0; bit < bytes.size() * 8; bit += 211) {
    std::vector<std::byte> corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    shard::ShardedNetwork shell(grid, CheckpointConfig(2), false);
    EXPECT_FALSE(shell.RestoreCheckpoint(corrupt).ok())
        << "bit " << bit << " flip was not detected";
    for (shard::ShardId s = 0; s < shell.shard_count(); ++s) {
      EXPECT_EQ(shell.shard_network(s).ship_count(), 0u)
          << "bit " << bit << " flip touched shard " << s;
    }
    ++flips;
  }
  EXPECT_GT(flips, 100u);
}

TEST(ShardedNetwork, CheckpointWrongWidthScalarsAreRefused) {
  // Each of the checkpoint's scalar records, re-sealed 4 bytes wide, is
  // refused rather than read as 0 (a handoff ordinal read as 0 used to
  // restore OK and then diverge from the original's continuation).
  const net::Topology grid = net::MakeGrid(4, 4);
  shard::ShardedNetwork world(grid, CheckpointConfig(1));
  DriveToBoundary(world);
  Result<std::vector<std::byte>> checkpoint = world.CaptureCheckpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  const auto narrowed = [&](TlvTag tag) {
    bool done = false;
    const auto narrow = [&](const TlvRecord& record, TlvWriter& out) {
      if (done || record.tag != tag) return false;
      out.PutU32(tag, static_cast<std::uint32_t>(U64Of(record)));
      done = true;
      return true;
    };
    return ResealCheckpoint(*checkpoint, narrow);
  };
  {
    shard::ShardedNetwork shell(grid, CheckpointConfig(1), false);
    EXPECT_TRUE(shell.RestoreCheckpoint(narrowed(0x7fff)).ok())
        << "an unedited re-seal must restore";
  }
  const std::pair<TlvTag, const char*> fields[] = {
      {0x01, "window index"}, {0x02, "shard count"}, {0x07, "plan digest"},
      {0x03, "clamped"},      {0x04, "unroutable"},  {0x10, "handoff ordinal"}};
  for (const auto& [tag, what] : fields) {
    shard::ShardedNetwork shell(grid, CheckpointConfig(1), false);
    const Status status = shell.RestoreCheckpoint(narrowed(tag));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << what << ": " << status.ToString();
    for (shard::ShardId s = 0; s < shell.shard_count(); ++s) {
      EXPECT_EQ(shell.shard_network(s).ship_count(), 0u) << what;
    }
  }
}

TEST(ShardedNetwork, MalformedCheckpointGroupsAreRefused) {
  // Re-sealed checkpoints whose shard groups (handoff ordinal 0x10, then
  // the sealed container 0x11) do not add up to the world's shards, or
  // whose containers belong to another shard or another checkpoint: each
  // is refused, and no shard of the shell gains a ship.
  const net::Topology grid = net::MakeGrid(4, 4);
  shard::ShardedNetwork world(grid, CheckpointConfig(2));
  DriveToBoundary(world);
  Result<std::vector<std::byte>> checkpoint = world.CaptureCheckpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  const std::uint64_t shards = world.shard_count();
  DriveToBoundary(world);
  Result<std::vector<std::byte>> later = world.CaptureCheckpoint();
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  const auto containers = [](std::span<const std::byte> bytes) {
    std::vector<std::vector<std::byte>> found;
    ResealCheckpoint(bytes, [&](const TlvRecord& record, TlvWriter&) {
      if (record.tag == 0x11) {
        found.emplace_back(record.payload.begin(), record.payload.end());
      }
      return false;
    });
    return found;
  };
  const std::vector<std::vector<std::byte>> own = containers(*checkpoint);
  const std::vector<std::vector<std::byte>> next = containers(*later);
  ASSERT_EQ(own.size(), shards);
  ASSERT_EQ(next.size(), shards);

  // `edit(record, nth, out)` sees each record with the count of earlier
  // records of its tag, as ResealCheckpoint's edits do.
  const auto resealed = [&](const std::function<bool(const TlvRecord&,
                                                     std::size_t, TlvWriter&)>&
                                edit) {
    std::map<TlvTag, std::size_t> seen;
    return ResealCheckpoint(*checkpoint,
                            [&](const TlvRecord& record, TlvWriter& out) {
                              return edit(record, seen[record.tag]++, out);
                            });
  };
  const auto shard_count = [&](std::uint64_t count) {
    return resealed([&](const TlvRecord& record, std::size_t, TlvWriter& out) {
      if (record.tag != 0x02) return false;
      out.PutU64(0x02, count);
      return true;
    });
  };
  const std::pair<const char*, std::vector<std::byte>> cases[] = {
      {"a group without its handoff ordinal",
       resealed([](const TlvRecord& record, std::size_t nth, TlvWriter&) {
         return record.tag == 0x10 && nth == 1;
       })},
      {"one container too many",
       resealed([&](const TlvRecord& record, std::size_t nth, TlvWriter& out) {
         if (record.tag != 0x11 || nth + 1 != shards) return false;
         out.PutSealed(0x11, record.payload);
         out.PutSealed(0x11, record.payload);
         return true;
       })},
      {"one group too many",
       resealed([&](const TlvRecord& record, std::size_t nth, TlvWriter& out) {
         if (record.tag != 0x11 || nth + 1 != shards) return false;
         out.PutSealed(0x11, record.payload);
         out.PutU64(0x10, 0);
         out.PutSealed(0x11, record.payload);
         return true;
       })},
      {"a shard count one low", shard_count(shards - 1)},
      {"a shard count one high", shard_count(shards + 1)},
      // Rows 1 and 2 have the same local topology: only the stamped shard
      // index tells their containers apart.
      {"the containers of shards 1 and 2 swapped",
       resealed([&](const TlvRecord& record, std::size_t nth, TlvWriter& out) {
         if (record.tag != 0x11 || (nth != 1 && nth != 2)) return false;
         out.PutSealed(0x11, own[3 - nth]);
         return true;
       })},
      {"shard 1's container from a later checkpoint",
       resealed([&](const TlvRecord& record, std::size_t nth, TlvWriter& out) {
         if (record.tag != 0x11 || nth != 1) return false;
         out.PutSealed(0x11, next[1]);
         return true;
       })},
  };
  {
    shard::ShardedNetwork shell(grid, CheckpointConfig(2), false);
    ASSERT_TRUE(shell.RestoreCheckpoint(shard_count(shards)).ok())
        << "an unedited re-seal must restore";
  }
  for (const auto& [what, bytes] : cases) {
    shard::ShardedNetwork shell(grid, CheckpointConfig(2), false);
    const Status status = shell.RestoreCheckpoint(bytes);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << what << ": " << status.ToString();
    for (shard::ShardId s = 0; s < shell.shard_count(); ++s) {
      EXPECT_EQ(shell.shard_network(s).ship_count(), 0u) << what;
    }
  }
}

TEST(ShardedNetwork, UndecodableJournalIsRefusedBeforeAnyShard) {
  // The checkpoint's journal (0x05) is decoded before any shard is
  // applied. One whose capacity field is 4 bytes wide is refused, every
  // shard of the shell stays empty and the shell's journal is unchanged.
  const net::Topology grid = net::MakeGrid(4, 4);
  shard::ShardedNetwork world(grid, CheckpointConfig(2));
  DriveToBoundary(world);
  Result<std::vector<std::byte>> checkpoint = world.CaptureCheckpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  const std::vector<std::byte> bytes = ResealCheckpoint(
      *checkpoint, [](const TlvRecord& record, TlvWriter& out) {
        if (record.tag != 0x05) return false;
        TlvWriter journal;
        TlvReader fields(record.payload);
        while (fields.HasNext()) {
          const Result<TlvRecord> field = fields.Next();
          if (!field.ok()) break;
          if (field->tag == 0x01) {
            journal.PutU32(0x01, static_cast<std::uint32_t>(U64Of(*field)));
          } else {
            journal.PutBytes(field->tag, field->payload);
          }
        }
        out.PutBytes(0x05, journal.Finish());
        return true;
      });

  shard::ShardedNetwork shell(grid, CheckpointConfig(2), /*populate=*/false);
  shell.journal().RecordNote("before the restore");
  const std::vector<std::byte> journal = shell.journal().Save();
  const Status status = shell.RestoreCheckpoint(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(status.message(), "field 0x0001 is 4 bytes, want 8");
  for (shard::ShardId s = 0; s < shell.shard_count(); ++s) {
    EXPECT_EQ(shell.shard_network(s).ship_count(), 0u) << "shard " << s;
  }
  EXPECT_EQ(shell.journal().Save(), journal);
}

// ---- Pinned framing bytes ---------------------------------------------------

/// "<name> <size> <fnv>" for one encoding.
std::string FramingLine(const std::string& name,
                        const std::vector<std::byte>& bytes) {
  return name + ' ' + std::to_string(bytes.size()) + ' ' +
         DigestToHex(HashBytes(bytes)) + '\n';
}

TEST(FramingGolden, BytesArePinned) {
  // The two framings around the section payloads, compared with committed
  // sizes and FNV digests: a snapshot container, full and delta, of a
  // seeded 3x3 world, and the four-shard checkpoint of the 4x4 grid.
  sim::Simulator simulator;
  net::Topology topology = net::MakeGrid(3, 3);
  wli::WanderingNetwork network(simulator, topology, wli::WnConfig{}, 0xf7a3e);
  network.PopulateAllNodes();
  genesis::GenesisManager manager(network);
  const auto drive = [&](std::uint64_t begin, std::uint64_t end) {
    for (std::uint64_t i = begin; i < end; ++i) {
      const auto src = static_cast<net::NodeId>(i % 9);
      const auto dst = static_cast<net::NodeId>((i * 4 + 1) % 9);
      if (src == dst) continue;
      ASSERT_TRUE(network
                      .Inject(wli::Shuttle::Data(
                          src, dst, {static_cast<std::int64_t>(i)}, i + 1))
                      .ok());
      simulator.RunAll();
    }
    network.Pulse();
    simulator.RunAll();
  };
  drive(0, 12);
  const Result<std::vector<std::byte>> full = manager.CaptureFull();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  drive(12, 20);
  const Result<std::vector<std::byte>> delta = manager.CaptureDelta();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();

  shard::ShardedNetwork world(net::MakeGrid(4, 4), CheckpointConfig(2));
  DriveToBoundary(world);
  const Result<std::vector<std::byte>> checkpoint = world.CaptureCheckpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();

  const std::string table = FramingLine("container-full", *full) +
                            FramingLine("container-delta", *delta) +
                            FramingLine("checkpoint-4-shards", *checkpoint);
  const std::string path =
      std::string(VIATOR_GOLDEN_DIR) + "/framing_bytes.txt";
  if (std::getenv("VIATOR_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path) << table;  // deliberate golden refresh
  }
  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing tests/golden/framing_bytes.txt";
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(table, expected.str());
}

// ---- Telemetry --------------------------------------------------------------

TEST(ShardedNetwork, PublishesPerShardMergeMetrics) {
  net::Topology grid = net::MakeGrid(4, 4);
  shard::ShardedConfig config;
  config.shard_count = 2;
  config.threads = 1;
  shard::ShardedNetwork world(grid, config);
  ASSERT_TRUE(world.Inject(0, 15, {1}).ok());
  world.RunUntilQuiescent(100);
  const sim::StatsRegistry& stats = world.stats();
  EXPECT_GT(stats.CounterValue("shard.windows"), 0u);
  EXPECT_GT(stats.CounterValue("shard.0.dispatched"), 0u);
  EXPECT_GT(stats.CounterValue("shard.0.handoffs_out"), 0u);
  EXPECT_GT(stats.CounterValue("shard.1.handoffs_in"), 0u);
  EXPECT_TRUE(stats.gauges().contains("shard.0.queue_depth"));
  EXPECT_TRUE(stats.gauges().contains("shard.count"));
}

TEST(ShardMetrics, PrometheusExportMatchesGoldenFile) {
  // Per-shard metrics through the standard Prometheus exporter, pinned to a
  // committed golden: scrape configs depend on these exact names/headers.
  sim::StatsRegistry stats;
  // Shard 0 folded deliveries this window, so its latency quantile gauges
  // appear; shard 1 did not, pinning the only-when-delivered contract (a
  // plane-off scrape never grows the namespace).
  telemetry::PublishShardWindow(stats, 0,
                                {.dispatched = 12,
                                 .handoffs_out = 3,
                                 .handoffs_in = 1,
                                 .wall_ns = 1200,
                                 .stall_ns = 450,
                                 .queue_depth = 7.0,
                                 .pool_bytes = 4096,
                                 .lat_p50_ns = 250000,
                                 .lat_p95_ns = 900000,
                                 .lat_p99_ns = 1500000,
                                 .lat_delivered = 9});
  telemetry::PublishShardWindow(stats, 1,
                                {.dispatched = 5,
                                 .handoffs_out = 1,
                                 .handoffs_in = 3,
                                 .wall_ns = 1650,
                                 .stall_ns = 0,
                                 .queue_depth = 2.0,
                                 .pool_bytes = 2048});
  stats.GetCounter("shard.windows").Add(2);
  // Memory-plane gauges under the same exporter: one domain with synthetic
  // traffic (the other domains pin their zero rows), plus fixed proc.*
  // values — the scrape-name contract for the Memory Observatory.
  std::array<telemetry::mem::Counter, telemetry::mem::kDomainCount> mem{};
  mem[static_cast<std::size_t>(telemetry::mem::Domain::kShuttlePool)] = {
      .live_bytes = 1536,
      .peak_bytes = 2560,
      .allocs = 4,
      .frees = 2,
      .alloc_bytes = 3072,
      .free_bytes = 1536};
  telemetry::PublishMemStats(stats, mem);
  telemetry::PublishProcStats(stats, /*rss_bytes=*/8 << 20,
                              /*maxrss_bytes=*/16 << 20);
  // Route-cache gauges ride the same exporter under the shard prefix. A
  // 4-node line probed twice toward node 3 is one fill then one hit —
  // deterministic values forever.
  net::Topology line = net::MakeLine(4);
  ASSERT_EQ(line.NextHop(0, 3), 1u);
  ASSERT_EQ(line.NextHop(1, 3), 2u);
  net::PublishRouteCacheStats(stats, line,
                              telemetry::ShardMetricName(0, "route_cache"));
  std::ostringstream out;
  telemetry::WritePrometheusText(stats, out);

  const std::string path =
      std::string(VIATOR_GOLDEN_DIR) + "/shard_prometheus.txt";
  if (std::getenv("VIATOR_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path) << out.str();  // deliberate golden refresh
  }
  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing tests/golden/shard_prometheus.txt";
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(out.str(), expected.str());
}

TEST(ShardTimeline, PerfettoExportMatchesGoldenFile) {
  // The Perfetto trace_event shape — thread-name metadata, window/barrier
  // slices, per-shard mem.pool_bytes and lat.delivery_ns counter tracks
  // ("ph":"C") — is contract output (ui.perfetto.dev and scripts parse it),
  // so it is pinned to a committed golden built from hand-authored
  // deterministic records.
  telemetry::ShardObservatory observatory(2);
  telemetry::ShardWindowRecord w0;
  w0.window_index = 0;
  w0.virtual_start = 0;
  w0.virtual_end = 1000;
  w0.merge_wall_ns = 300;
  w0.merge_handoffs = 2;
  w0.shards = {{.dispatched = 12,
                .handoffs_out = 2,
                .handoffs_in = 0,
                .wall_ns = 1500,
                .start_ns = 100,
                .stall_ns = 0,
                .queue_depth = 3.0,
                .pool_bytes = 4096,
                .lat_p50_ns = 250000,
                .lat_p95_ns = 900000,
                .lat_p99_ns = 1500000,
                .lat_delivered = 9},
               {.dispatched = 4,
                .handoffs_out = 0,
                .handoffs_in = 2,
                .wall_ns = 700,
                .start_ns = 200,
                .stall_ns = 700,
                .queue_depth = 1.0,
                .pool_bytes = 2048}};
  observatory.RecordWindow(w0);
  telemetry::ShardWindowRecord w1;
  w1.window_index = 1;
  w1.virtual_start = 1000;
  w1.virtual_end = 2000;
  w1.merge_wall_ns = 250;
  w1.merge_handoffs = 0;
  w1.shards = {{.dispatched = 6,
                .wall_ns = 900,
                .stall_ns = 100,
                .pool_bytes = 4096},
               {.dispatched = 8, .wall_ns = 1000, .pool_bytes = 6144}};
  observatory.RecordWindow(w1);

  std::ostringstream out;
  telemetry::WriteShardTimelineJson(observatory, out);

  const std::string path =
      std::string(VIATOR_GOLDEN_DIR) + "/shard_timeline.json";
  if (std::getenv("VIATOR_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path) << out.str();  // deliberate golden refresh
  }
  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing tests/golden/shard_timeline.json";
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(out.str(), expected.str());
}

// ---- Degenerate executor configurations ------------------------------------

TEST(ShardedNetwork, MoreThreadsThanShardsIsHarmless) {
  // 8 worker threads over 2 shards: the surplus threads must idle cleanly
  // (no deadlock, no stalled barrier) and the decisions must still match
  // the single-thread reference.
  net::Topology grid = net::MakeGrid(4, 4);
  shard::ShardedConfig config;
  config.shard_count = 2;
  config.hash_every = 1;

  config.threads = 1;
  shard::ShardedNetwork reference(grid, config);
  config.threads = 8;
  shard::ShardedNetwork oversubscribed(grid, config);
  for (auto* world : {&reference, &oversubscribed}) {
    ASSERT_TRUE(world->Inject(0, 15, {1}, 1).ok());
    world->RunUntilQuiescent(64);
  }
  EXPECT_EQ(oversubscribed.Delivered(), 1u);
  EXPECT_EQ(oversubscribed.StateHash(), reference.StateHash());
  EXPECT_EQ(oversubscribed.journal().rolling_digest(),
            reference.journal().rolling_digest());
}

TEST(ShardedNetwork, SingleShardPlanRunsAndReportsBalanced) {
  // One shard means no cross links, the default window length, no handoffs
  // — and an imbalance index of exactly 1.0 (a single shard cannot be
  // imbalanced against itself).
  net::Topology grid = net::MakeGrid(4, 4);
  shard::ShardedConfig config;
  config.shard_count = 1;
  config.threads = 2;
  shard::ShardedNetwork world(grid, config);
  EXPECT_EQ(world.window(), shard::ShardedNetwork::kDefaultWindow);
  ASSERT_TRUE(world.Inject(0, 15, {1}).ok());
  world.RunUntilQuiescent(64);
  EXPECT_EQ(world.Delivered(), 1u);
  EXPECT_EQ(world.stats().CounterValue("shard.handoffs"), 0u);
  const telemetry::StragglerReport report = world.observatory().Report();
  EXPECT_EQ(report.shard_count, 1u);
  EXPECT_DOUBLE_EQ(report.imbalance_events, 1.0);
  EXPECT_EQ(report.hot_shard_by_events, 0u);
}

TEST(ShardedNetwork, ZeroEventWindowsReportCleanRatios) {
  // Windows with nothing to dispatch must not stall and must never produce
  // NaN in the observatory's ratios (zero-denominator contract).
  net::Topology grid = net::MakeGrid(4, 4);
  shard::ShardedConfig config;
  config.shard_count = 2;
  config.threads = 2;
  shard::ShardedNetwork world(grid, config);
  EXPECT_EQ(world.RunWindows(8), 0u);
  EXPECT_EQ(world.window_index(), 8u);
  const telemetry::StragglerReport report = world.observatory().Report();
  EXPECT_EQ(report.windows, 8u);
  EXPECT_DOUBLE_EQ(report.imbalance_events, 1.0);
  EXPECT_FALSE(std::isnan(report.imbalance_wall));
  EXPECT_FALSE(std::isnan(report.barrier_stall_ratio));
  EXPECT_FALSE(std::isnan(report.critical_path_ratio));
  EXPECT_GE(report.barrier_stall_ratio, 0.0);
  EXPECT_LE(report.barrier_stall_ratio, 1.0);
}

// ---- Shard Observatory ------------------------------------------------------

TEST(ShardObservatory, StragglerReportNamesDeliberatelyHotShard) {
  // All traffic confined to the second row band: the observatory must name
  // shard 1 as hot by events and report a clearly unbalanced index.
  net::Topology grid = net::MakeGrid(8, 8);
  shard::ShardedConfig config;
  config.shard_count = 4;
  config.threads = 2;
  config.assignment = shard::GridRowBands(8, 8, 4);
  shard::ShardedNetwork world(grid, config);
  // Band 1 owns rows 2-3 = nodes 16..31.
  for (std::uint64_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(world.Inject(16 + i % 16, 16 + (i * 7 + 3) % 16, {1}, i).ok());
  }
  world.RunUntilQuiescent(128);
  const telemetry::StragglerReport report = world.observatory().Report();
  EXPECT_EQ(report.hot_shard_by_events, 1u);
  EXPECT_GT(report.imbalance_events, 1.5);
  const std::string text = report.Format();
  EXPECT_NE(text.find("<- hot (events)"), std::string::npos);
  EXPECT_NE(text.find("straggler: shard 1 by events"), std::string::npos);
  // Observatory gauges ride the standard stats registry.
  EXPECT_TRUE(world.stats().gauges().contains("shard.imbalance_events"));
  EXPECT_TRUE(world.stats().gauges().contains("shard.barrier_stall_ratio"));
  EXPECT_TRUE(world.stats().gauges().contains("shard.straggler"));
}

TEST(ShardObservatory, WindowCapacityBoundsRetentionNotTotals) {
  constexpr std::size_t kCapacity =
      telemetry::ShardObservatory::kDefaultWindowCapacity;
  telemetry::ShardObservatory obs(2);
  for (std::size_t i = 0; i < kCapacity + 7; ++i) {
    telemetry::ShardWindowRecord record;
    record.window_index = i + 1;
    record.shards = {{.dispatched = 1, .wall_ns = 10},
                     {.dispatched = 2, .wall_ns = 20}};
    obs.RecordWindow(std::move(record));
  }
  EXPECT_EQ(obs.windows_seen(), kCapacity + 7);
  EXPECT_EQ(obs.windows().size(), kCapacity);  // retention bounded...
  EXPECT_EQ(obs.windows().back().window_index, kCapacity);  // front kept
  EXPECT_EQ(obs.windows_dropped(), 7u);
  EXPECT_EQ(obs.Report().windows, kCapacity + 7);  // ...totals see them all
  EXPECT_EQ(obs.totals()[1].dispatched, 2 * (kCapacity + 7));
}

TEST(ShardObservatory, CountersAreReplayNeutral) {
  // The perf plane observes, it must not steer: the same world with perf
  // counters enabled and disabled produces identical journals and hashes.
  net::Topology grid = net::MakeGrid(8, 8);
  shard::ShardedConfig config;
  config.shard_count = 4;
  config.threads = 4;
  config.hash_every = 1;
  config.assignment = shard::GridRowBands(8, 8, 4);

  telemetry::perf::ResetAll();
  telemetry::perf::SetEnabled(false);
  shard::ShardedNetwork quiet(grid, config);
  RunReferenceWorkload(quiet);

  telemetry::perf::SetEnabled(true);
  shard::ShardedNetwork counted(grid, config);
  RunReferenceWorkload(counted);
  telemetry::perf::SetEnabled(false);

  EXPECT_EQ(quiet.journal().rolling_digest(),
            counted.journal().rolling_digest());
  EXPECT_EQ(quiet.StateHash(), counted.StateHash());
  ASSERT_EQ(quiet.journal().window_hashes().size(),
            counted.journal().window_hashes().size());
  // And the counted run actually counted something.
  const auto aggregate = telemetry::perf::Aggregate();
  using telemetry::perf::Metric;
  EXPECT_GT(aggregate[static_cast<std::size_t>(Metric::kSimDispatch)].calls,
            0u);
  EXPECT_GT(aggregate[static_cast<std::size_t>(Metric::kExecutorWindow)].calls,
            0u);
  EXPECT_GT(aggregate[static_cast<std::size_t>(Metric::kMergeWindow)].calls,
            0u);
  // threads=4 takes the pooled path, so the barrier probe must have fired
  // (the sequential reference path never waits on the barrier).
  EXPECT_GT(aggregate[static_cast<std::size_t>(Metric::kBarrierWait)].calls,
            0u);
  telemetry::perf::ResetAll();
}

TEST(PerfCounters, ResetPerScenario) {
  // Regression test for the scenario-bleed bug: perf counters accumulated
  // across successive ReplayWorld scenarios in one process, so the second
  // scenario's report included the first's probe counts. Constructing a
  // populated ReplayWorld must reset the process-wide blocks.
  telemetry::perf::ResetAll();
  telemetry::perf::SetEnabled(true);
  replay::ScenarioConfig scenario;
  scenario.rows = 4;
  scenario.cols = 4;
  scenario.injections_per_step = 4;
  {
    replay::ReplayWorld world(scenario);
    world.RunToStep(3);
  }
  telemetry::perf::SetEnabled(false);
  using telemetry::perf::Metric;
  const auto first = telemetry::perf::Aggregate();
  EXPECT_GT(first[static_cast<std::size_t>(Metric::kRngDraw)].calls, 0u);

  // The second scenario starts from zero, not from the first's counts.
  replay::ReplayWorld fresh(scenario);
  const auto after = telemetry::perf::Aggregate();
  EXPECT_EQ(after[static_cast<std::size_t>(Metric::kRngDraw)].calls, 0u);
  EXPECT_EQ(after[static_cast<std::size_t>(Metric::kSimDispatch)].calls, 0u);
}

// ---- Parallel speedup smoke -------------------------------------------------

TEST(ShardedNetwork, ParallelSpeedupSmoke) {
  // The real speedup gate lives in bench_micro_substrate (256x256 grid,
  // thread sweep); this smoke test only engages on >=4-core machines when
  // explicitly requested, because wall-clock ratios are meaningless on the
  // 1-core and oversubscribed runners that also execute this suite.
  if (std::thread::hardware_concurrency() < 4 ||
      std::getenv("VIATOR_REQUIRE_SPEEDUP") == nullptr) {
    GTEST_SKIP() << "needs >=4 cores and VIATOR_REQUIRE_SPEEDUP=1";
  }
  net::Topology grid = net::MakeGrid(32, 32);
  shard::ShardedConfig config;
  config.shard_count = 4;
  config.hash_every = 0;  // raw-speed setting
  config.assignment = shard::GridRowBands(32, 32, 4);

  auto run = [&grid, &config](std::size_t threads) {
    config.threads = threads;
    shard::ShardedNetwork world(grid, config);
    for (std::uint64_t i = 0; i < 2048; ++i) {
      EXPECT_TRUE(
          world.Inject(i % 1024, (i * 37 + 11) % 1024, {1}, i).ok());
    }
    const auto start = std::chrono::steady_clock::now();
    world.RunWindows(40);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double>(elapsed).count();
  };
  const double serial = run(1);
  const double parallel = run(4);
  EXPECT_GT(serial / parallel, 1.3) << "serial " << serial << "s, parallel "
                                    << parallel << "s";
}

}  // namespace
}  // namespace viator
