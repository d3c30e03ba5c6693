// Wandering Flight Recorder: decision journal ring semantics, replay
// neutrality (journal-on runs are bit-identical to journal-off), TLV and
// genesis round-trips, time-travel seek verification, metric watchpoints
// and divergence bisection down to the exact injected decision.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/wandering_network.h"
#include "replay/auditor.h"
#include "replay/controller.h"
#include "replay/journal.h"
#include "replay/scenario.h"

namespace viator {
namespace {

replay::ScenarioConfig SmallConfig() {
  replay::ScenarioConfig config;
  config.seed = 0xf11e;
  config.rows = 2;
  config.cols = 2;
  config.steps = 12;
  config.injections_per_step = 2;
  config.pulse_every = 4;
  config.checkpoint_every = 4;
  return config;
}

// ---- Journal ring -----------------------------------------------------------

TEST(DecisionJournal, StreamNames) {
  EXPECT_EQ(replay::StreamName(replay::kStreamNetwork), "network");
  EXPECT_EQ(replay::StreamName(replay::kStreamFabric), "fabric");
  EXPECT_EQ(replay::StreamName(replay::kStreamShipBase + 3), "ship 3");
}

TEST(DecisionJournal, RingBoundsMemoryAndKeepsNewest) {
  replay::DecisionJournal journal({.capacity = 4});
  for (std::uint64_t i = 0; i < 10; ++i) {
    journal.RecordDraw(replay::kStreamNetwork, 100 + i);
  }
  EXPECT_EQ(journal.size(), 4u);
  EXPECT_EQ(journal.total_records(), 10u);
  EXPECT_EQ(journal.dropped_records(), 6u);
  // Oldest-first iteration over the surviving newest four.
  for (std::size_t i = 0; i < journal.size(); ++i) {
    EXPECT_EQ(journal.at(i).a, 106 + i);
  }
}

TEST(DecisionJournal, RollingDigestCoversDroppedRecords) {
  replay::DecisionJournal small({.capacity = 2});
  replay::DecisionJournal large({.capacity = 64});
  for (std::uint64_t i = 0; i < 8; ++i) {
    small.RecordDraw(0, i);
    large.RecordDraw(0, i);
  }
  // Same decision history, same digest, regardless of ring capacity.
  EXPECT_EQ(small.rolling_digest(), large.rolling_digest());

  replay::DecisionJournal other({.capacity = 2});
  for (std::uint64_t i = 0; i < 8; ++i) {
    other.RecordDraw(0, i == 5 ? 999u : i);
  }
  EXPECT_NE(small.rolling_digest(), other.rolling_digest());
}

TEST(DecisionJournal, TlvRoundTrip) {
  replay::DecisionJournal journal({.capacity = 8});
  for (std::uint64_t i = 0; i < 12; ++i) {
    journal.RecordDraw(replay::kStreamFabric, i * 17);
  }
  journal.RecordDispatch(/*when=*/42, /*seq=*/7);
  journal.RecordNote("marker");

  replay::DecisionJournal restored;
  ASSERT_TRUE(restored.Load(journal.Save()).ok());
  EXPECT_EQ(restored.capacity(), journal.capacity());
  EXPECT_EQ(restored.size(), journal.size());
  EXPECT_EQ(restored.total_records(), journal.total_records());
  EXPECT_EQ(restored.rolling_digest(), journal.rolling_digest());
  for (std::size_t i = 0; i < journal.size(); ++i) {
    EXPECT_TRUE(restored.at(i).SameDecision(journal.at(i)));
    EXPECT_EQ(restored.at(i).digest, journal.at(i).digest);
  }
}

TEST(DecisionJournal, LoadRejectsGarbage) {
  replay::DecisionJournal journal;
  const std::vector<std::byte> garbage(13, std::byte{0xab});
  EXPECT_FALSE(journal.Load(garbage).ok());
}

// ---- Scenario config --------------------------------------------------------

TEST(ScenarioConfig, TlvRoundTrip) {
  replay::ScenarioConfig config = SmallConfig();
  config.perturb_step = 5;
  config.tracing = true;
  config.journal_config.capacity = 123;
  config.hash_every = 2;
  const auto loaded = replay::ScenarioConfig::Load(config.Save());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->seed, config.seed);
  EXPECT_EQ(loaded->rows, config.rows);
  EXPECT_EQ(loaded->cols, config.cols);
  EXPECT_EQ(loaded->steps, config.steps);
  EXPECT_EQ(loaded->injections_per_step, config.injections_per_step);
  EXPECT_EQ(loaded->pulse_every, config.pulse_every);
  EXPECT_EQ(loaded->checkpoint_every, config.checkpoint_every);
  EXPECT_EQ(loaded->perturb_step, config.perturb_step);
  EXPECT_EQ(loaded->tracing, config.tracing);
  EXPECT_EQ(loaded->journal, config.journal);
  EXPECT_EQ(loaded->journal_config.capacity, config.journal_config.capacity);
  EXPECT_EQ(loaded->hash_every, config.hash_every);
}

// ---- Replay neutrality ------------------------------------------------------

TEST(ReplayNeutrality, JournalOnMatchesJournalOffBitForBit) {
  replay::ScenarioConfig on = SmallConfig();
  replay::ScenarioConfig off = SmallConfig();
  off.journal = false;
  off.checkpoint_every = 0;

  replay::ReplayWorld world_on(on);
  replay::ReplayWorld world_off(off);
  world_on.RunToStep(on.steps);
  world_off.RunToStep(off.steps);

  // The journaled run made exactly the same decisions: same network state
  // hash, same delivered work, same virtual clock.
  EXPECT_EQ(world_on.StateHash(), world_off.StateHash());
  EXPECT_EQ(world_on.Delivered(), world_off.Delivered());
  EXPECT_EQ(world_on.simulator().now(), world_off.simulator().now());
  EXPECT_GT(world_on.journal().total_records(), 0u);
  EXPECT_EQ(world_off.journal().total_records(), 0u);
}

TEST(ReplayNeutrality, IdenticalRunsProduceIdenticalJournals) {
  replay::ReplayWorld a(SmallConfig());
  replay::ReplayWorld b(SmallConfig());
  a.RunToStep(a.config().steps);
  b.RunToStep(b.config().steps);
  EXPECT_EQ(a.journal().total_records(), b.journal().total_records());
  EXPECT_EQ(a.journal().rolling_digest(), b.journal().rolling_digest());
  ASSERT_EQ(a.journal().window_hashes().size(),
            b.journal().window_hashes().size());
  EXPECT_EQ(a.journal().window_hashes(), b.journal().window_hashes());
}

// ---- Genesis integration ----------------------------------------------------

TEST(ReplayWorld, CheckpointsCaptureOnCadence) {
  replay::ReplayWorld world(SmallConfig());
  world.RunToStep(12);
  // checkpoint_every = 4 over 12 steps → checkpoints at steps 4, 8, 12.
  ASSERT_EQ(world.checkpoints().size(), 3u);
  EXPECT_EQ(world.checkpoints()[0].step, 4u);
  EXPECT_EQ(world.checkpoints()[1].step, 8u);
  EXPECT_EQ(world.checkpoints()[2].step, 12u);
}

TEST(ReplayWorld, RestoredCheckpointResumesJournalAndTimeline) {
  replay::ReplayWorld original(SmallConfig());
  original.RunToStep(12);
  const auto& midpoint = original.checkpoints()[1];  // step 8

  replay::ReplayWorld resumed(SmallConfig(), /*populate=*/false,
                              /*keep_checkpoints=*/false);
  ASSERT_TRUE(resumed.RestoreFromCheckpoint(midpoint).ok());
  EXPECT_EQ(resumed.step(), 8u);
  resumed.RunToStep(12);

  // Re-execution from the checkpoint rejoins the original timeline exactly:
  // same final state hash and same complete decision history.
  EXPECT_EQ(resumed.StateHash(), original.StateHash());
  EXPECT_EQ(resumed.journal().total_records(),
            original.journal().total_records());
  EXPECT_EQ(resumed.journal().rolling_digest(),
            original.journal().rolling_digest());
}

TEST(ReplayWorld, CachedStepHashesEqualTheReference) {
  // Every step hash the journal records mixes cached ship and topology
  // digests; across pulses, checkpoints and a restore it must equal the
  // uncached reference walk at every step.
  const auto expect_exact = [](const replay::ReplayWorld& world) {
    Hasher reference;
    world.network().MixDigestUncached(reference);
    const auto& hashes = world.journal().window_hashes();
    ASSERT_FALSE(hashes.empty());
    EXPECT_EQ(hashes.back().first, world.step());
    EXPECT_EQ(hashes.back().second, reference.digest())
        << "step " << world.step();
  };
  replay::ScenarioConfig config = SmallConfig();
  config.rows = 3;
  config.cols = 3;
  config.steps = 16;
  replay::ReplayWorld original(config);
  while (original.step() < config.steps) {
    original.RunOneStep();
    expect_exact(original);
  }
  ASSERT_EQ(original.checkpoints().size(), 4u);
  EXPECT_EQ(original.network().pulses(), 4u);

  replay::ReplayWorld resumed(config, /*populate=*/false,
                              /*keep_checkpoints=*/false);
  ASSERT_TRUE(resumed.RestoreFromCheckpoint(original.checkpoints()[1]).ok());
  while (resumed.step() < config.steps) {
    resumed.RunOneStep();
    expect_exact(resumed);
  }
  EXPECT_EQ(resumed.StateHash(), original.StateHash());
}

// ---- Time travel ------------------------------------------------------------

TEST(ReplayController, SeekReproducesRecordedStateHash) {
  replay::ReplayController controller(SmallConfig());
  controller.RecordFull();
  for (const std::size_t target : {3u, 8u, 11u}) {
    ASSERT_TRUE(controller.SeekToStep(target).ok()) << "step " << target;
    ASSERT_NE(controller.cursor(), nullptr);
    EXPECT_EQ(controller.cursor()->step(), target);
    EXPECT_TRUE(controller.VerifySeek().ok()) << "step " << target;
    const auto recorded = controller.RecordedWindowHash(target);
    ASSERT_TRUE(recorded.has_value());
    EXPECT_EQ(controller.cursor()->StateHash(), *recorded);
  }
}

TEST(ReplayController, SingleStepAdvancesVirtualTimeMonotonically) {
  replay::ReplayController controller(SmallConfig());
  controller.RecordFull();
  ASSERT_TRUE(controller.SeekToStep(0).ok());
  sim::TimePoint last = 0;
  std::size_t dispatches = 0;
  while (auto when = controller.StepDispatch()) {
    EXPECT_GE(*when, last);
    last = *when;
    ++dispatches;
    if (dispatches >= 64) break;  // plenty to prove monotonicity
  }
  EXPECT_GT(dispatches, 0u);
}

// ---- Watchpoints ------------------------------------------------------------

TEST(Watchpoint, ParsesSpecGrammar) {
  const auto counter = replay::Watchpoint::Parse("counter:wn.morphs>=42");
  ASSERT_TRUE(counter.ok());
  EXPECT_EQ(counter->kind, replay::Watchpoint::Kind::kCounter);
  EXPECT_EQ(counter->metric, "wn.morphs");
  EXPECT_EQ(counter->op, replay::Watchpoint::Op::kGe);
  EXPECT_EQ(counter->value, 42.0);

  const auto gauge = replay::Watchpoint::Parse("gauge:wn.load<=0.5");
  ASSERT_TRUE(gauge.ok());
  EXPECT_EQ(gauge->kind, replay::Watchpoint::Kind::kGauge);
  EXPECT_EQ(gauge->op, replay::Watchpoint::Op::kLe);
  EXPECT_EQ(gauge->value, 0.5);

  EXPECT_FALSE(replay::Watchpoint::Parse("nonsense").ok());
  EXPECT_FALSE(replay::Watchpoint::Parse("counter:name").ok());
}

TEST(Watchpoint, FiresAtDeterministicInjectionCount) {
  replay::ReplayController controller(SmallConfig());
  controller.RecordFull();
  ASSERT_TRUE(controller.SeekToStep(0).ok());
  const auto watch = replay::Watchpoint::Parse(
      "counter:wn.shuttles_injected>=5");
  ASSERT_TRUE(watch.ok());
  const auto hit = controller.RunUntilWatch(*watch);
  ASSERT_TRUE(hit.ok());
  // Two injections per step → the fifth lands in step 3.
  EXPECT_EQ(hit->step, 3u);
  EXPECT_GE(hit->observed, 5.0);
}

TEST(Watchpoint, ReportsNotFoundWhenNeverFiring) {
  replay::ReplayController controller(SmallConfig());
  controller.RecordFull();
  ASSERT_TRUE(controller.SeekToStep(0).ok());
  const auto watch = replay::Watchpoint::Parse(
      "counter:wn.shuttles_injected>=1000000");
  ASSERT_TRUE(watch.ok());
  const auto hit = controller.RunUntilWatch(*watch);
  EXPECT_FALSE(hit.ok());
  EXPECT_EQ(hit.status().code(), StatusCode::kNotFound);
}

// ---- Divergence audit -------------------------------------------------------

TEST(DivergenceAuditor, IdenticalRunsCompareClean) {
  replay::ReplayWorld a(SmallConfig());
  replay::ReplayWorld b(SmallConfig());
  a.RunToStep(a.config().steps);
  b.RunToStep(b.config().steps);
  const auto report =
      replay::DivergenceAuditor::Compare(a.journal(), b.journal());
  EXPECT_FALSE(report.diverged);
}

TEST(DivergenceAuditor, CompareFindsFirstDivergentStep) {
  replay::ScenarioConfig perturbed = SmallConfig();
  perturbed.perturb_step = 7;
  replay::ReplayWorld clean(SmallConfig());
  replay::ReplayWorld dirty(perturbed);
  clean.RunToStep(12);
  dirty.RunToStep(12);
  const auto report =
      replay::DivergenceAuditor::Compare(clean.journal(), dirty.journal());
  EXPECT_TRUE(report.diverged);
  EXPECT_EQ(report.first_divergent_step, 7u);
}

TEST(DivergenceAuditor, BisectPinpointsInjectedDraw) {
  replay::ScenarioConfig perturbed = SmallConfig();
  perturbed.perturb_step = 7;
  replay::ReplayController clean(SmallConfig());
  replay::ReplayController dirty(perturbed);
  clean.RecordFull();
  dirty.RecordFull();

  const auto report = replay::DivergenceAuditor::Bisect(clean, dirty);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->diverged);
  EXPECT_EQ(report->first_divergent_step, 7u);
  // Re-executing step 7 on both sides pins the exact first divergent
  // decision. (The burned draw consumes the same raw value the clean run
  // spends on its first injection, so the first *observable* decision
  // difference is downstream of it — still within step 7.)
  ASSERT_TRUE(report->refined);
  EXPECT_FALSE(report->owner.empty());
  EXPECT_FALSE(report->summary.empty());
  EXPECT_NE(report->summary.find("step 7"), std::string::npos);
}

TEST(DivergenceAuditor, CompareSurvivesRingWrap) {
  replay::ScenarioConfig tiny_ring = SmallConfig();
  tiny_ring.journal_config.capacity = 8;  // far smaller than one step
  replay::ScenarioConfig tiny_dirty = tiny_ring;
  tiny_dirty.perturb_step = 7;
  replay::ReplayWorld clean(tiny_ring);
  replay::ReplayWorld dirty(tiny_dirty);
  clean.RunToStep(12);
  dirty.RunToStep(12);
  // The ring wrapped long ago, but the unbounded window hashes still locate
  // the divergent step.
  const auto report =
      replay::DivergenceAuditor::Compare(clean.journal(), dirty.journal());
  EXPECT_TRUE(report.diverged);
  EXPECT_EQ(report.first_divergent_step, 7u);
}

}  // namespace
}  // namespace viator
