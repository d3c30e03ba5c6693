// Wandering Flight Recorder — journal overhead and coverage.
//
// For growing grid sizes, run the same seeded replay scenario three times —
// journal off; hooks only (the always-on tier: draw hooks + dispatch hook +
// ring appends, no state hashing, no checkpoints — this is where the <5%
// overhead target applies); and the full recorder (per-step state hashes +
// genesis checkpoint ring, the opt-in replay infrastructure whose cost
// scales with the hashing/checkpoint cadence). All runs must make identical
// simulation decisions (replay neutrality); the bench verifies that by
// comparing delivered-shuttle counts and final state hashes and aborts if
// they diverge — an overhead number measured against a different run means
// nothing.
//
// BENCH_replay.json keeps the deterministic counters (decisions recorded,
// step hashes, checkpoints, journal digest) — gated in CI against
// bench/baselines/BENCH_replay.json by `wnhealth bench` — alongside
// wall-clock metrics whose names carry "wall" so the gate ignores them.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "base/strings.h"
#include "replay/scenario.h"
#include "telemetry/bench_report.h"

using namespace viator;

namespace {

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  constexpr int kReps = 3;
  constexpr std::size_t kSteps = 192;

  std::printf("Wandering Flight Recorder — journal overhead (seeded replay"
              " scenario, %zu steps, %d reps per row)\n\n", kSteps, kReps);

  TablePrinter table({"grid", "ships", "off ms", "hooks ms", "hooks ov",
                      "full ms", "full ov", "decisions", "ckpts"});
  telemetry::BenchReport report("replay");

  for (const std::size_t side : {3, 4, 6}) {
    double off_ms = 0, hooks_ms = 0, full_ms = 0;
    std::uint64_t decisions = 0, hashes = 0, checkpoints = 0, digest = 0;

    for (int rep = 0; rep < kReps; ++rep) {
      replay::ScenarioConfig full_config;
      full_config.seed = 0xf11e + 1000 * side + rep;
      full_config.rows = side;
      full_config.cols = side;
      full_config.steps = kSteps;
      full_config.checkpoint_every = 32;

      replay::ScenarioConfig off_config = full_config;
      off_config.journal = false;
      off_config.checkpoint_every = 0;
      off_config.hash_every = 0;

      replay::ScenarioConfig hooks_config = full_config;
      hooks_config.checkpoint_every = 0;
      hooks_config.hash_every = 0;

      replay::ReplayWorld off(off_config);
      auto t0 = std::chrono::steady_clock::now();
      off.RunToStep(kSteps);
      off_ms += MillisSince(t0);

      replay::ReplayWorld hooks(hooks_config);
      t0 = std::chrono::steady_clock::now();
      hooks.RunToStep(kSteps);
      hooks_ms += MillisSince(t0);

      replay::ReplayWorld full(full_config);
      t0 = std::chrono::steady_clock::now();
      full.RunToStep(kSteps);
      full_ms += MillisSince(t0);

      // Replay neutrality: every recorded run must have made bit-identical
      // decisions, or the overhead numbers are noise.
      for (const replay::ReplayWorld* on : {&hooks, &full}) {
        if (on->Delivered() != off.Delivered() ||
            on->StateHash() != off.StateHash()) {
          std::fprintf(stderr,
                       "neutrality violated for %zux%zu rep %d: %llu vs %llu"
                       " delivered, state 0x%llx vs 0x%llx\n",
                       side, side, rep,
                       static_cast<unsigned long long>(on->Delivered()),
                       static_cast<unsigned long long>(off.Delivered()),
                       static_cast<unsigned long long>(on->StateHash()),
                       static_cast<unsigned long long>(off.StateHash()));
          return 1;
        }
      }
      decisions = full.journal().total_records();
      hashes = full.journal().window_hashes().size();
      checkpoints = full.checkpoints().size();
      digest = full.journal().rolling_digest();
    }

    const auto overhead = [&](double on_ms) {
      return off_ms > 0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;
    };
    table.AddRow(
        {std::to_string(side) + "x" + std::to_string(side),
         std::to_string(side * side), FormatDouble(off_ms / kReps, 2),
         FormatDouble(hooks_ms / kReps, 2),
         FormatDouble(overhead(hooks_ms), 1) + "%",
         FormatDouble(full_ms / kReps, 2),
         FormatDouble(overhead(full_ms), 1) + "%",
         std::to_string(decisions), std::to_string(checkpoints)});

    const std::string suffix = std::string("_")
                                   .append(std::to_string(side))
                                   .append("x")
                                   .append(std::to_string(side));
    // Deterministic coverage counters — these gate in CI.
    report.Set("decisions" + suffix, static_cast<double>(decisions));
    report.Set("window_hashes" + suffix, static_cast<double>(hashes));
    report.Set("checkpoints" + suffix, static_cast<double>(checkpoints));
    // The digest folded to 52 bits so the JSON double round-trips exactly.
    report.Set("digest52" + suffix,
               static_cast<double>(digest & ((1ull << 52) - 1)));
    // Wall-clock metrics — "wall" in the name keeps the gate away.
    report.Set("off_wall_ms" + suffix, off_ms / kReps);
    report.Set("hooks_wall_ms" + suffix, hooks_ms / kReps);
    report.Set("full_wall_ms" + suffix, full_ms / kReps);
    report.Set("hooks_overhead_wall_pct" + suffix, overhead(hooks_ms));
    report.Set("full_overhead_wall_pct" + suffix, overhead(full_ms));
  }
  table.Print(std::cout);
  (void)report.Write();

  std::printf("\nexpected shape: the always-on tier (hooks ov) is an append"
              "-plus-hash per RNG draw and per dispatch — low single-digit"
              " percent. the full recorder adds one whole-state hash per"
              " step and a genesis checkpoint every 32 steps, costs that"
              " scale with the chosen cadences. delivered counts and state"
              " hashes are bit-identical across all runs because the hooks"
              " never draw or mutate. deterministic counters gate against"
              " bench/baselines/BENCH_replay.json.\n");
  return 0;
}
