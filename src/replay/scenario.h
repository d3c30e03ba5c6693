// Replayable scenarios: the step-structured worlds the flight recorder
// records, seeks and bisects.
//
// A ReplayWorld owns one complete simulation (simulator, grid topology,
// WanderingNetwork, DecisionJournal, GenesisManager) and drives it in
// numbered steps. Each step injects deterministic seeded traffic, runs the
// simulator to quiescence, captures a per-step state hash into the journal
// and (on cadence) a genesis checkpoint. Steps are the replay unit: the
// network is quiescent at every step boundary, virtual time advances
// strictly across steps, and a checkpoint restored at step k followed by
// re-executing steps k+1..n reproduces the original run bit for bit.
//
// The optional perturbation (`perturb_step`) burns one extra draw from the
// network RNG at the start of that step — a minimal, precisely located
// injected divergence that the DivergenceAuditor must find again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "base/archive.h"
#include "base/status.h"
#include "core/wandering_network.h"
#include "genesis/manager.h"
#include "net/topology.h"
#include "replay/journal.h"
#include "sim/simulator.h"

namespace viator::replay {

struct ScenarioConfig {
  std::uint64_t seed = 0x5eed;
  std::size_t rows = 3;
  std::size_t cols = 3;
  /// Total scenario steps.
  std::size_t steps = 32;
  /// Injected shuttles per step.
  std::size_t injections_per_step = 2;
  /// Metamorphosis pulse cadence in steps (0 = never).
  std::size_t pulse_every = 8;
  /// Genesis checkpoint cadence in steps (0 = no checkpoints).
  std::size_t checkpoint_every = 8;
  /// Per-step state-hash cadence (0 = never). Bisection is exact to one
  /// step only at cadence 1; higher cadences trade hashing cost for a
  /// coarser first localization.
  std::size_t hash_every = 1;
  /// 1-based step at which to burn one extra network-RNG draw (0 = none).
  std::size_t perturb_step = 0;
  /// Observatory tracing for the run (spans joinable by the auditor).
  bool tracing = false;
  /// Journal on/off (off = measure the unobserved baseline).
  bool journal = true;
  JournalConfig journal_config;

  /// Bounds on what a world allocates up front: grid nodes, journal ring.
  static constexpr std::size_t kMaxNodes = std::size_t{1} << 20;
  static constexpr std::size_t kMaxJournalCapacity = std::size_t{1} << 22;

  /// TLV round-trip (scenario metadata in .wnj files and test fixtures).
  std::vector<std::byte> Save() const { return SaveFields(*this); }
  static Result<ScenarioConfig> Load(std::span<const std::byte> payload);

  /// Every field a U64 record, flags as 0/1; a load refuses a grid or a
  /// journal capacity outside its bounds.
  template <class A>
  void Visit(A& a) {
    a.U64(1, seed);
    a.U64(2, rows);
    a.U64(3, cols);
    a.U64(4, steps);
    a.U64(5, injections_per_step);
    a.U64(6, pulse_every);
    a.U64(7, checkpoint_every);
    a.U64(8, perturb_step);
    a.U64(9, tracing);
    a.U64(10, journal);
    a.U64(11, journal_config.capacity);
    a.U64(12, hash_every);
    if constexpr (A::kLoading) {
      if (rows == 0 || cols == 0 || rows > kMaxNodes / cols ||
          rows * cols < 2) {
        a.Fail(InvalidArgument("scenario grid must hold 2 to " +
                               std::to_string(kMaxNodes) + " nodes"));
      }
      if (journal_config.capacity == 0 ||
          journal_config.capacity > kMaxJournalCapacity) {
        a.Fail(InvalidArgument("scenario journal capacity must be 1 to " +
                               std::to_string(kMaxJournalCapacity)));
      }
    }
  }
};

/// A .wnj flight file (wnreplay): the magic "wnj1", then the recorded
/// scenario and its decision journal as nested records.
struct FlightFile {
  static constexpr std::string_view kMagic = "wnj1";

  ScenarioConfig config;
  DecisionJournal journal;

  std::vector<std::byte> Save() const { return SaveFields(*this); }
  /// Refuses a stream without the magic, the scenario or the journal.
  static Result<FlightFile> Load(std::span<const std::byte> bytes);

  template <class A>
  void Visit(A& a) {
    std::string_view magic = A::kLoading ? std::string_view() : kMagic;
    a.Str(1, magic);
    const bool has_config = a.Record(2, config);
    const bool has_journal = a.Record(3, journal);
    if constexpr (A::kLoading) {
      if (magic != kMagic || !has_config || !has_journal) {
        a.Fail(InvalidArgument("not a flight file"));
      }
    }
  }
};

/// One self-contained, replayable simulation world.
class ReplayWorld {
 public:
  /// `populate` = true builds the live scenario world (grid topology, one
  /// ship per node, journal attached). `populate` = false builds an empty
  /// shell to RestoreFromCheckpoint() into.
  explicit ReplayWorld(const ScenarioConfig& config, bool populate = true,
                       bool keep_checkpoints = true);

  // ---- Step-structured execution ----

  /// Last opened step number (0 = nothing run yet). After FinishStep() this
  /// is the count of completed steps.
  std::size_t step() const { return step_; }

  /// True between BeginStep() and FinishStep().
  bool step_open() const { return step_open_; }

  /// Opens step `step()+1`: pulses on cadence, applies the perturbation if
  /// due and injects this step's seeded traffic. Pair with FinishStep().
  void BeginStep();

  /// Dispatches one simulator event of the open step; false when drained.
  bool StepEvent() { return simulator_.Step(); }

  /// Closes the open step: captures the per-step state hash and, on cadence,
  /// a genesis checkpoint.
  void FinishStep();

  /// BeginStep + drain + FinishStep.
  void RunOneStep();

  /// Runs forward to completed step `target` (no-op when already there).
  void RunToStep(std::size_t target);

  // ---- Checkpoints & restore ----

  struct Checkpoint {
    std::size_t step = 0;
    sim::TimePoint time = 0;
    std::vector<std::byte> bytes;
  };
  const std::vector<Checkpoint>& checkpoints() const { return checkpoints_; }

  /// Restores a checkpoint into this (populate = false) world and re-attaches
  /// the journal hooks to the restored ships.
  Status RestoreFromCheckpoint(const Checkpoint& checkpoint);

  // ---- Access ----

  const ScenarioConfig& config() const { return config_; }
  sim::Simulator& simulator() { return simulator_; }
  wli::WanderingNetwork& network() { return *network_; }
  const wli::WanderingNetwork& network() const { return *network_; }
  DecisionJournal& journal() { return journal_; }
  const DecisionJournal& journal() const { return journal_; }

  /// Current whole-network state hash (same function the journal records at
  /// step boundaries).
  std::uint64_t StateHash() const;

  /// Sum of shuttles consumed across ships (the workload-progress witness
  /// neutrality checks compare).
  std::uint64_t Delivered() const;

 private:
  ScenarioConfig config_;
  bool keep_checkpoints_;
  sim::Simulator simulator_;
  net::Topology topology_;
  std::unique_ptr<wli::WanderingNetwork> network_;
  DecisionJournal journal_;
  JournalSection journal_section_;
  std::unique_ptr<genesis::GenesisManager> genesis_;
  std::vector<Checkpoint> checkpoints_;
  std::size_t step_ = 0;
  bool step_open_ = false;
};

}  // namespace viator::replay
