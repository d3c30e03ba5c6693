#include "replay/scenario.h"

#include "core/shuttle.h"
#include "telemetry/perf_counters.h"

namespace viator::replay {

Result<ScenarioConfig> ScenarioConfig::Load(
    std::span<const std::byte> payload) {
  ScenarioConfig config;
  if (Status status = LoadFields(payload, config); !status.ok()) {
    return status;
  }
  return config;
}

Result<FlightFile> FlightFile::Load(std::span<const std::byte> bytes) {
  FlightFile file;
  if (Status status = LoadFields(bytes, file); !status.ok()) return status;
  return file;
}

ReplayWorld::ReplayWorld(const ScenarioConfig& config, bool populate,
                         bool keep_checkpoints)
    : config_(config),
      keep_checkpoints_(keep_checkpoints),
      journal_(config.journal_config),
      journal_section_(journal_) {
  // Scenario boundary: the process-wide perf counter blocks would otherwise
  // leak the previous scenario's counts into this one (bench_replay runs
  // several tiers per process; regression test PerfCountersResetPerScenario).
  if (populate) telemetry::perf::ResetAll();
  wli::WnConfig wn_config;
  wn_config.telemetry.enable_tracing = config_.tracing;
  if (populate) topology_ = net::MakeGrid(config_.rows, config_.cols);
  network_ = std::make_unique<wli::WanderingNetwork>(simulator_, topology_,
                                                     wn_config, config_.seed);
  if (populate) network_->PopulateAllNodes();
  genesis::GenesisConfig genesis_config;
  genesis_config.scenario_tag = config_.seed;
  genesis_ = std::make_unique<genesis::GenesisManager>(*network_,
                                                       genesis_config);
  (void)genesis_->RegisterExtra(journal_section_);
  if (populate && config_.journal) journal_.Attach(*network_);
}

void ReplayWorld::BeginStep() {
  ++step_;
  step_open_ = true;
  if (config_.pulse_every != 0 && step_ % config_.pulse_every == 0) {
    network_->Pulse();
  }
  if (step_ == config_.perturb_step) {
    // The injected divergence: one extra draw shifts every later decision.
    (void)network_->rng().Next();
  }
  const std::size_t n = topology_.node_count();
  for (std::size_t i = 0; i < config_.injections_per_step; ++i) {
    const auto src =
        static_cast<net::NodeId>(network_->rng().UniformInt(0, n - 1));
    auto dst = static_cast<net::NodeId>(network_->rng().UniformInt(0, n - 1));
    if (dst == src) dst = static_cast<net::NodeId>((dst + 1) % n);
    (void)network_->Inject(wli::Shuttle::Data(
        src, dst,
        {static_cast<std::int64_t>(step_), static_cast<std::int64_t>(i), 7},
        step_ * 100 + i + 1));
  }
}

void ReplayWorld::FinishStep() {
  step_open_ = false;
  if (journal_.attached() && config_.hash_every != 0 &&
      step_ % config_.hash_every == 0) {
    journal_.CaptureWindowHash(step_);
  }
  if (keep_checkpoints_ && config_.checkpoint_every != 0 &&
      step_ % config_.checkpoint_every == 0) {
    auto bytes = genesis_->CaptureFull();
    if (bytes.ok()) {
      checkpoints_.push_back(
          Checkpoint{step_, simulator_.now(), std::move(*bytes)});
    }
  }
}

void ReplayWorld::RunOneStep() {
  BeginStep();
  while (StepEvent()) {
  }
  FinishStep();
}

void ReplayWorld::RunToStep(std::size_t target) {
  while (step_ < target) RunOneStep();
}

Status ReplayWorld::RestoreFromCheckpoint(const Checkpoint& checkpoint) {
  if (auto status = genesis_->RestoreFull(checkpoint.bytes); !status.ok()) {
    return status;
  }
  step_ = checkpoint.step;
  step_open_ = false;
  // Restored ships are fresh objects: re-install every journal hook.
  if (config_.journal) journal_.Attach(*network_);
  return OkStatus();
}

std::uint64_t ReplayWorld::StateHash() const {
  Hasher hasher;
  network_->MixDigest(hasher);
  return hasher.digest();
}

std::uint64_t ReplayWorld::Delivered() const {
  std::uint64_t total = 0;
  const_cast<wli::WanderingNetwork&>(*network_).ForEachShip(
      [&total](wli::Ship& ship) { total += ship.shuttles_consumed(); });
  return total;
}

}  // namespace viator::replay
