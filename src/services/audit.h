// SRP community auditing.
//
// Definition 2(1): ships must display honest self-descriptions "otherwise
// they are excluded from the community". AuditService closes that loop
// automatically: on a fixed cadence it samples ships, compares each ship's
// *advertised* descriptor digest against the digest recomputed from its
// actual genome, and reports the outcome to the network's ReputationSystem.
// Dishonest ships drift below the exclusion threshold and lose transport
// service (WanderingNetwork::Dispatch refuses excluded sources).
#pragma once

#include <cstdint>

#include "base/rng.h"
#include "core/wandering_network.h"

namespace viator::services {

class AuditService {
 public:
  /// Cadence of the audit loop.
  static constexpr sim::Duration kInterval = 250 * sim::kMillisecond;
  /// Ships audited per round.
  static constexpr std::size_t kSamplesPerRound = 4;

  AuditService(wli::WanderingNetwork& network, Rng rng);

  /// Starts the periodic audit loop until `until`.
  void Start(sim::TimePoint until);

  /// One audit round (also called by the loop). Returns the number of
  /// dishonest ships caught this round.
  std::size_t RunRound();

  std::uint64_t audits() const { return audits_; }
  std::uint64_t violations() const { return violations_; }

 private:
  bool AuditShip(wli::Ship& ship);

  wli::WanderingNetwork& network_;
  Rng rng_;
  std::uint64_t audits_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace viator::services
