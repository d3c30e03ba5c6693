// Epidemic knowledge dissemination (PMP, Def. 3(2)): knowledge quanta "can
// be ... transmitted between the ships ... and distributed throughout the
// Wandering Network in an arbitrary manner."
//
// GossipService runs anti-entropy rounds: on each tick every ship sends its
// strongest facts, packed as a knowledge quantum, to `fanout` random up
// neighbors. Receivers absorb the facts (Ship::HandleKnowledge), which also
// refreshes their lifetimes — gossip is simultaneously dissemination and
// the fact-survival mechanism of E7(c). Coverage(key) measures convergence.
#pragma once

#include <cstdint>

#include "base/rng.h"
#include "core/wandering_network.h"

namespace viator::services {

class GossipService {
 public:
  struct Config {
    sim::Duration interval = 500 * sim::kMillisecond;
    std::size_t fanout = 2;  // neighbors contacted per ship/round
  };

  GossipService(wli::WanderingNetwork& network, const Config& config,
                Rng rng);

  /// Starts the periodic gossip loop until `until`.
  void Start(sim::TimePoint until);

  /// One synchronous round across all ships (also called by the loop).
  void RunRound();

  /// Fraction of ships currently holding `key`.
  double Coverage(wli::FactKey key) const;

  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t shuttles_sent() const { return shuttles_sent_; }

 private:
  static constexpr std::size_t kFactsPerRound = 4;  // strongest facts shared

  wli::WanderingNetwork& network_;
  Config config_;
  Rng rng_;
  std::uint64_t rounds_ = 0;
  std::uint64_t shuttles_sent_ = 0;
};

}  // namespace viator::services
