#include "services/gossip.h"

#include <utility>

#include "core/knowledge.h"

namespace viator::services {

GossipService::GossipService(wli::WanderingNetwork& network,
                             const Config& config, Rng rng)
    : network_(network), config_(config), rng_(rng) {}

void GossipService::RunRound() {
  ++rounds_;
  network_.ForEachShip([this](wli::Ship& ship) {
    const auto strongest =
        std::as_const(ship).facts().TopByWeight(kFactsPerRound);
    if (strongest.empty()) return;
    wli::KnowledgeQuantum kq;
    kq.function.id = 0;  // pure fact carriage, no function installation
    kq.function.name = "gossip";
    for (const auto& fact : strongest) {
      kq.facts.push_back({fact.key, fact.value, fact.weight});
    }
    const auto genome = wli::EncodeKnowledgeQuantum(kq);

    auto neighbors = network_.topology().Neighbors(ship.id());
    for (std::size_t pick = 0;
         pick < config_.fanout && !neighbors.empty(); ++pick) {
      const std::size_t index = rng_.Index(neighbors.size());
      const net::NodeId peer = neighbors[index];
      neighbors.erase(neighbors.begin() + index);  // without replacement
      wli::Shuttle s;
      s.header.source = ship.id();
      s.header.destination = peer;
      s.header.kind = wli::ShuttleKind::kKnowledge;
      s.genome = genome;
      ++shuttles_sent_;
      (void)ship.SendShuttle(std::move(s));
    }
  });
}

void GossipService::Start(sim::TimePoint until) {
  network_.simulator().ScheduleAfter(config_.interval, [this, until] {
    RunRound();
    if (network_.simulator().now() + config_.interval <= until) {
      Start(until);
    }
  });
}

double GossipService::Coverage(wli::FactKey key) const {
  std::size_t holders = 0;
  std::size_t population = 0;
  const_cast<wli::WanderingNetwork&>(network_).ForEachShip(
      [&](wli::Ship& ship) {
        ++population;
        holders += std::as_const(ship).facts().Find(key) != nullptr;
      });
  return population == 0
             ? 0.0
             : static_cast<double>(holders) / static_cast<double>(population);
}

}  // namespace viator::services
