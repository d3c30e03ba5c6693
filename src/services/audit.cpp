#include "services/audit.h"

#include "core/genetic_transcoder.h"

namespace viator::services {

AuditService::AuditService(wli::WanderingNetwork& network, Rng rng)
    : network_(network), rng_(rng) {}

bool AuditService::AuditShip(wli::Ship& ship) {
  ++audits_;
  const wli::SelfDescription advertised = ship.DescribeSelf();
  // The audit recomputes the genome commitment from the ship's actual
  // structure; an honest ship's advertisement matches by construction.
  const Digest actual =
      HashBytes(wli::EncodeBlueprint(ship.ToBlueprint()));
  const bool fair = advertised.descriptor_digest == actual;
  network_.reputation().ReportInteraction(ship.id(), fair);
  if (!fair) {
    ++violations_;
    network_.trace().Log(network_.simulator().now(), sim::TraceLevel::kWarn,
                         "audit",
                         "ship " + std::to_string(ship.id()) +
                             " advertised a false descriptor");
  }
  return fair;
}

std::size_t AuditService::RunRound() {
  std::size_t caught = 0;
  const std::size_t population = network_.topology().node_count();
  if (population == 0) return 0;
  for (std::size_t i = 0; i < kSamplesPerRound; ++i) {
    const auto node = static_cast<net::NodeId>(rng_.Index(population));
    wli::Ship* ship = network_.ship(node);
    if (ship == nullptr) continue;
    if (!AuditShip(*ship)) ++caught;
  }
  return caught;
}

void AuditService::Start(sim::TimePoint until) {
  network_.simulator().ScheduleAfter(kInterval, [this, until] {
    (void)RunRound();
    if (network_.simulator().now() + kInterval <= until) {
      Start(until);
    }
  });
}

}  // namespace viator::services
