#include "services/accounting.h"

#include <utility>

namespace viator::services {

AccountingService::AccountingService(wli::WanderingNetwork& network,
                                     const Tariff& tariff,
                                     sim::Duration interval)
    : network_(network), tariff_(tariff), interval_(interval) {}

void AccountingService::MeterOnce() {
  ++passes_;
  network_.ForEachShip([this](wli::Ship& ship) {
    Baseline& baseline = baselines_[ship.id()];
    Charges& charges = charges_[ship.id()];

    // Metering only reads: through the const NodeOS it lists no ship for
    // re-hashing.
    const node::NodeOs& os = std::as_const(ship).os();
    const std::uint64_t fuel = os.resources().total_fuel_used();
    const std::uint64_t shuttles = ship.shuttles_consumed();
    const std::uint64_t switches = os.role_switches();

    charges.fuel_credits +=
        (fuel - baseline.fuel) * tariff_.per_megafuel / 1'000'000;
    charges.shuttle_credits +=
        (shuttles - baseline.shuttles) * tariff_.per_shuttle_consumed;
    charges.reconfig_credits +=
        (switches - baseline.switches) * tariff_.per_role_switch;
    // Cache residency is a level, not a delta: charged per pass.
    charges.cache_credits +=
        os.code_cache().bytes_used() / 1024 *
        tariff_.per_kib_code_cached;

    baseline.fuel = fuel;
    baseline.shuttles = shuttles;
    baseline.switches = switches;
  });
}

void AccountingService::Start(sim::TimePoint until) {
  network_.simulator().ScheduleAfter(interval_, [this, until] {
    MeterOnce();
    if (network_.simulator().now() + interval_ <= until) {
      Start(until);
    }
  });
}

AccountingService::Charges AccountingService::ChargesFor(
    net::NodeId ship) const {
  const auto it = charges_.find(ship);
  return it == charges_.end() ? Charges{} : it->second;
}

std::uint64_t AccountingService::TotalBilled() const {
  std::uint64_t total = 0;
  for (const auto& [ship, charges] : charges_) total += charges.total();
  return total;
}

}  // namespace viator::services
