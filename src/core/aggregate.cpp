#include "core/aggregate.h"

#include <algorithm>
#include <set>

#include "core/wandering_network.h"

namespace viator::wli {

Result<ShipAggregate> ShipAggregate::Form(WanderingNetwork& network,
                                          std::vector<net::NodeId> members,
                                          sim::Duration lease) {
  if (members.size() < 2) {
    return Status(InvalidArgument("aggregate needs at least two ships"));
  }
  std::set<net::NodeId> unique(members.begin(), members.end());
  if (unique.size() != members.size()) {
    return Status(InvalidArgument("duplicate aggregate member"));
  }
  for (net::NodeId member : members) {
    if (network.ship(member) == nullptr) {
      return Status(NotFound("aggregate member has no ship"));
    }
  }
  // Forming an aggregate is itself a clustering interaction (SRP feedback).
  for (std::size_t i = 0; i + 1 < members.size(); ++i) {
    network.clusters().ObserveInteraction(members[i], members[i + 1], 2.0);
  }
  network.stats().GetCounter("wn.aggregates_formed").Add();
  return ShipAggregate(network, std::move(members),
                       network.simulator().now() + lease);
}

void ShipAggregate::Renew(sim::TimePoint now, sim::Duration lease) {
  lease_until_ = std::max(lease_until_, now + lease);
}

ShipBlueprint ShipAggregate::JointBlueprint() const {
  ShipBlueprint joint;
  const Ship* speaker_ship = network_->ship(speaker());
  joint.ship_class = speaker_ship->ship_class();
  joint.role = speaker_ship->os().current_role();
  joint.next_step = speaker_ship->os().next_step();

  std::set<FunctionId> functions_seen;
  for (net::NodeId member : members_) {
    const Ship* ship = network_->ship(member);
    for (const auto& fact : ship->facts().TopByWeight(kFactsPerMember)) {
      joint.facts.push_back({fact.key, fact.value, fact.weight});
    }
    for (const NetFunction& fn : ship->functions().functions()) {
      if (functions_seen.insert(fn.id).second) {
        joint.functions.push_back(fn);
      }
    }
    for (const auto& slot : ship->os().hardware().slots()) {
      joint.modules.push_back(ModuleGene{
          slot.module.module_id, slot.module.accelerates,
          slot.module.gate_count, slot.module.speedup,
          slot.module.driver_digest});
    }
  }
  // Dedup facts by key, keeping the heaviest observation.
  std::sort(joint.facts.begin(), joint.facts.end(),
            [](const FactSnapshot& a, const FactSnapshot& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.weight > b.weight;
            });
  joint.facts.erase(
      std::unique(joint.facts.begin(), joint.facts.end(),
                  [](const FactSnapshot& a, const FactSnapshot& b) {
                    return a.key == b.key;
                  }),
      joint.facts.end());
  return joint;
}

std::uint64_t ShipAggregate::PooledFuelBudget() const {
  std::uint64_t total = 0;
  for (net::NodeId member : members_) {
    total += network_->ship(member)->os().resources().quota().fuel_per_epoch;
  }
  return total;
}

Result<net::NodeId> ShipAggregate::DispatchWork(Shuttle shuttle) {
  if (!Alive(network_->simulator().now())) {
    return Status(FailedPrecondition("aggregate lease expired"));
  }
  const net::NodeId member = members_[next_member_ % members_.size()];
  ++next_member_;
  ++work_dispatched_;
  shuttle.header.destination = member;
  if (Status s = network_->Inject(std::move(shuttle)); !s.ok()) return s;
  return member;
}

}  // namespace viator::wli
