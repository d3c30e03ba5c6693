// Ship aggregation (SRP, Definition 2(3)): a ship can "become a (temporary)
// aggregation of other nodes with a joint architecture and functionality".
//
// A ShipAggregate is a temporary union of member ships: it exposes a joint
// blueprint (merged role census, pooled facts and the union of member
// functions), pools resource capacity, and dispatches work to members
// round-robin. Aggregates are explicitly temporary: they hold a lease and
// expire unless renewed, after which members are plain individual ships
// again.
#pragma once

#include <cstdint>
#include <vector>

#include "core/genetic_transcoder.h"
#include "core/ship.h"
#include "sim/time.h"

namespace viator::wli {

class WanderingNetwork;

class ShipAggregate {
 public:
  /// Forms an aggregate over `members` (≥ 2 distinct ships) with an initial
  /// lease. The first member acts as the speaker (the aggregate's address).
  static Result<ShipAggregate> Form(WanderingNetwork& network,
                                    std::vector<net::NodeId> members,
                                    sim::Duration lease);

  /// The ship that speaks for the aggregate.
  net::NodeId speaker() const { return members_.front(); }
  const std::vector<net::NodeId>& members() const { return members_; }

  /// True while the lease has not expired.
  bool Alive(sim::TimePoint now) const { return now < lease_until_; }

  /// Extends the lease ("temporary" means renewable, not permanent).
  void Renew(sim::TimePoint now, sim::Duration lease);

  /// Strongest facts each member adds to the joint blueprint.
  static constexpr std::size_t kFactsPerMember = 4;

  /// Joint architecture: merged blueprint over all members — union of
  /// functions and hardware modules, pooled strongest facts, the speaker's
  /// role state.
  ShipBlueprint JointBlueprint() const;

  /// Pooled per-epoch fuel capacity across members.
  std::uint64_t PooledFuelBudget() const;

  /// Dispatches a data shuttle into the aggregate: members take requests in
  /// round-robin order (joint functionality). Returns the member chosen.
  Result<net::NodeId> DispatchWork(Shuttle shuttle);

  std::uint64_t work_dispatched() const { return work_dispatched_; }

 private:
  ShipAggregate(WanderingNetwork& network, std::vector<net::NodeId> members,
                sim::TimePoint lease_until)
      : network_(&network),
        members_(std::move(members)),
        lease_until_(lease_until) {}

  WanderingNetwork* network_;
  std::vector<net::NodeId> members_;
  sim::TimePoint lease_until_;
  std::size_t next_member_ = 0;
  std::uint64_t work_dispatched_ = 0;
};

}  // namespace viator::wli
