// Ships: the active mobile nodes of the Wandering Network.
//
// A Ship binds one NodeOS (EEs, code cache, hardware plane, quotas) to one
// position in the physical topology. It is also the vm::Environment that
// shuttle code runs against — every syscall a capsule makes lands here,
// where NodeOS policy is enforced. Shuttle processing implements the full
// ployon duality of the DCP: ships process shuttles (role handlers, code
// execution), shuttles process ships (role switches, code installation,
// genome application), and both can process themselves (morphing packets,
// self-reconfiguration).
//
// The network keeps one digest of each ship's fields (HashFields over
// Visit) and re-hashes a ship only after it changed. A ship announces that
// itself: every non-const member that can change a visited field lists the
// ship with the network, once until its digest is taken again. Those members
// are the mutable accessors os(), facts(), functions(), congruence() and
// rng(); Receive, SwitchRole, ApplyBlueprint, set_honest, Invoke and
// DrainClassActivity; and a loading Visit. Any other path to a ship's fields
// goes through one of them, which const-correctness enforces: code that only
// reads calls the const accessors. Save and hash walks read the fields
// directly and list nothing.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "core/dcp.h"
#include "core/facts.h"
#include "core/genetic_transcoder.h"
#include "core/knowledge.h"
#include "core/shuttle.h"
#include "core/srp.h"
#include "net/types.h"
#include "node/node_os.h"
#include "vm/interpreter.h"

namespace viator::wli {

class WanderingNetwork;

class Ship : public vm::Environment {
 public:
  Ship(WanderingNetwork& network, net::NodeId id, node::ShipClass ship_class,
       const node::ResourceQuota& quota, const node::Capabilities& caps,
       Rng rng);

  net::NodeId id() const { return id_; }
  node::ShipClass ship_class() const { return class_; }

  node::NodeOs& os() {
    MarkChanged();
    return os_;
  }
  const node::NodeOs& os() const { return os_; }
  FactStore& facts() {
    MarkChanged();
    return facts_;
  }
  const FactStore& facts() const { return facts_; }
  FunctionTable& functions() {
    MarkChanged();
    return functions_;
  }
  const FunctionTable& functions() const { return functions_; }
  CongruenceTracker& congruence() {
    MarkChanged();
    return congruence_;
  }

  // ---- Native service handlers ----

  /// Services (src/services) install a native handler per first-level role;
  /// the handler runs when a data shuttle reaches a ship holding that role.
  using NativeHandler = std::function<void(Ship&, const Shuttle&)>;
  void SetRoleHandler(node::FirstLevelRole role, NativeHandler handler);
  bool HasRoleHandler(node::FirstLevelRole role) const;

  /// Handler invoked for every consumed shuttle regardless of role (tap for
  /// measurement sinks). Runs after normal processing.
  void SetDeliverySink(NativeHandler sink) { delivery_sink_ = std::move(sink); }

  /// Handler for kControl shuttles (routing protocols, clustering beacons).
  void SetControlHandler(NativeHandler handler) {
    control_handler_ = std::move(handler);
  }

  // ---- Shuttle lifecycle ----

  /// Entry point from the network layer: a shuttle arrived on this ship,
  /// either to be consumed (destination) or forwarded.
  void Receive(Shuttle shuttle, net::NodeId arrived_from);

  /// Emits a shuttle into the network from this ship.
  Status SendShuttle(Shuttle shuttle);

  // ---- Self-reconfiguration ----

  /// Role switch through the NodeOS; completion is scheduled on the
  /// simulator (the ship is "reconfiguring" and queues work meanwhile —
  /// modelled as added latency on the next processing).
  Status SwitchRole(node::FirstLevelRole role, node::SwitchMechanism mechanism);

  /// Facts a blueprint carries: the ship's heaviest.
  static constexpr std::size_t kBlueprintFacts = 8;

  /// Node Genesis: snapshot this ship's structure as a genome blueprint.
  ShipBlueprint ToBlueprint() const;

  /// Applies a blueprint (arrived via shuttle genome): adopts role state,
  /// facts and functions. Hardware genes require a 3G+ node and available
  /// gates; incompatible genes are skipped, not fatal.
  Status ApplyBlueprint(const ShipBlueprint& blueprint);

  /// Self-description for the SRP community protocols. A dishonest ship
  /// (set_honest(false)) advertises a stale digest — peers auditing it will
  /// report unfairness.
  SelfDescription DescribeSelf() const;
  void set_honest(bool honest) {
    MarkChanged();
    honest_ = honest;
  }
  bool honest() const { return honest_; }

  // ---- vm::Environment ----
  Result<std::int64_t> Invoke(vm::Syscall id,
                              std::span<const std::int64_t> args) override;

  // ---- Statistics ----
  std::uint64_t shuttles_consumed() const { return shuttles_consumed_; }
  std::uint64_t shuttles_forwarded() const { return shuttles_forwarded_; }
  std::uint64_t code_executions() const { return code_executions_; }
  std::uint64_t code_misses() const { return code_misses_; }
  const std::vector<std::int64_t>& last_emissions() const {
    return last_emissions_;
  }

  /// Per-class invocation activity since the last pulse (vertical wanderer
  /// input); reading resets the window.
  std::unordered_map<int, double> DrainClassActivity();

  /// The ship-local RNG stream (kRandom syscall draws).
  Rng& rng() {
    MarkChanged();
    return rng_;
  }
  const Rng& rng() const { return rng_; }

  /// Shuttles parked awaiting demand-loaded code. A quiescent network (the
  /// precondition for an exact snapshot) has none.
  std::size_t waiting_for_code_count() const {
    return waiting_for_code_.size();
  }

  /// The digest of this ship's fields (HashFields) for the network's digest
  /// store. The ship's next change lists it again (internal plumbing).
  Digest TakeDigest();

  /// Snapshot fields (one record of the genesis ships section): identity,
  /// RNG stream, workload counters, class activity, the NodeOS role state,
  /// facts, functions, congruence, then the NodeOS code state. Identity is
  /// read by the network on load, which creates the ship (AddShip) before
  /// loading the rest into it. Handlers, sinks and parked shuttles are
  /// runtime state: services re-install them, and snapshots are quiescent.
  template <class A>
  void Visit(A& a) {
    if constexpr (A::kLoading) {
      MarkChanged();
    } else {
      a.U64(0x01, id_);
      a.Enum(0x02, class_, node::kShipClassCount, "ship class");
    }
    a.Bool(0x03, honest_);
    a.Record(0x04, rng_);
    a.U64(0x05, shuttles_consumed_);
    a.U64(0x06, shuttles_forwarded_);
    a.U64(0x07, code_executions_);
    a.U64(0x08, code_misses_);
    // Class activity travels sorted by class (the live map is unordered).
    std::vector<std::pair<int, double>> activity;
    if constexpr (A::kLoading) {
      class_activity_.clear();
    } else {
      activity.assign(class_activity_.begin(), class_activity_.end());
      std::sort(activity.begin(), activity.end());
    }
    a.Each(
        0x09, activity,
        [](auto& r, auto& entry) {
          r.U64(0x01, entry.first);
          r.F64(0x02, entry.second);
        },
        [this](auto&, auto& entry) {
          class_activity_[entry.first] = entry.second;
        });
    os_.VisitRoleState(a);
    facts_.Visit(a);
    // Functions are saved and hashed as their knowledge-quantum bytes.
    FunctionQuanta(a, 0x15, functions_.functions(), [this](NetFunction fn) {
      functions_.Install(std::move(fn));
    });
    a.Record(0x16, congruence_);
    os_.VisitCodeState(a);
  }

 private:
  // Lists this ship with the network unless it is listed already.
  void MarkChanged() {
    if (!listed_) List();
  }
  void List();

  void Consume(const Shuttle& shuttle, net::NodeId arrived_from);
  void ExecuteShuttleCode(const Shuttle& shuttle, const vm::Program& program);
  void HandleCodeShuttle(const Shuttle& shuttle);
  void HandleCodeRequest(const Shuttle& shuttle);
  void HandleCodeReply(const Shuttle& shuttle);
  void HandleKnowledge(const Shuttle& shuttle);
  void HandleJet(Shuttle shuttle);
  void ReleaseWaiters(Digest digest);

  WanderingNetwork& network_;
  net::NodeId id_;
  node::ShipClass class_;
  node::NodeOs os_;
  FactStore facts_;
  FunctionTable functions_;
  CongruenceTracker congruence_;
  Rng rng_;
  bool honest_ = true;
  // On the network's list of ships changed since their digest was taken.
  bool listed_ = false;

  std::array<NativeHandler,
             static_cast<std::size_t>(node::FirstLevelRole::kRoleCount)>
      role_handlers_{};
  NativeHandler delivery_sink_;
  NativeHandler control_handler_;

  // Execution context while a shuttle's code runs (syscalls read these).
  const Shuttle* current_shuttle_ = nullptr;
  std::vector<std::int64_t> last_emissions_;

  // Shuttles parked until their code arrives (demand loading).
  std::unordered_map<Digest, std::vector<Shuttle>> waiting_for_code_;

  std::unordered_map<int, double> class_activity_;

  std::uint64_t shuttles_consumed_ = 0;
  std::uint64_t shuttles_forwarded_ = 0;
  std::uint64_t code_executions_ = 0;
  std::uint64_t code_misses_ = 0;
};

}  // namespace viator::wli
