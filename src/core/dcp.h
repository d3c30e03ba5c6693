// Dualistic Congruence Principle (DCP).
//
// "A shuttle approaching a ship can re-configure itself becoming a morphing
// packet to provide the desired interface and match a ship's requirements.
// This operation can be based on the destination address and on the class of
// the ship included in this address." And symmetrically, a ship "can adapt
// (itself) a priori to communications to best-match the structure of the
// active packets at the time of delivery."
//
// MorphingEngine holds the interface requirements per ship class and the
// adapter graph a shuttle can traverse; CongruenceTracker is the ship-side
// a-priori adaptation (it predicts the next shuttle's interface from recent
// arrivals; a correct prediction removes the adaptation cost).
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "core/shuttle.h"
#include "node/profile.h"
#include "sim/time.h"

namespace viator::wli {

/// Interface identifiers are opaque; 0 is the universal default interface.
using InterfaceId = std::uint32_t;

struct MorphOutcome {
  bool success = false;
  std::uint32_t overhead_bytes = 0;  // added to the shuttle's wire size
  sim::Duration latency = 0;         // adaptation time at the dock
  bool already_matched = false;      // no adaptation was needed
};

class MorphingEngine {
 public:
  /// Declares that ships of `cls` require shuttles to present `required`.
  void SetRequiredInterface(node::ShipClass cls, InterfaceId required);

  /// Registers an adapter that rewrites a shuttle from one interface to
  /// another at a given cost. Adapters are direct (no multi-step search):
  /// the shuttle either has the adapter for the target or fails to dock.
  void AddAdapter(InterfaceId from, InterfaceId to,
                  std::uint32_t overhead_bytes, sim::Duration latency);

  /// Interface required by a class (default interface 0 when undeclared).
  InterfaceId RequiredInterface(node::ShipClass cls) const;

  /// Morphs `shuttle` to the interface its destination class requires,
  /// using the class hint in the header. Mutates interface_id and counts
  /// the outcome; returns what happened.
  MorphOutcome MorphForDock(Shuttle& shuttle) const;

  std::uint64_t morphs_attempted() const { return attempted_; }
  std::uint64_t morphs_failed() const { return failed_; }

  /// Snapshot fields (the genesis morphing section): morph accounting. The
  /// interface and adapter configuration is re-declared by the services
  /// layer.
  template <class A>
  void Visit(A& a) {
    a.U64(0x01, attempted_);
    a.U64(0x02, failed_);
  }

 private:
  struct Adapter {
    std::uint32_t overhead_bytes;
    sim::Duration latency;
  };
  std::map<node::ShipClass, InterfaceId> required_;
  std::map<std::pair<InterfaceId, InterfaceId>, Adapter> adapters_;
  mutable std::uint64_t attempted_ = 0;
  mutable std::uint64_t failed_ = 0;
};

/// Ship-side congruence: exponentially weighted prediction of arriving
/// shuttle structure. When the prediction matches, the dock is "congruent"
/// and adaptation cost is waived (the ship pre-configured itself).
class CongruenceTracker {
 public:
  explicit CongruenceTracker(double alpha = 0.2) : alpha_(alpha) {}

  /// Observes an arrival; returns true when the ship had correctly
  /// pre-adapted (predicted interface == observed).
  bool Observe(InterfaceId observed);

  /// The interface the ship is currently pre-configured for.
  InterfaceId predicted() const { return predicted_; }

  /// Running congruence score in [0,1]: EWMA of prediction hits.
  double score() const { return score_; }

  std::uint64_t observations() const { return observations_; }

  /// Snapshot fields (one record in a ship's genesis record): the exact
  /// learned state.
  template <class A>
  void Visit(A& a) {
    a.U32(0x01, predicted_);
    a.F64(0x02, score_);
    a.U64(0x03, observations_);
    a.Each(0x04, votes_, [](auto& r, auto& iface, auto& weight) {
      r.U32(0x01, iface);
      r.F64(0x02, weight);
    });
  }

 private:
  double alpha_;
  InterfaceId predicted_ = 0;
  // Frequency-weighted vote per recently seen interface.
  std::map<InterfaceId, double> votes_;
  double score_ = 0.0;
  std::uint64_t observations_ = 0;
};

}  // namespace viator::wli
