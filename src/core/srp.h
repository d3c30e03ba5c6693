// Self-Reference Principle (SRP).
//
// Definition 2 requires that (1) each ship knows and honestly displays its
// own architecture — "ships are required to be fair and cooperative w.r.t.
// the information they display to the external world; otherwise they [are]
// excluded from the community"; (2) ships live, die and organize themselves
// into clusters through feedback; (3) ships can aggregate into joint
// architectures.
//
// SelfDescription is what a ship displays; ReputationSystem scores fairness
// from verified interactions and excludes cheaters; ClusterManager groups
// ships by observed co-activity (a feedback mechanism), yielding temporary
// aggregations.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "base/hash.h"
#include "net/types.h"
#include "node/profile.h"

namespace viator::wli {

/// What a ship advertises about itself (Def. 2(1)). The `descriptor_digest`
/// commits to the full blueprint so peers can audit honesty: a ship whose
/// actual genome hash differs from its advertised one is unfair.
struct SelfDescription {
  net::NodeId ship = net::kInvalidNode;
  node::ShipClass ship_class = node::ShipClass::kServer;
  node::FirstLevelRole role = node::FirstLevelRole::kCaching;
  std::uint32_t ee_count = 0;
  std::uint64_t fact_count = 0;
  Digest descriptor_digest = 0;
};

/// Community-wide fairness scoring. One instance per Wandering Network;
/// ships report audit outcomes, the community excludes ships whose score
/// falls below threshold (and readmits above the hysteresis bound).
class ReputationSystem {
 public:
  static constexpr double kInitialScore = 0.5;
  static constexpr double kAlpha = 0.15;  // EWMA step per interaction report
  static constexpr double kExclusionThreshold = 0.2;
  static constexpr double kReadmissionThreshold = 0.35;  // re-entry hysteresis

  /// Records an audited interaction with `subject` (fair or unfair).
  void ReportInteraction(net::NodeId subject, bool fair);

  double ScoreOf(net::NodeId subject) const;
  bool IsExcluded(net::NodeId subject) const;

  std::size_t excluded_count() const;
  std::uint64_t reports() const { return reports_; }

  struct Entry {
    double score;
    bool excluded = false;
  };

  /// Snapshot fields (the genesis reputation section).
  template <class A>
  void Visit(A& a) {
    a.U64(0x01, reports_);
    a.Each(0x02, entries_, [](auto& r, auto& node, auto& entry) {
      r.U64(0x01, node);
      r.F64(0x02, entry.score);
      r.Bool(0x03, entry.excluded);
    });
  }

 private:
  std::map<net::NodeId, Entry> entries_;
  std::uint64_t reports_ = 0;
};

/// Co-activity clustering (Def. 2(2)): ships that repeatedly exchange
/// shuttles accumulate pairwise affinity; clusters are the connected
/// components of the affinity graph above a threshold. Affinities decay so
/// clusters are *temporary* aggregations, as the paper requires.
class ClusterManager {
 public:
  /// Share of each affinity a decay step keeps.
  static constexpr double kDecay = 0.9;

  /// Records one interaction between two ships (order-insensitive).
  void ObserveInteraction(net::NodeId a, net::NodeId b, double strength = 1.0);

  /// Applies one decay step to all affinities (called per pulse).
  void Decay();

  /// Connected components over edges with affinity >= threshold. Singleton
  /// components are omitted. Components and members are sorted for
  /// determinism.
  std::vector<std::vector<net::NodeId>> Clusters(double threshold) const;

  double AffinityBetween(net::NodeId a, net::NodeId b) const;

  using Pair = std::pair<net::NodeId, net::NodeId>;

  /// Snapshot fields (the genesis clusters section): every pairwise
  /// affinity.
  template <class A>
  void Visit(A& a) {
    a.Each(0x01, affinity_, [](auto& r, auto& pair, auto& affinity) {
      r.U64(0x01, pair.first);
      r.U64(0x02, pair.second);
      r.F64(0x03, affinity);
    });
  }

 private:
  static Pair Canonical(net::NodeId a, net::NodeId b) {
    return a < b ? Pair{a, b} : Pair{b, a};
  }
  std::map<Pair, double> affinity_;
};

}  // namespace viator::wli
