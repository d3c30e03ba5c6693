// Pulsating Metamorphosis Principle (PMP) policy engines.
//
// Def. 3 distinguishes horizontal (inter-node) and vertical (intra-node)
// movement of network functionality. These classes are the *policies* —
// pure, deterministic decision logic driven by demand and fact statistics;
// the WanderingNetwork executes their decisions with real shuttles on each
// metamorphosis pulse. Network resonance (Def. 3(4)) — functions emerging
// "on their own by getting in touch with other net functions, facts, user
// interactions or other transmitted information" — is detected from fact
// co-occurrence across ships.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/facts.h"
#include "core/knowledge.h"
#include "net/types.h"
#include "node/profile.h"
#include "sim/time.h"

namespace viator::wli {

/// Demand statistics per (node, first-level role), decayed each pulse so the
/// wanderer follows *current* load (the Figure-3 hotspot moving over time).
class DemandTracker {
 public:
  /// Share of each demand figure a pulse keeps.
  static constexpr double kDecay = 0.7;

  void Record(net::NodeId node, node::FirstLevelRole role, double amount);
  void Decay();

  double DemandAt(net::NodeId node, node::FirstLevelRole role) const;

  /// Node with the highest demand for `role` (kInvalidNode when none).
  net::NodeId HottestNode(node::FirstLevelRole role) const;

  /// Aggregate demand for `role` across all nodes.
  double TotalDemand(node::FirstLevelRole role) const;

  using Key = std::pair<net::NodeId, node::FirstLevelRole>;

  /// Snapshot fields (the genesis demand section).
  template <class A>
  void Visit(A& a) {
    a.Each(0x01, demand_, [](auto& r, auto& key, auto& amount) {
      r.U64(0x01, key.first);
      r.Enum(0x02, key.second, node::FirstLevelRole::kRoleCount,
             "first-level role");
      r.F64(0x03, amount);
    });
  }

 private:
  std::map<Key, double> demand_;
};

/// Horizontal (inter-node) wandering policy: move a function from its host
/// toward the demand hotspot when the hotspot's demand exceeds the host's
/// by the hysteresis factor. "Functions can change their hosts, wander and
/// settle down in other hosts."
class HorizontalWanderer {
 public:
  struct Config {
    double hysteresis = 1.5;     // hotspot must beat host by this factor
  };

  /// Hotspot demand below this moves nothing.
  static constexpr double kMinDemand = 1.0;

  HorizontalWanderer() : HorizontalWanderer(Config()) {}
  explicit HorizontalWanderer(const Config& config) : config_(config) {}

  struct Migration {
    FunctionId function = 0;
    net::NodeId from = net::kInvalidNode;
    net::NodeId to = net::kInvalidNode;
  };

  /// Placement: function id -> current host.
  std::vector<Migration> Decide(
      const std::map<FunctionId, net::NodeId>& placement,
      const std::map<FunctionId, node::FirstLevelRole>& roles,
      const DemandTracker& demand) const;

 private:
  Config config_;
};

/// Vertical (intra-node) wandering policy: decide which overlay networks to
/// spawn from per-node, per-class activity (Figure 4's clustering/spawning).
class VerticalWanderer {
 public:
  struct Config {
    double spawn_threshold = 5.0;  // class activity needed to spawn
  };

  /// Active nodes a class needs before it spawns an overlay.
  static constexpr std::size_t kMinMembers = 2;

  VerticalWanderer() : VerticalWanderer(Config()) {}
  explicit VerticalWanderer(const Config& config) : config_(config) {}

  struct SpawnDecision {
    node::SecondLevelClass cls = node::SecondLevelClass::kSupplementary;
    std::vector<net::NodeId> members;
  };

  /// `activity[node][class]` = recent invocations of that class at node.
  std::vector<SpawnDecision> Decide(
      const std::map<net::NodeId,
                     std::map<node::SecondLevelClass, double>>& activity)
      const;

 private:
  Config config_;
};

/// Network resonance: fact keys that co-occur on many ships within a window
/// indicate an emergent correlation worth instantiating as a net function.
class ResonanceDetector {
 public:
  struct Config {
    std::size_t min_support = 3;   // ships that must hold both facts
  };

  /// Least |both| / |either| of a resonant pair.
  static constexpr double kMinJaccard = 0.5;

  ResonanceDetector() : ResonanceDetector(Config()) {}
  explicit ResonanceDetector(const Config& config) : config_(config) {}

  /// Observes that `ship` currently holds `key` (fed once per pulse).
  void Observe(net::NodeId ship, FactKey key);

  /// Resonant groups: maximal merged sets of fact keys whose pairwise
  /// co-occurrence meets the thresholds. Clears observations afterwards
  /// (each pulse sees a fresh window).
  std::vector<std::vector<FactKey>> DetectAndReset();

 private:
  Config config_;
  std::map<FactKey, std::set<net::NodeId>> holders_;
};

}  // namespace viator::wli
