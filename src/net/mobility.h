// Node mobility for the ad-hoc experiments (paper §E: adaptive routing for
// active ad-hoc wireless networks; ships are explicitly mobile).
//
// RandomWaypointMobility moves each node toward a uniformly drawn waypoint
// at a uniformly drawn speed, pausing between legs. AdhocManager couples a
// mobility model to a Topology: on a fixed cadence it advances positions and
// reconciles the geometric radio graph (links toggle up/down as nodes move
// in and out of range), so routing sees genuine churn.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace viator::net {

class RandomWaypointMobility {
 public:
  struct Config {
    double width_m = 1000.0;
    double height_m = 1000.0;
    double min_speed_mps = 1.0;
    double max_speed_mps = 10.0;
    double pause_s = 2.0;
  };

  RandomWaypointMobility(std::size_t nodes, const Config& config, Rng rng);

  /// Advances every node by dt seconds of movement.
  void Step(double dt_seconds);

  const std::vector<Position>& positions() const { return positions_; }

  /// Pins a node (e.g. a base station) so Step never moves it.
  void Pin(std::size_t node) { pinned_[node] = true; }

  struct NodeState {
    Position target;
    double speed = 0.0;
    double pause_left = 0.0;
  };

  Rng& rng() { return rng_; }
  const std::vector<NodeState>& states() const { return states_; }
  const std::vector<bool>& pinned() const { return pinned_; }

  /// Snapshot fields (genesis MobilityAdapter): the waypoint RNG stream and
  /// one record per node with its position, waypoint, speed, pause and pin.
  /// A load must cover exactly this process's node count.
  template <class A>
  void Visit(A& a) {
    a.Record(0x01, rng_);
    struct Node {
      Position position;
      NodeState state;
      bool pinned = false;
    };
    std::vector<Node> nodes;
    if constexpr (!A::kLoading) {
      for (std::size_t i = 0; i < positions_.size(); ++i) {
        nodes.push_back({positions_[i], states_[i], pinned_[i]});
      }
    }
    a.Each(0x02, nodes, [](auto& r, auto& node) {
      r.F64(0x01, node.position.x);
      r.F64(0x02, node.position.y);
      r.F64(0x03, node.state.target.x);
      r.F64(0x04, node.state.target.y);
      r.F64(0x05, node.state.speed);
      r.F64(0x06, node.state.pause_left);
      r.Bool(0x07, node.pinned);
    });
    if constexpr (A::kLoading) {
      if (!a.ok()) return;
      if (nodes.size() != positions_.size()) {
        a.Fail(InvalidArgument(
            "mobility snapshot covers " + std::to_string(nodes.size()) +
            " nodes but the process has " +
            std::to_string(positions_.size())));
        return;
      }
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        positions_[i] = nodes[i].position;
        states_[i] = nodes[i].state;
        pinned_[i] = nodes[i].pinned;
      }
    }
  }

 private:
  void PickWaypoint(std::size_t i);

  Config config_;
  Rng rng_;
  std::vector<Position> positions_;
  std::vector<NodeState> states_;
  std::vector<bool> pinned_;
};

/// Keeps a Topology's link set equal to the geometric radio graph of a
/// moving node population. Link objects are created lazily per pair and then
/// toggled up/down, so LinkIds stay stable for the fabric.
class AdhocManager {
 public:
  AdhocManager(sim::Simulator& simulator, Topology& topology,
               RandomWaypointMobility mobility, double radio_range_m,
               sim::Duration update_interval, const LinkConfig& link_config);

  /// Schedules the periodic update loop until `until`.
  void Start(sim::TimePoint until);

  /// One mobility + reconciliation step (also called by the loop).
  void Update();

  const RandomWaypointMobility& mobility() const { return mobility_; }

  /// Number of link up/down transitions performed so far (churn measure).
  std::uint64_t link_transitions() const { return link_transitions_; }

  /// Invoked after each reconciliation with the set of changed pairs' count.
  void set_on_update(std::function<void()> fn) { on_update_ = std::move(fn); }

 private:
  /// Index of unordered pair (i, j), i < j, in the packed upper triangle of
  /// an n×n matrix (row-major). The node population is fixed at
  /// construction, so pair→link lookup is one multiply instead of a
  /// std::map walk — Update() probes every pair on every mobility tick.
  std::size_t PairIndex(std::size_t i, std::size_t j) const {
    const std::size_t n = mobility_.positions().size();
    return i * (2 * n - i - 1) / 2 + (j - i - 1);
  }

  sim::Simulator& simulator_;
  Topology& topology_;
  RandomWaypointMobility mobility_;
  double range_;
  sim::Duration interval_;
  LinkConfig link_config_;
  /// pair_links_[PairIndex(i, j)] = lazily created link, kInvalidLink until
  /// the pair first comes into radio range.
  std::vector<LinkId> pair_links_;
  std::uint64_t link_transitions_ = 0;
  sim::TimePoint until_ = 0;
  std::function<void()> on_update_;
};

}  // namespace viator::net
