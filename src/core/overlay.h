// Virtual topologies: the "Routing Control" class of §D — "overlaying and
// managing several virtual topologies on top of the same physical network
// infrastructure" — and the QoS "topology on demand" the paper promises
// ("we can generate a QoS oriented network topology on demand").
//
// An Overlay is a named set of member ships joined by virtual links, each
// pinned to a physical path. The manager spawns overlays (Figure 4's
// vertical wandering: clustering + spawning), builds QoS-bounded topologies
// and re-pins paths after physical change (overlay self-healing).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "net/topology.h"
#include "sim/time.h"

namespace viator::wli {

using OverlayId = std::uint32_t;

struct VirtualLink {
  net::NodeId a = net::kInvalidNode;
  net::NodeId b = net::kInvalidNode;
  std::vector<net::NodeId> physical_path;  // includes both endpoints
  sim::Duration path_latency = 0;
};

struct Overlay {
  OverlayId id = 0;
  std::string name;
  std::vector<net::NodeId> members;
  std::vector<VirtualLink> links;
  sim::Duration qos_latency_bound = 0;  // 0 = best effort
};

class OverlayManager {
 public:
  explicit OverlayManager(net::Topology& topology) : topology_(topology) {}

  /// Spawns an overlay joining `members` pairwise (full mesh over physical
  /// fastest paths, one fastest-path tree per member pinning its links to
  /// every later member). With a nonzero `latency_bound`, virtual links
  /// whose path latency exceeds the bound are omitted; fails when the bound
  /// makes the overlay disconnected.
  Result<OverlayId> Spawn(std::string name, std::vector<net::NodeId> members,
                          sim::Duration latency_bound = 0);

  Status Remove(OverlayId id);

  const Overlay* Find(OverlayId id) const;
  const std::map<OverlayId, Overlay>& overlays() const { return overlays_; }

  /// Recomputes every virtual link's physical path against the current
  /// topology (after failures/mobility). Links that lost their path are
  /// re-routed; returns how many links changed. Unroutable links remain
  /// with an empty path (visible to callers as a QoS violation) and are
  /// retried on every call. Pinned paths are re-walked only when the
  /// topology lost a link or node since the last walk: additions keep
  /// every up path up.
  std::size_t RefreshPaths();

  /// Average path stretch of an overlay: mean over virtual links of
  /// (physical hops on pinned path) / (current shortest-path hops).
  double AverageStretch(OverlayId id) const;

  std::uint64_t spawned_total() const { return spawned_total_; }

  /// Snapshot fields (the genesis overlays section, before the network's
  /// class overlays): id allocation and every overlay with its members and
  /// virtual links. A load refuses node ids the topology (restored first)
  /// lacks.
  template <class A>
  void Visit(A& a) {
    a.U32(0x01, next_id_);
    a.U64(0x02, spawned_total_);
    a.Each(0x03, overlays_, [](auto& r, auto& id, auto& overlay) {
      r.U32(0x01, id);
      r.Str(0x02, overlay.name);
      r.Repeated(0x03, overlay.members);
      r.U64(0x04, overlay.qos_latency_bound);
      r.Each(0x05, overlay.links, [](auto& n, auto& link) {
        n.U64(0x01, link.a);
        n.U64(0x02, link.b);
        n.U64(0x03, link.path_latency);
        n.Repeated(0x04, link.physical_path);
      });
    });
    if constexpr (A::kLoading) {
      walked_losses_.reset();  // the loaded paths were never walked here
      for (auto& [id, overlay] : overlays_) overlay.id = id;
      if (a.ok()) a.Check(CheckNodesInTopology());
    }
  }

 private:
  // The virtual link a→b read off `tree`, grown from `a` until it popped
  // `b`: the physical path and the latency of the links relaxed along it.
  Result<VirtualLink> BuildLink(const net::Topology::PathTree& tree,
                                net::NodeId a, net::NodeId b,
                                sim::Duration latency_bound) const;
  static bool MembersConnected(const Overlay& overlay);
  Status CheckNodesInTopology() const;

  net::Topology& topology_;
  std::map<OverlayId, Overlay> overlays_;
  OverlayId next_id_ = 1;
  std::uint64_t spawned_total_ = 0;
  // topology_.losses() at the last full walk; unset until the first one.
  // Derived state: not snapshotted or hashed.
  std::optional<std::uint64_t> walked_losses_;
};

}  // namespace viator::wli
