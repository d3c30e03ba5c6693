#include "core/overlay.h"

#include <algorithm>
#include <deque>
#include <set>

namespace viator::wli {

Result<VirtualLink> OverlayManager::BuildLink(
    const net::Topology::PathTree& tree, net::NodeId a, net::NodeId b,
    sim::Duration latency_bound) const {
  VirtualLink link;
  link.a = a;
  link.b = b;
  link.physical_path = tree.PathTo(b);
  if (link.physical_path.empty()) {
    return Status(NotFound("no physical path for virtual link"));
  }
  sim::Duration total = 0;
  for (std::size_t i = 1; i < link.physical_path.size(); ++i) {
    total += topology_.link(tree.via[link.physical_path[i]]).config.latency;
  }
  link.path_latency = total;
  if (latency_bound > 0 && total > latency_bound) {
    return Status(ResourceExhausted("virtual link exceeds QoS bound"));
  }
  return link;
}

bool OverlayManager::MembersConnected(const Overlay& overlay) {
  if (overlay.members.size() <= 1) return true;
  std::map<net::NodeId, std::vector<net::NodeId>> adj;
  for (const VirtualLink& l : overlay.links) {
    adj[l.a].push_back(l.b);
    adj[l.b].push_back(l.a);
  }
  std::set<net::NodeId> seen{overlay.members.front()};
  std::deque<net::NodeId> frontier{overlay.members.front()};
  while (!frontier.empty()) {
    const net::NodeId u = frontier.front();
    frontier.pop_front();
    for (net::NodeId v : adj[u]) {
      if (seen.insert(v).second) frontier.push_back(v);
    }
  }
  return std::all_of(overlay.members.begin(), overlay.members.end(),
                     [&seen](net::NodeId m) { return seen.count(m) != 0; });
}

Result<OverlayId> OverlayManager::Spawn(std::string name,
                                        std::vector<net::NodeId> members,
                                        sim::Duration latency_bound) {
  if (members.size() < 2) {
    return Status(InvalidArgument("overlay needs at least two members"));
  }
  Overlay overlay;
  overlay.name = std::move(name);
  overlay.members = std::move(members);
  overlay.qos_latency_bound = latency_bound;
  for (std::size_t i = 0; i + 1 < overlay.members.size(); ++i) {
    const net::NodeId a = overlay.members[i];
    const net::Topology::PathTree tree = topology_.FastestTree(a);
    for (std::size_t j = i + 1; j < overlay.members.size(); ++j) {
      auto link = BuildLink(tree, a, overlay.members[j], latency_bound);
      if (link.ok()) overlay.links.push_back(std::move(*link));
    }
  }
  if (!MembersConnected(overlay)) {
    return Status(
        ResourceExhausted("QoS bound leaves overlay disconnected"));
  }
  overlay.id = next_id_++;
  ++spawned_total_;
  const OverlayId id = overlay.id;
  overlays_.emplace(id, std::move(overlay));
  return id;
}

Status OverlayManager::Remove(OverlayId id) {
  return overlays_.erase(id) > 0 ? OkStatus()
                                 : NotFound("overlay does not exist");
}

const Overlay* OverlayManager::Find(OverlayId id) const {
  const auto it = overlays_.find(id);
  return it == overlays_.end() ? nullptr : &it->second;
}

std::size_t OverlayManager::RefreshPaths() {
  // Pinned paths were built or walked over up links, so without a loss
  // since the last walk each one is still fully up.
  const std::uint64_t losses = topology_.losses();
  const bool walk = walked_losses_ != losses;
  std::size_t changed = 0;
  for (auto& [id, overlay] : overlays_) {
    for (VirtualLink& link : overlay.links) {
      // Check the pinned path is still fully up.
      bool intact = !link.physical_path.empty();
      if (intact && !walk) continue;
      for (std::size_t i = 0; intact && i + 1 < link.physical_path.size();
           ++i) {
        intact = topology_
                     .FindLink(link.physical_path[i],
                               link.physical_path[i + 1])
                     .has_value();
      }
      if (intact) continue;
      auto rebuilt = BuildLink(topology_.FastestTree(link.a, link.b), link.a,
                               link.b, overlay.qos_latency_bound);
      if (rebuilt.ok()) {
        link = std::move(*rebuilt);
      } else {
        link.physical_path.clear();
        link.path_latency = 0;
      }
      ++changed;
    }
  }
  walked_losses_ = losses;
  return changed;
}

Status OverlayManager::CheckNodesInTopology() const {
  const std::size_t nodes = topology_.node_count();
  const auto outside = [nodes](const std::vector<net::NodeId>& ids) {
    return std::any_of(ids.begin(), ids.end(),
                       [nodes](net::NodeId n) { return n >= nodes; });
  };
  for (const auto& [id, overlay] : overlays_) {
    if (outside(overlay.members)) {
      return InvalidArgument("overlay member outside the topology");
    }
    for (const VirtualLink& link : overlay.links) {
      if (link.a >= nodes || link.b >= nodes) {
        return InvalidArgument("overlay link endpoint outside the topology");
      }
      if (outside(link.physical_path)) {
        return InvalidArgument("overlay path node outside the topology");
      }
    }
  }
  return OkStatus();
}

double OverlayManager::AverageStretch(OverlayId id) const {
  const Overlay* overlay = Find(id);
  if (overlay == nullptr || overlay->links.empty()) return 0.0;
  double sum = 0.0;
  std::size_t counted = 0;
  for (const VirtualLink& link : overlay->links) {
    if (link.physical_path.size() < 2) continue;
    const auto shortest = topology_.ShortestPath(link.a, link.b);
    if (shortest.size() < 2) continue;
    sum += static_cast<double>(link.physical_path.size() - 1) /
           static_cast<double>(shortest.size() - 1);
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

}  // namespace viator::wli
