#include "core/srp.h"

#include <algorithm>
#include <functional>

namespace viator::wli {

void ReputationSystem::ReportInteraction(net::NodeId subject, bool fair) {
  auto [it, inserted] =
      entries_.try_emplace(subject, Entry{kInitialScore, false});
  Entry& entry = it->second;
  entry.score = (1.0 - kAlpha) * entry.score + kAlpha * (fair ? 1.0 : 0.0);
  if (entry.excluded) {
    if (entry.score >= kReadmissionThreshold) entry.excluded = false;
  } else if (entry.score < kExclusionThreshold) {
    entry.excluded = true;
  }
  ++reports_;
}

double ReputationSystem::ScoreOf(net::NodeId subject) const {
  const auto it = entries_.find(subject);
  return it == entries_.end() ? kInitialScore : it->second.score;
}

bool ReputationSystem::IsExcluded(net::NodeId subject) const {
  const auto it = entries_.find(subject);
  return it != entries_.end() && it->second.excluded;
}

std::size_t ReputationSystem::excluded_count() const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const auto& kv) { return kv.second.excluded; }));
}

void ClusterManager::ObserveInteraction(net::NodeId a, net::NodeId b,
                                        double strength) {
  if (a == b) return;
  affinity_[Canonical(a, b)] += strength;
}

void ClusterManager::Decay() {
  for (auto it = affinity_.begin(); it != affinity_.end();) {
    it->second *= kDecay;
    if (it->second < 1e-3) {
      it = affinity_.erase(it);
    } else {
      ++it;
    }
  }
}

double ClusterManager::AffinityBetween(net::NodeId a, net::NodeId b) const {
  const auto it = affinity_.find(Canonical(a, b));
  return it == affinity_.end() ? 0.0 : it->second;
}

std::vector<std::vector<net::NodeId>> ClusterManager::Clusters(
    double threshold) const {
  // Union-find over nodes that appear in any qualifying edge.
  std::map<net::NodeId, net::NodeId> parent;
  std::function<net::NodeId(net::NodeId)> find =
      [&](net::NodeId x) -> net::NodeId {
    auto it = parent.find(x);
    if (it == parent.end() || it->second == x) return x;
    const net::NodeId root = find(it->second);
    parent[x] = root;
    return root;
  };
  for (const auto& [pair, weight] : affinity_) {
    if (weight < threshold) continue;
    parent.try_emplace(pair.first, pair.first);
    parent.try_emplace(pair.second, pair.second);
    const net::NodeId ra = find(pair.first);
    const net::NodeId rb = find(pair.second);
    if (ra != rb) parent[ra] = rb;
  }
  std::map<net::NodeId, std::vector<net::NodeId>> groups;
  for (const auto& [node, p] : parent) {
    groups[find(node)].push_back(node);
  }
  std::vector<std::vector<net::NodeId>> out;
  for (auto& [root, members] : groups) {
    if (members.size() < 2) continue;
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace viator::wli
