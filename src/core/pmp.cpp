#include "core/pmp.h"

#include <algorithm>
#include <functional>

namespace viator::wli {

void DemandTracker::Record(net::NodeId node, node::FirstLevelRole role,
                           double amount) {
  demand_[{node, role}] += amount;
}

void DemandTracker::Decay() {
  for (auto it = demand_.begin(); it != demand_.end();) {
    it->second *= kDecay;
    if (it->second < 1e-6) {
      it = demand_.erase(it);
    } else {
      ++it;
    }
  }
}

double DemandTracker::DemandAt(net::NodeId node,
                               node::FirstLevelRole role) const {
  const auto it = demand_.find({node, role});
  return it == demand_.end() ? 0.0 : it->second;
}

net::NodeId DemandTracker::HottestNode(node::FirstLevelRole role) const {
  net::NodeId best = net::kInvalidNode;
  double best_demand = 0.0;
  for (const auto& [key, value] : demand_) {
    if (key.second != role) continue;
    if (best == net::kInvalidNode || value > best_demand) {
      best = key.first;
      best_demand = value;
    }
  }
  return best;
}

double DemandTracker::TotalDemand(node::FirstLevelRole role) const {
  double total = 0.0;
  for (const auto& [key, value] : demand_) {
    if (key.second == role) total += value;
  }
  return total;
}

std::vector<HorizontalWanderer::Migration> HorizontalWanderer::Decide(
    const std::map<FunctionId, net::NodeId>& placement,
    const std::map<FunctionId, node::FirstLevelRole>& roles,
    const DemandTracker& demand) const {
  std::vector<Migration> out;
  for (const auto& [fn, host] : placement) {
    const auto role_it = roles.find(fn);
    if (role_it == roles.end()) continue;
    const node::FirstLevelRole role = role_it->second;
    const net::NodeId hotspot = demand.HottestNode(role);
    if (hotspot == net::kInvalidNode || hotspot == host) continue;
    const double at_hotspot = demand.DemandAt(hotspot, role);
    const double at_host = demand.DemandAt(host, role);
    if (at_hotspot < kMinDemand) continue;
    if (at_hotspot > std::max(at_host, 1e-9) * config_.hysteresis) {
      out.push_back(Migration{fn, host, hotspot});
    }
  }
  return out;
}

std::vector<VerticalWanderer::SpawnDecision> VerticalWanderer::Decide(
    const std::map<net::NodeId, std::map<node::SecondLevelClass, double>>&
        activity) const {
  // Aggregate per class; members are the nodes whose per-class activity is
  // a meaningful share of the total.
  std::map<node::SecondLevelClass, double> totals;
  for (const auto& [node, classes] : activity) {
    for (const auto& [cls, amount] : classes) totals[cls] += amount;
  }
  std::vector<SpawnDecision> out;
  for (const auto& [cls, total] : totals) {
    if (total < config_.spawn_threshold) continue;
    SpawnDecision decision;
    decision.cls = cls;
    for (const auto& [node, classes] : activity) {
      const auto it = classes.find(cls);
      if (it != classes.end() && it->second > 0.0) {
        decision.members.push_back(node);
      }
    }
    if (decision.members.size() >= kMinMembers) {
      std::sort(decision.members.begin(), decision.members.end());
      out.push_back(std::move(decision));
    }
  }
  return out;
}

void ResonanceDetector::Observe(net::NodeId ship, FactKey key) {
  holders_[key].insert(ship);
}

std::vector<std::vector<FactKey>> ResonanceDetector::DetectAndReset() {
  // Pairwise resonance, then greedy merge of overlapping pairs into groups.
  std::vector<std::pair<FactKey, FactKey>> resonant_pairs;
  for (auto a = holders_.begin(); a != holders_.end(); ++a) {
    for (auto b = std::next(a); b != holders_.end(); ++b) {
      std::size_t both = 0;
      for (net::NodeId ship : a->second) {
        both += b->second.count(ship);
      }
      const std::size_t either = a->second.size() + b->second.size() - both;
      if (both >= config_.min_support && either > 0 &&
          static_cast<double>(both) / static_cast<double>(either) >=
              kMinJaccard) {
        resonant_pairs.emplace_back(a->first, b->first);
      }
    }
  }
  // Merge pairs sharing a key (union-find over fact keys).
  std::map<FactKey, FactKey> parent;
  std::function<FactKey(FactKey)> find = [&](FactKey x) -> FactKey {
    auto it = parent.find(x);
    if (it == parent.end() || it->second == x) return x;
    const FactKey root = find(it->second);
    parent[x] = root;
    return root;
  };
  for (const auto& [a, b] : resonant_pairs) {
    parent.try_emplace(a, a);
    parent.try_emplace(b, b);
    const FactKey ra = find(a);
    const FactKey rb = find(b);
    if (ra != rb) parent[ra] = rb;
  }
  std::map<FactKey, std::vector<FactKey>> groups;
  for (const auto& [key, p] : parent) groups[find(key)].push_back(key);
  std::vector<std::vector<FactKey>> out;
  for (auto& [root, members] : groups) {
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end());
  holders_.clear();
  return out;
}

}  // namespace viator::wli
