#include "net/topology.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <queue>

#include "base/archive.h"
#include "sim/stats.h"
#include "telemetry/perf_counters.h"

namespace viator::net {

NodeId Topology::AddNodes(std::size_t count) {
  const NodeId first = static_cast<NodeId>(node_count_);
  node_count_ += count;
  incident_.resize(node_count_);
  node_up_.resize(node_count_, true);
  if (count != 0) ++generation_;
  return first;
}

LinkId Topology::AddLink(NodeId a, NodeId b, const LinkConfig& config) {
  assert(a < node_count_ && b < node_count_ && a != b);
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b, config, true});
  incident_[a].push_back(id);
  incident_[b].push_back(id);
  LinkCameUp(a, b);
  return id;
}

void Topology::SetLinkUp(LinkId id, bool up) {
  Link& link = links_[id];
  if (link.up == up) return;
  link.up = up;
  if (up) {
    LinkCameUp(link.a, link.b);
  } else {
    ++generation_;
    ++losses_;
  }
}

void Topology::LinkCameUp(NodeId a, NodeId b) {
  const std::uint64_t live = generation_++;
  // A link to a down node joins nothing: live rows only need the new stamp.
  const bool joins = node_up_[a] && node_up_[b];
  for (CacheRow& row : rows_) {
    if (row.gen != live) continue;
    row.gen = generation_;
    if (!joins || row.deep) continue;
    Dist* const dist = row.dist.data();
    const std::uint32_t da = dist[a];
    const std::uint32_t db = dist[b];
    // The new link shortens paths only through the nearer endpoint, and
    // only when the farther one sits two or more levels below it.
    if (da != kUnreached && (db == kUnreached || db > da + 1)) {
      row.deep = !LowerFrom(dist, b, da + 1);
    } else if (db != kUnreached && (da == kUnreached || da > db + 1)) {
      row.deep = !LowerFrom(dist, a, db + 1);
    }
  }
}

void Topology::SetNodeUp(NodeId node, bool up) {
  if (node_up_[node] != up) {
    node_up_[node] = up;
    ++generation_;
    if (!up) ++losses_;
  }
}

std::optional<LinkId> Topology::FindLink(NodeId a, NodeId b) const {
  if (!node_up_[a] || !node_up_[b]) return std::nullopt;
  for (LinkId id : incident_[a]) {
    const Link& l = links_[id];
    if (!l.up) continue;
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return id;
  }
  return std::nullopt;
}

std::vector<NodeId> Topology::Neighbors(NodeId node) const {
  std::vector<NodeId> out;
  if (!node_up_[node]) return out;
  for (LinkId id : incident_[node]) {
    const Link& l = links_[id];
    if (!l.up) continue;
    const NodeId other = l.a == node ? l.b : l.a;
    if (node_up_[other]) out.push_back(other);
  }
  return out;
}

std::vector<LinkId> Topology::IncidentLinks(NodeId node) const {
  return incident_[node];
}

std::vector<NodeId> Topology::ShortestPath(NodeId a, NodeId b) const {
  if (a >= node_count_ || b >= node_count_) return {};
  if (!node_up_[a] || !node_up_[b]) return {};
  if (a == b) return {a};
  std::vector<NodeId> parent(node_count_, kInvalidNode);
  std::deque<NodeId> frontier{a};
  parent[a] = a;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (NodeId v : Neighbors(u)) {
      if (parent[v] != kInvalidNode) continue;
      parent[v] = u;
      if (v == b) {
        std::vector<NodeId> path{b};
        for (NodeId at = b; at != a;) {
          at = parent[at];
          path.push_back(at);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(v);
    }
  }
  return {};
}

std::vector<NodeId> Topology::FastestPath(NodeId a, NodeId b) const {
  return FastestTree(a, b).PathTo(b);
}

Topology::PathTree Topology::FastestTree(NodeId source, NodeId stop) const {
  PathTree tree;
  tree.parent.assign(node_count_, kInvalidNode);
  tree.via.assign(node_count_, kInvalidLink);
  // An absent or down source reaches nothing; a stop that can never pop
  // leaves nothing to read.
  if (source >= node_count_ || !node_up_[source]) return tree;
  if (stop != kInvalidNode && (stop >= node_count_ || !node_up_[stop])) {
    return tree;
  }
  constexpr double kInf = 1e300;
  std::vector<double> dist(node_count_, kInf);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0.0;
  tree.parent[source] = source;
  pq.push({0.0, source});
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == stop) break;
    for (LinkId id : incident_[u]) {
      const Link& l = links_[id];
      if (!l.up) continue;
      const NodeId v = l.a == u ? l.b : l.a;
      if (!node_up_[v]) continue;
      const double nd = d + static_cast<double>(l.config.latency);
      if (nd < dist[v]) {
        dist[v] = nd;
        tree.parent[v] = u;
        tree.via[v] = id;
        pq.push({nd, v});
      }
    }
  }
  return tree;
}

std::vector<NodeId> Topology::PathTree::PathTo(NodeId to) const {
  if (to >= parent.size() || parent[to] == kInvalidNode) return {};
  // A path visits a node at most once, which also bounds the walk.
  std::vector<NodeId> path{to};
  while (parent[path.back()] != path.back() && path.size() < parent.size()) {
    path.push_back(parent[path.back()]);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

NodeId Topology::NextHop(NodeId from, NodeId to) const {
  if (!cache_enabled_) return NextHopUncached(from, to);
  // Guards mirror ShortestPath exactly so cached and uncached answers agree
  // on every degenerate input.
  if (from >= node_count_ || to >= node_count_) return kInvalidNode;
  if (!node_up_[from] || !node_up_[to]) return kInvalidNode;
  if (from == to) return kInvalidNode;
  CacheRow& row = RouteRowFor(to);
  row.last_used = ++lru_tick_;
  if (row.deep) return NextHopUncached(from, to);
  const Dist* const dist = row.dist.data();
  const std::uint32_t d = dist[from];
  if (d == kUnreached) return kInvalidNode;
  if (d == 1) return to;
  // The first neighbour one level closer, in CSR order (header comment).
  if (csr_gen_ != generation_) BuildCsr();
  for (std::uint32_t k = csr_offsets_[from]; k < csr_offsets_[from + 1]; ++k) {
    const NodeId v = csr_nodes_[k];
    if (dist[v] == d - 1) return v;
  }
  assert(false && "a reached node has a neighbour one level closer");
  return kInvalidNode;
}

void Topology::SetRouteCacheCapacity(std::size_t rows) {
  cache_capacity_ = rows == 0 ? 1 : rows;
  // Shed excess rows now; which ones go is irrelevant to correctness, so
  // drop from the back (deterministic).
  while (rows_.size() > cache_capacity_) {
    const CacheRow& victim = rows_.back();
    if (victim.to < row_of_.size()) {
      row_of_[victim.to] = kInvalidNode;
    }
    ++cache_stats_.evictions;
    cache_bytes_.Sub(victim.dist.capacity() * sizeof(Dist));
    rows_.pop_back();
  }
}

Topology::CacheRow& Topology::RouteRowFor(NodeId to) const {
  if (row_of_.size() < node_count_) {
    const std::size_t before = row_of_.capacity();
    row_of_.resize(node_count_, kInvalidNode);
    if (row_of_.capacity() != before) {
      cache_bytes_.Add((row_of_.capacity() - before) * sizeof(std::uint32_t));
    }
  }
  const std::uint32_t idx = row_of_[to];
  if (idx != kInvalidNode && rows_[idx].to == to) {
    CacheRow& row = rows_[idx];
    if (row.gen == generation_) {
      ++cache_stats_.hits;
      VIATOR_PERF_COUNT(kRouteCacheHit);
      return row;
    }
    // Stale: refill in place.
    ++cache_stats_.invalidations;
    ++cache_stats_.misses;
    VIATOR_PERF_COUNT(kRouteCacheMiss);
    FillRow(row, to);
    return row;
  }
  ++cache_stats_.misses;
  VIATOR_PERF_COUNT(kRouteCacheMiss);
  if (rows_.size() < cache_capacity_) {
    const std::size_t before = rows_.capacity();
    rows_.emplace_back();
    if (rows_.capacity() != before) {
      cache_bytes_.Add((rows_.capacity() - before) * sizeof(CacheRow));
    }
    row_of_[to] = static_cast<std::uint32_t>(rows_.size() - 1);
    CacheRow& row = rows_.back();
    FillRow(row, to);
    return row;
  }
  // LRU eviction: reuse the least recently used row's storage.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < rows_.size(); ++i) {
    if (rows_[i].last_used < rows_[victim].last_used) victim = i;
  }
  CacheRow& row = rows_[victim];
  if (row.to < row_of_.size() && row_of_[row.to] == victim) {
    row_of_[row.to] = kInvalidNode;
  }
  ++cache_stats_.evictions;
  row_of_[to] = static_cast<std::uint32_t>(victim);
  FillRow(row, to);
  return row;
}

void Topology::FillRow(Topology::CacheRow& row, NodeId to) const {
  VIATOR_PERF_SCOPE(kRouteCacheFill);
  row.to = to;
  row.gen = generation_;
  const std::size_t before = row.dist.capacity();
  row.dist.assign(node_count_, kUnreached);
  if (row.dist.capacity() != before) {
    cache_bytes_.Add((row.dist.capacity() - before) * sizeof(Dist));
  }
  // One full BFS from the destination; links are full duplex, so a node's
  // distance from `to` is its distance to it. Over an all-unreached row
  // the decrease-only BFS is exactly that BFS.
  row.deep = !LowerFrom(row.dist.data(), to, 0);
}

bool Topology::LowerFrom(Dist* row, NodeId start, std::uint32_t dist) const {
  if (dist >= kUnreached) return false;
  if (csr_gen_ != generation_) BuildCsr();
  // The queue pops in nondecreasing distance, so a node lowered once is
  // already final and enters the queue at most once.
  row[start] = static_cast<Dist>(dist);
  std::size_t head = 0;
  std::size_t tail = 0;
  frontier_[tail++] = start;
  while (head < tail) {
    const NodeId u = frontier_[head++];
    const std::uint32_t next = row[u] + 1;
    const std::uint32_t end = csr_offsets_[u + 1];
    if (next == kUnreached) {
      // u sits at the deepest level a row holds: a neighbour still
      // unreached would need one more.
      for (std::uint32_t k = csr_offsets_[u]; k < end; ++k) {
        if (row[csr_nodes_[k]] == kUnreached) return false;
      }
      continue;
    }
    for (std::uint32_t k = csr_offsets_[u]; k < end; ++k) {
      const NodeId v = csr_nodes_[k];
      if (row[v] <= next) continue;
      row[v] = static_cast<Dist>(next);
      frontier_[tail++] = v;
    }
  }
  return true;
}

void Topology::BuildCsr() const {
  const auto bytes = [this] {
    return csr_offsets_.capacity() * sizeof(std::uint32_t) +
           (csr_nodes_.capacity() + frontier_.capacity()) * sizeof(NodeId);
  };
  const std::size_t before = bytes();
  csr_offsets_.resize(node_count_ + 1);
  csr_nodes_.clear();
  // Each up link lists both endpoints once: room for all without doubling.
  csr_nodes_.reserve(2 * links_.size());
  for (NodeId n = 0; n < node_count_; ++n) {
    csr_offsets_[n] = static_cast<std::uint32_t>(csr_nodes_.size());
    if (!node_up_[n]) continue;
    for (LinkId id : incident_[n]) {
      const Link& l = links_[id];
      if (!l.up) continue;
      const NodeId other = l.a == n ? l.b : l.a;
      if (node_up_[other]) csr_nodes_.push_back(other);
    }
  }
  csr_offsets_[node_count_] = static_cast<std::uint32_t>(csr_nodes_.size());
  frontier_.resize(node_count_);
  csr_gen_ = generation_;
  if (bytes() != before) cache_bytes_.Add(bytes() - before);
}

Digest Topology::digest() const {
  if (digest_gen_ != generation_) {
    Hasher hasher;
    HashFields(*this, hasher);
    digest_ = hasher.digest();
    digest_gen_ = generation_;
  }
  return digest_;
}

bool Topology::IsConnected() const {
  if (node_count_ == 0) return true;
  NodeId start = kInvalidNode;
  std::size_t up_nodes = 0;
  for (NodeId n = 0; n < node_count_; ++n) {
    if (node_up_[n]) {
      ++up_nodes;
      if (start == kInvalidNode) start = n;
    }
  }
  if (up_nodes <= 1) return true;
  std::vector<bool> seen(node_count_, false);
  std::deque<NodeId> frontier{start};
  seen[start] = true;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (NodeId v : Neighbors(u)) {
      if (seen[v]) continue;
      seen[v] = true;
      ++reached;
      frontier.push_back(v);
    }
  }
  return reached == up_nodes;
}

Topology Topology::InducedSubgraph(const std::vector<NodeId>& members) const {
  Topology sub;
  if (members.empty()) return sub;
  sub.AddNodes(members.size());
  std::vector<NodeId> local_of(node_count_, kInvalidNode);
  for (std::size_t i = 0; i < members.size(); ++i) {
    local_of[members[i]] = static_cast<NodeId>(i);
    if (!node_up_[members[i]]) sub.SetNodeUp(static_cast<NodeId>(i), false);
  }
  for (const Link& l : links_) {
    const NodeId la = local_of[l.a];
    const NodeId lb = local_of[l.b];
    if (la == kInvalidNode || lb == kInvalidNode) continue;
    const LinkId id = sub.AddLink(la, lb, l.config);
    if (!l.up) sub.SetLinkUp(id, false);
  }
  return sub;
}

Status Topology::Rebuild(std::uint64_t node_count) {
  std::vector<bool> node_up = std::move(node_up_);
  std::vector<Link> links = std::move(links_);
  node_up_.clear();
  links_.clear();
  if (node_up.size() != node_count) {
    return InvalidArgument("topology node flag count mismatch");
  }
  for (const Link& link : links) {
    if (link.a >= node_count || link.b >= node_count || link.a == link.b) {
      return InvalidArgument("topology link endpoint out of range");
    }
  }
  if (node_count > 0) AddNodes(node_count);
  for (const Link& link : links) AddLink(link.a, link.b, link.config);
  for (NodeId n = 0; n < node_up.size(); ++n) {
    if (!node_up[n]) SetNodeUp(n, false);
  }
  for (LinkId id = 0; id < links.size(); ++id) SetLinkUp(id, links[id].up);
  return OkStatus();
}

// ---- Generators -----------------------------------------------------------

void PublishRouteCacheStats(sim::StatsRegistry& stats,
                            const Topology& topology,
                            std::string_view prefix) {
  const Topology::RouteCacheStats& cache = topology.route_cache_stats();
  std::string name(prefix);
  const std::size_t stem = name.size();
  const auto set = [&](std::string_view leaf, double value) {
    name.resize(stem);
    name += '.';
    name += leaf;
    stats.GetGauge(name).Set(value);
  };
  set("hits", static_cast<double>(cache.hits));
  set("misses", static_cast<double>(cache.misses));
  set("invalidations", static_cast<double>(cache.invalidations));
  set("evictions", static_cast<double>(cache.evictions));
  const std::uint64_t lookups = cache.hits + cache.misses;
  set("hit_ratio", lookups == 0 ? 0.0
                                : static_cast<double>(cache.hits) /
                                      static_cast<double>(lookups));
}

Topology MakeLine(std::size_t n, const LinkConfig& config) {
  Topology t;
  t.AddNodes(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    t.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(i + 1), config);
  }
  return t;
}

Topology MakeRing(std::size_t n, const LinkConfig& config) {
  Topology t = MakeLine(n, config);
  if (n >= 3) t.AddLink(static_cast<NodeId>(n - 1), 0, config);
  return t;
}

Topology MakeStar(std::size_t n, const LinkConfig& config) {
  Topology t;
  t.AddNodes(n);
  for (std::size_t i = 1; i < n; ++i) {
    t.AddLink(0, static_cast<NodeId>(i), config);
  }
  return t;
}

Topology MakeGrid(std::size_t rows, std::size_t cols,
                  const LinkConfig& config) {
  Topology t;
  t.AddNodes(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) t.AddLink(id(r, c), id(r, c + 1), config);
      if (r + 1 < rows) t.AddLink(id(r, c), id(r + 1, c), config);
    }
  }
  return t;
}

Topology MakeRandom(std::size_t n, double p, Rng& rng,
                    const LinkConfig& config) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    Topology t;
    t.AddNodes(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.Bernoulli(p)) {
          t.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(j), config);
        }
      }
    }
    if (t.IsConnected()) return t;
  }
  // Fall back to a connected backbone plus random chords.
  Topology t = MakeLine(n, config);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j < n; ++j) {
      if (rng.Bernoulli(p)) {
        t.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(j), config);
      }
    }
  }
  return t;
}

Topology MakeScaleFree(std::size_t n, std::size_t m, Rng& rng,
                       const LinkConfig& config) {
  assert(n >= 2 && m >= 1);
  Topology t;
  t.AddNodes(n);
  // Endpoint list doubles as the preferential-attachment distribution.
  std::vector<NodeId> endpoints;
  t.AddLink(0, 1, config);
  endpoints.push_back(0);
  endpoints.push_back(1);
  for (std::size_t v = 2; v < n; ++v) {
    const std::size_t degree_edges = std::min(m, v);
    std::vector<NodeId> chosen;
    while (chosen.size() < degree_edges) {
      const NodeId u = endpoints[rng.Index(endpoints.size())];
      if (u == v) continue;
      if (std::find(chosen.begin(), chosen.end(), u) != chosen.end()) continue;
      chosen.push_back(u);
    }
    for (NodeId u : chosen) {
      t.AddLink(static_cast<NodeId>(v), u, config);
      endpoints.push_back(static_cast<NodeId>(v));
      endpoints.push_back(u);
    }
  }
  return t;
}

double Distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Topology MakeGeometric(const std::vector<Position>& positions, double range,
                       const LinkConfig& config) {
  Topology t;
  t.AddNodes(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    for (std::size_t j = i + 1; j < positions.size(); ++j) {
      if (Distance(positions[i], positions[j]) <= range) {
        t.AddLink(static_cast<NodeId>(i), static_cast<NodeId>(j), config);
      }
    }
  }
  return t;
}

}  // namespace viator::net
