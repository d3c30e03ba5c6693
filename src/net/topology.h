// Physical topology: a mutable multigraph of nodes and full-duplex links
// with bandwidth, propagation latency, loss and queue capacity, plus the
// standard generator family (line, ring, star, grid, random, geometric,
// Barabási–Albert) and shortest-path queries.
//
// Links can be brought up/down and added at runtime — mobility and failure
// injection mutate the same structure the fabric routes over, which is what
// lets the Wandering Network's "topology-on-demand" react to real change.
//
// NextHop() — the per-hop routing query on the data path — is backed by a
// generation-stamped route cache of per-destination rows (LRU-bounded,
// 1024 rows by default, so a graph of up to 1024 nodes keeps a row for
// every destination): the row for `to` holds every node's hop distance to
// `to`, 2 bytes per node, filled by one BFS from `to`. Every hop of a
// shuttle reads the same row. The BFS walks a CSR adjacency (one offsets
// array, one neighbour array) of the up neighbours, rebuilt at most once
// per generation, with a reused frontier and the row itself as the visited
// mark.
//
// A row holds distances up to 0xFFFE; 0xFFFF marks an unreached node. A
// destination whose BFS, from a fill or from a repair that joins
// components, would need a distance of 0xFFFF or more is never cached with
// wrapped values: its row is marked deep, and every NextHop toward it is
// answered by NextHopUncached until the row is next refilled. Repairs
// restamp a deep row without touching it.
//
// NextHop(from, to) returns the first neighbour v in from's CSR slice with
// dist[v] == dist[from] - 1 (`to` itself when dist[from] == 1). That is
// exactly ShortestPath(from, to)[1]. The CSR lists each node's neighbours
// in the order Neighbors() yields them, and first-touch BFS from `from`
// keeps every frontier level grouped by first hop, in from's neighbour
// order: level 1 is that order, and a level-k node's children follow it.
// So a node w at level k + 1 inherits the first hop of the earliest level-k
// node next to it: the first neighbour n of `from` whose group holds a
// level-k neighbour of w, which is the first n with dist(n, w) == k. The
// lookup scans from's slice; its worst case is a hub whose only closer
// neighbour is listed last, one row read per neighbour.
//
// Structural mutations bump `generation_`, and a row is live only while its
// stamp equals it. A link coming up (AddLink, SetLinkUp(id, true)) only
// lowers distances, so it repairs each live row in place and restamps it:
// when the endpoints' distances differ by at most one, or either endpoint
// is down, the row is unchanged; otherwise an exact decrease-only BFS runs
// from the farther endpoint (its new distance is the nearer one's plus one)
// and stops where distances do not fall. Removals and node changes (link
// or node down, node up, added nodes, mobility rewires that drop links)
// leave rows stale, to be refilled lazily on their next read. Rows and CSR
// are derived state: never snapshotted or hashed, copied with the topology.
//
// digest() caches the digest of the topology's own fields (HashFields over
// Visit) under the same stamp: every change to a visited field bumps
// `generation_`, so the state digest re-walks the topology only after it
// changed. The cached digest is derived state too.
//
// FastestTree() is the one latency-weighted (Dijkstra) search: FastestPath
// stops it at its target, and the overlay manager grows one full tree per
// overlay member to pin every virtual link from that member at once.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "base/rng.h"
#include "net/types.h"
#include "sim/time.h"
#include "telemetry/mem_counters.h"

namespace viator::sim {
class StatsRegistry;
}  // namespace viator::sim

namespace viator::net {

/// Full-duplex point-to-point link parameters.
struct LinkConfig {
  double bandwidth_bps = 100e6;            // per direction
  sim::Duration latency = sim::kMillisecond;  // propagation, per direction
  double loss_probability = 0.0;           // i.i.d. frame loss
  std::uint32_t queue_capacity_bytes = 1 << 20;  // per-direction tx queue
};

struct Link {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  LinkConfig config;
  bool up = true;
};

class Topology {
 public:
  /// Creates `count` fresh nodes; returns the id of the first.
  NodeId AddNodes(std::size_t count);

  /// Connects a and b (must exist, distinct). Returns the link id.
  LinkId AddLink(NodeId a, NodeId b, const LinkConfig& config = {});

  std::size_t node_count() const { return node_count_; }
  std::size_t link_count() const { return links_.size(); }

  const Link& link(LinkId id) const { return links_[id]; }

  void SetLinkUp(LinkId id, bool up);
  bool IsLinkUp(LinkId id) const { return links_[id].up; }

  /// Marks every link touching `node` down (node failure) or up again.
  void SetNodeUp(NodeId node, bool up);
  bool IsNodeUp(NodeId node) const { return node_up_[node]; }

  /// The up link between a and b if one exists.
  std::optional<LinkId> FindLink(NodeId a, NodeId b) const;

  /// Up neighbors of `node` (only via up links, both endpoints up).
  std::vector<NodeId> Neighbors(NodeId node) const;

  /// All link ids incident to `node`.
  std::vector<LinkId> IncidentLinks(NodeId node) const;

  /// Hop-count shortest path a→b over up links; empty if disconnected.
  /// The returned path includes both endpoints.
  std::vector<NodeId> ShortestPath(NodeId a, NodeId b) const;

  /// Latency-weighted shortest path (Dijkstra over link latency); empty if
  /// disconnected. FastestTree(a, b).PathTo(b).
  std::vector<NodeId> FastestPath(NodeId a, NodeId b) const;

  /// The nodes a fastest-path search reached: each one's parent toward the
  /// source and the link it was relaxed through.
  struct PathTree {
    std::vector<NodeId> parent;  // kInvalidNode: not reached; source: itself
    std::vector<LinkId> via;     // kInvalidLink at the source, unreached

    /// Source→`to` path including both endpoints; empty if `to` was not
    /// reached.
    std::vector<NodeId> PathTo(NodeId to) const;
  };

  /// Dijkstra over link latency from `source` (up links, up nodes; equal
  /// distances pop in node-id order) until `stop` pops, or over every
  /// reachable node when `stop` is kInvalidNode. Read paths only to popped
  /// nodes: `stop`, or any node of a full search. Latencies are unsigned, so
  /// a popped node's parent never changes and a full search pops the same
  /// nodes in the same order before `stop` as the stopped one: its tree
  /// answers FastestPath(source, t) for every t at once.
  PathTree FastestTree(NodeId source, NodeId stop = kInvalidNode) const;

  /// Next hop on the hop-count shortest path, or kInvalidNode. A scan of
  /// from's up neighbours against the cached row for `to` in steady state;
  /// one row-filling BFS per destination otherwise (cold, evicted, or stale
  /// after a removal or node change), and NextHopUncached toward a
  /// destination whose row is deep.
  NodeId NextHop(NodeId from, NodeId to) const;

  /// Next hop computed the pre-cache way: a fresh per-pair BFS. Exists so
  /// tests (and the bench's cache-off leg) can prove the cache
  /// decision-identical, and answers NextHop toward a deep row; callers
  /// route through NextHop.
  NodeId NextHopUncached(NodeId from, NodeId to) const {
    const auto path = ShortestPath(from, to);
    return path.size() >= 2 ? path[1] : kInvalidNode;
  }

  // ---- Route cache ---------------------------------------------------------

  struct RouteCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;         // row fills (cold or post-invalidation)
    std::uint64_t invalidations = 0;  // stale rows discarded lazily
    std::uint64_t evictions = 0;      // live rows displaced by LRU pressure
    // Link additions repair live rows in place and count as none of these.
  };

  /// Runtime switch (default on). Disabling routes every NextHop through a
  /// fresh BFS — the reference the bench gate measures the cache against.
  void SetRouteCacheEnabled(bool enabled) { cache_enabled_ = enabled; }
  bool route_cache_enabled() const { return cache_enabled_; }

  /// Caps the number of cached destination rows (LRU eviction beyond it).
  /// Minimum 1; default 1024 rows.
  void SetRouteCacheCapacity(std::size_t rows);
  std::size_t route_cache_capacity() const { return cache_capacity_; }

  const RouteCacheStats& route_cache_stats() const { return cache_stats_; }

  /// Heap bytes behind the cache (row index, row spine, distance stores,
  /// the CSR adjacency and BFS frontier), tracked incrementally and
  /// mirrored into the memory observatory's kRouteCache domain.
  /// Deterministic for a given query and mutation sequence.
  std::size_t route_cache_bytes() const { return cache_bytes_.value(); }

  /// Monotone structural-change counter: bumps on every mutation that could
  /// change a shortest path. A link addition restamps the rows it repaired;
  /// rows stamped with an older generation are dead.
  std::uint64_t generation() const { return generation_; }

  /// Monotone count of links and nodes that went down (SetLinkUp(id, false),
  /// SetNodeUp(n, false)): while it stands still, every path over up links
  /// stays up. Derived state, like the generation: not snapshotted or
  /// hashed.
  std::uint64_t losses() const { return losses_; }

  /// HashFields(*this): the digest of the visited fields, recomputed only
  /// when `generation_` moved since the last call.
  Digest digest() const;

  /// True when every node can reach every other over up links.
  bool IsConnected() const;

  /// Shard-local view (src/shard): the subgraph induced by `members` —
  /// global node ids that become local ids 0..members.size()-1 in member
  /// order. Links with both endpoints in `members` are copied with the same
  /// config and up flag; links crossing the cut are *not* copied (the shard
  /// plan carries them separately as cross-shard link metadata). Per-node
  /// up/down states are preserved. Duplicate members are invalid.
  Topology InducedSubgraph(const std::vector<NodeId>& members) const;

  /// Snapshot fields (the genesis topology section): node count, per-node
  /// up flags, then per link its endpoints, config and up flag. A load needs
  /// an empty topology and rebuilds it in capture order (see Rebuild).
  template <class A>
  void Visit(A& a) {
    if constexpr (A::kLoading) {
      if (node_count_ != 0 || !links_.empty()) {
        a.Fail(FailedPrecondition(
            "topology restore requires an empty topology"));
        return;
      }
    }
    std::uint64_t nodes = node_count_;
    a.U64(0x01, nodes);
    a.Repeated(0x02, node_up_);
    a.Each(0x03, links_, [](auto& r, auto& link) {
      r.U64(0x01, link.a);
      r.U64(0x02, link.b);
      r.F64(0x03, link.config.bandwidth_bps);
      r.U64(0x04, link.config.latency);
      r.F64(0x05, link.config.loss_probability);
      r.U32(0x06, link.config.queue_capacity_bytes);
      r.Bool(0x07, link.up);
    });
    if constexpr (A::kLoading) {
      if (a.ok()) {
        a.Check(Rebuild(nodes));
      } else {
        // A failed load leaves the topology empty, as a failed Rebuild
        // does: the raw fields it read never bumped the generation.
        node_up_.clear();
        links_.clear();
      }
    }
  }

 private:
  // Turns the raw node flags and links a load left in node_up_/links_ into
  // a topology: validates them, then adds nodes and links, applies node
  // flags and finally the exact link flags, so the result matches the
  // capture bit for bit. On error the topology is left empty.
  Status Rebuild(std::uint64_t node_count);

  // One cached destination row: dist[n] is n's hop count to `to` over up
  // links, kUnreached when there is no path. Valid iff gen == generation_.
  // A deep row needed a distance of kUnreached or more: its distances are
  // never read, and lookups toward `to` take the per-pair BFS.
  using Dist = std::uint16_t;
  static constexpr std::uint32_t kUnreached = 0xFFFF;
  struct CacheRow {
    NodeId to = kInvalidNode;
    bool deep = false;
    std::uint64_t gen = 0;
    std::uint64_t last_used = 0;
    std::vector<Dist> dist;
  };

  CacheRow& RouteRowFor(NodeId to) const;
  void FillRow(CacheRow& row, NodeId to) const;
  // Bumps the generation for a link (a, b) that just came up and repairs
  // every row that was live before it (see the header comment).
  void LinkCameUp(NodeId a, NodeId b);
  // Decrease-only BFS: `start` moves to `dist` hops and every node it
  // brings closer follows. False when some node would need a distance of
  // kUnreached or more; the row is then partly written and must be deep.
  bool LowerFrom(Dist* row, NodeId start, std::uint32_t dist) const;
  // Rebuilds the CSR adjacency and sizes the frontier for generation_.
  void BuildCsr() const;

  std::size_t node_count_ = 0;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> incident_;  // node -> link ids
  std::vector<bool> node_up_;

  std::uint64_t generation_ = 0;
  std::uint64_t losses_ = 0;
  bool cache_enabled_ = true;
  std::size_t cache_capacity_ = 1024;
  // Cache storage is derived, query-time state: mutable so the const query
  // path can maintain it. Copying a Topology copies the cache, which stays
  // valid (generation and structure travel together).
  mutable std::vector<CacheRow> rows_;
  mutable std::vector<std::uint32_t> row_of_;  // to -> index into rows_
  mutable std::uint64_t lru_tick_ = 0;
  mutable RouteCacheStats cache_stats_;
  // The CSR adjacency the fills, repairs and lookups walk: node n's up
  // neighbours are csr_nodes_[csr_offsets_[n] .. csr_offsets_[n + 1]), in
  // incident_ order and filtered exactly as Neighbors() filters. Valid iff
  // csr_gen_ == generation_ (generation_ never reaches the initial stamp).
  mutable std::uint64_t csr_gen_ = ~std::uint64_t{0};
  mutable std::vector<std::uint32_t> csr_offsets_;
  mutable std::vector<NodeId> csr_nodes_;
  mutable std::vector<NodeId> frontier_;  // the fill and repair BFS queue
  // digest()'s cache, valid iff digest_gen_ == generation_.
  mutable std::uint64_t digest_gen_ = ~std::uint64_t{0};
  mutable Digest digest_ = 0;
  // Running cache footprint; ChargedBytes keeps the global kRouteCache
  // domain consistent across topology copy/move/destroy.
  mutable telemetry::mem::ChargedBytes<telemetry::mem::Domain::kRouteCache>
      cache_bytes_;
};

/// Mirrors `topology`'s route-cache counters into `stats` as gauges:
/// `<prefix>.hits`, `.misses`, `.invalidations`, `.evictions` and
/// `.hit_ratio` (hits / lookups, 0 when the cache is cold). Gauges are Set,
/// not accumulated, so the call is idempotent — invoke it from any telemetry
/// flush point (network pulse, shard window barrier).
void PublishRouteCacheStats(sim::StatsRegistry& stats,
                            const Topology& topology,
                            std::string_view prefix = "net.route_cache");

// ---- Generators -----------------------------------------------------------

/// N nodes in a chain: 0-1-2-...-(n-1).
Topology MakeLine(std::size_t n, const LinkConfig& config = {});

/// N nodes in a cycle.
Topology MakeRing(std::size_t n, const LinkConfig& config = {});

/// Hub-and-spoke: node 0 is the hub.
Topology MakeStar(std::size_t n, const LinkConfig& config = {});

/// rows × cols mesh with 4-neighborhood.
Topology MakeGrid(std::size_t rows, std::size_t cols,
                  const LinkConfig& config = {});

/// Erdős–Rényi-style random graph with edge probability p, re-drawn (up to a
/// bounded number of attempts) until connected.
Topology MakeRandom(std::size_t n, double p, Rng& rng,
                    const LinkConfig& config = {});

/// Barabási–Albert preferential attachment with m edges per new node.
Topology MakeScaleFree(std::size_t n, std::size_t m, Rng& rng,
                       const LinkConfig& config = {});

/// Geometric radio graph over given positions: link iff distance <= range.
struct Position {
  double x = 0.0;
  double y = 0.0;
};
Topology MakeGeometric(const std::vector<Position>& positions, double range,
                       const LinkConfig& config = {});

/// Euclidean distance helper shared with the mobility model.
double Distance(const Position& a, const Position& b);

}  // namespace viator::net
