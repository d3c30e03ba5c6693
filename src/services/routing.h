// Routing control (§D): "overlaying and managing several virtual topologies
// on top of the same physical network infrastructure", treated by Viator as
// the special intra-node class all other roles depend on; and §E's flagship
// application: "a generic adaptive routing protocol for active ad-hoc
// wireless networks" specified with the WLI model.
//
// AdaptiveAdHocRouter is an on-demand distance-vector protocol in the AODV
// family, realized with WLI mechanisms: route discovery floods *control
// shuttles* (active packets), route entries are *facts* with lifetimes
// (routes that are not refreshed expire — PMP fact semantics), and data is
// buffered at the discoverer while discovery runs. StaticRouter is the
// baseline: next hops frozen at construction time, oblivious to mobility.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "base/flat_map.h"
#include "core/wandering_network.h"

namespace viator::services {

/// Baseline: routes computed once over the topology at construction and
/// never updated. Under mobility these go stale, which is the point.
class StaticRouter {
 public:
  explicit StaticRouter(wli::WanderingNetwork& network);

  /// Installs the frozen tables as the network's next-hop chooser.
  void Install();

  net::NodeId NextHop(net::NodeId at, net::NodeId dst) const;

 private:
  wli::WanderingNetwork& network_;
  // tables_[at][dst] = next hop (kInvalidNode when unreachable at snapshot).
  std::vector<std::vector<net::NodeId>> tables_;
};

/// Proactive distance-vector routing over control shuttles: every ship
/// periodically advertises its vector to its neighbors (split horizon);
/// entries age out when unrefreshed, so mobility churn heals within a few
/// advertisement periods. The classic proactive/reactive trade against
/// AdaptiveAdHocRouter: constant background control cost, no discovery
/// latency. One routing service per network.
class DistanceVectorRouter {
 public:
  struct Config {
    sim::Duration advertise_interval = 500 * sim::kMillisecond;
    sim::Duration route_lifetime = 2 * sim::kSecond;  // ~4 missed ads
  };

  DistanceVectorRouter(wli::WanderingNetwork& network, const Config& config);

  /// Starts the periodic advertisement loop until `until`.
  void Start(sim::TimePoint until);

  /// One synchronous advertisement round across all ships.
  void AdvertiseRound();

  /// Sends an application payload using the current tables (drops when no
  /// route is known — proactive protocols do not buffer).
  Status Send(net::NodeId src, net::NodeId dst,
              std::vector<std::int64_t> payload, std::uint64_t flow);

  bool HasRoute(net::NodeId at, net::NodeId dst) const;
  std::uint32_t MetricTo(net::NodeId at, net::NodeId dst) const;

  std::uint64_t ads_sent() const { return ads_sent_; }
  std::uint64_t control_bytes() const { return control_bytes_; }
  std::uint64_t dropped_no_route() const { return dropped_no_route_; }

  struct Route {
    net::NodeId next_hop = net::kInvalidNode;
    std::uint32_t metric = 0;
    sim::TimePoint expires = 0;
  };

  /// Per-node routing table: probed on every data hop, mutated only on
  /// advertisement/expiry, so a sorted flat vector beats a node-based map.
  /// Iteration stays in ascending destination order — state digests and
  /// genesis snapshot bytes are identical to the old std::map layout.
  using RouteTable = base::FlatMap<net::NodeId, Route>;

  const std::vector<RouteTable>& tables() const { return tables_; }

  /// Snapshot fields (genesis DvRouterAdapter): control accounting and every
  /// node's table. Route expiries are virtual-time values and thus replay
  /// deterministically. A load must cover exactly this router's node count.
  template <class A>
  void Visit(A& a) {
    a.U64(0x01, ads_sent_);
    a.U64(0x02, control_bytes_);
    a.U64(0x03, dropped_no_route_);
    const auto table_fields = [](auto& r, auto& table) {
      r.Each(0x01, table, [](auto& n, auto& dst, auto& route) {
        n.U64(0x01, dst);
        n.U64(0x02, route.next_hop);
        n.U32(0x03, route.metric);
        n.U64(0x04, route.expires);
      });
    };
    if constexpr (A::kLoading) {
      std::vector<RouteTable> tables;
      a.Each(0x04, tables, table_fields);
      if (!a.ok()) return;
      if (tables.size() != tables_.size()) {
        a.Fail(InvalidArgument("routing snapshot covers " +
                               std::to_string(tables.size()) +
                               " nodes but the router has " +
                               std::to_string(tables_.size())));
        return;
      }
      tables_ = std::move(tables);
    } else {
      a.Each(0x04, tables_, table_fields);
    }
  }

 private:
  // Control payload layout: {kDvAdvert, origin, count, (dst, metric)...}.
  static constexpr std::int64_t kDvAdvert = 3;
  // Metrics at or above this are unreachable (count-to-infinity bound).
  static constexpr std::uint32_t kInfinityMetric = 64;

  void OnControl(wli::Ship& ship, const wli::Shuttle& shuttle);
  void ExpireStale(net::NodeId at);

  wli::WanderingNetwork& network_;
  Config config_;
  std::vector<RouteTable> tables_;  // per node
  std::uint64_t ads_sent_ = 0;
  std::uint64_t control_bytes_ = 0;
  std::uint64_t dropped_no_route_ = 0;
};

class AdaptiveAdHocRouter {
 public:
  struct Config {
    sim::Duration route_lifetime = 5 * sim::kSecond;
  };

  /// Shuttles one node buffers per destination while it discovers a route.
  static constexpr std::size_t kMaxBufferedPerNode = 64;
  /// Minimum spacing between discovery floods for the same (node, dst)
  /// pair — AODV's RREQ rate limit; prevents flood storms when a
  /// destination is (temporarily) unreachable.
  static constexpr sim::Duration kDiscoveryBackoff = 500 * sim::kMillisecond;

  /// Installs control handlers on every ship and takes over next-hop
  /// selection for data shuttles. Exactly one router per network.
  AdaptiveAdHocRouter(wli::WanderingNetwork& network, const Config& config);

  /// Sends an application payload via adaptive routing (buffers and starts
  /// route discovery when no fresh route exists).
  Status Send(net::NodeId src, net::NodeId dst,
              std::vector<std::int64_t> payload, std::uint64_t flow);

  std::uint64_t rreq_sent() const { return rreq_sent_; }
  std::uint64_t rrep_sent() const { return rrep_sent_; }
  std::uint64_t discoveries() const { return discoveries_; }
  std::uint64_t data_dropped_no_route() const { return dropped_no_route_; }

  /// Control traffic bytes emitted so far (protocol overhead metric).
  std::uint64_t control_bytes() const { return control_bytes_; }

  /// True when `at` currently has a fresh route toward `dst`.
  bool HasRoute(net::NodeId at, net::NodeId dst) const;

 private:
  // Control payload layout: {type, origin, target, request_id, hops}.
  static constexpr std::int64_t kRreq = 1;
  static constexpr std::int64_t kRrep = 2;
  // Hop bound of a discovery flood.
  static constexpr std::uint8_t kMaxFloodTtl = 16;

  struct Route {
    net::NodeId next_hop = net::kInvalidNode;
    std::uint32_t hops = 0;
    sim::TimePoint expires = 0;
  };

  void OnControl(wli::Ship& ship, const wli::Shuttle& shuttle);
  void StartDiscovery(net::NodeId origin, net::NodeId target);
  void BroadcastControl(net::NodeId from, std::vector<std::int64_t> payload,
                        std::uint8_t ttl);
  net::NodeId ChooseNextHop(net::NodeId at, const wli::Shuttle& shuttle);
  void InstallRoute(net::NodeId at, net::NodeId dst, net::NodeId next_hop,
                    std::uint32_t hops);
  void FlushBuffered(net::NodeId at, net::NodeId dst);

  wli::WanderingNetwork& network_;
  Config config_;
  // Flat sorted tables for the same reason as DistanceVectorRouter: lookup
  // on every hop, mutation only on control events.
  std::vector<base::FlatMap<net::NodeId, Route>> tables_;  // per node
  std::vector<std::set<std::uint64_t>> seen_requests_;     // per node dedupe
  std::vector<base::FlatMap<net::NodeId, std::vector<wli::Shuttle>>> buffered_;
  // Per-node, per-destination earliest next discovery (RREQ rate limit).
  std::vector<base::FlatMap<net::NodeId, sim::TimePoint>> next_discovery_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t rreq_sent_ = 0;
  std::uint64_t rrep_sent_ = 0;
  std::uint64_t discoveries_ = 0;
  std::uint64_t dropped_no_route_ = 0;
  std::uint64_t control_bytes_ = 0;
};

}  // namespace viator::services
