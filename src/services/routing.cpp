#include "services/routing.h"

#include "telemetry/telemetry.h"

namespace viator::services {

StaticRouter::StaticRouter(wli::WanderingNetwork& network)
    : network_(network) {
  const std::size_t n = network_.topology().node_count();
  tables_.assign(n, std::vector<net::NodeId>(n, net::kInvalidNode));
  // Destination-major: the topology caches one row per destination, so
  // this fills each row once however many nodes there are.
  for (net::NodeId dst = 0; dst < n; ++dst) {
    for (net::NodeId src = 0; src < n; ++src) {
      if (src == dst) continue;
      tables_[src][dst] = network_.topology().NextHop(src, dst);
    }
  }
}

net::NodeId StaticRouter::NextHop(net::NodeId at, net::NodeId dst) const {
  if (at >= tables_.size() || dst >= tables_[at].size()) {
    return net::kInvalidNode;
  }
  return tables_[at][dst];
}

void StaticRouter::Install() {
  network_.SetNextHopChooser(
      [this](net::NodeId at, const wli::Shuttle& shuttle) -> net::NodeId {
        if (shuttle.header.kind != wli::ShuttleKind::kData) {
          return net::kInvalidNode;  // control traffic: live shortest path
        }
        const net::NodeId next = NextHop(at, shuttle.header.destination);
        // A frozen table can name a next hop whose link has since vanished;
        // the send will fail at the fabric, which is the staleness cost the
        // baseline is supposed to exhibit. An unreachable-at-snapshot entry
        // is absorbed (dropped) rather than falling back to fresh paths.
        return next == net::kInvalidNode ? at : next;
      });
}

DistanceVectorRouter::DistanceVectorRouter(wli::WanderingNetwork& network,
                                           const Config& config)
    : network_(network), config_(config) {
  tables_.resize(network_.topology().node_count());
  network_.ForEachShip([this](wli::Ship& ship) {
    // Self-route anchors the vector.
    tables_[ship.id()][ship.id()] =
        Route{ship.id(), 0, sim::TimePoint(~0ULL)};
    ship.SetControlHandler(
        [this](wli::Ship& s, const wli::Shuttle& shuttle) {
          OnControl(s, shuttle);
        });
  });
  network_.SetNextHopChooser(
      [this](net::NodeId at, const wli::Shuttle& shuttle) -> net::NodeId {
        if (shuttle.header.kind != wli::ShuttleKind::kData) {
          return net::kInvalidNode;  // control ads are single-hop
        }
        ExpireStale(at);
        const auto it = tables_[at].find(shuttle.header.destination);
        if (it == tables_[at].end() ||
            !network_.topology().FindLink(at, it->second.next_hop)
                 .has_value()) {
          ++dropped_no_route_;
          return at;  // absorbed (dropped): proactive, no buffering
        }
        return it->second.next_hop;
      });
}

void DistanceVectorRouter::ExpireStale(net::NodeId at) {
  const sim::TimePoint now = network_.simulator().now();
  for (auto it = tables_[at].begin(); it != tables_[at].end();) {
    if (it->first != at && it->second.expires < now) {
      it = tables_[at].erase(it);
    } else {
      ++it;
    }
  }
}

void DistanceVectorRouter::AdvertiseRound() {
  network_.ForEachShip([this](wli::Ship& ship) {
    const net::NodeId at = ship.id();
    ExpireStale(at);
    for (net::NodeId neighbor : network_.topology().Neighbors(at)) {
      // Split horizon: do not advertise routes learned via this neighbor.
      std::vector<std::int64_t> payload = {kDvAdvert,
                                           static_cast<std::int64_t>(at), 0};
      for (const auto& [dst, route] : tables_[at]) {
        if (route.next_hop == neighbor && dst != at) continue;
        if (route.metric >= kInfinityMetric) continue;
        payload.push_back(static_cast<std::int64_t>(dst));
        payload.push_back(static_cast<std::int64_t>(route.metric));
      }
      payload[2] = static_cast<std::int64_t>((payload.size() - 3) / 2);
      wli::Shuttle ad;
      ad.header.source = at;
      ad.header.destination = neighbor;
      ad.header.kind = wli::ShuttleKind::kControl;
      ad.payload = std::move(payload);
      control_bytes_ += ad.WireSize();
      ++ads_sent_;
      (void)network_.Dispatch(at, std::move(ad));
    }
  });
}

void DistanceVectorRouter::OnControl(wli::Ship& ship,
                                     const wli::Shuttle& shuttle) {
  if (shuttle.payload.size() < 3 || shuttle.payload[0] != kDvAdvert) return;
  const net::NodeId at = ship.id();
  telemetry::SpanScope span(network_.telemetry(), shuttle.trace, at,
                            "svc.routing", "dv_advert");
  const net::NodeId from = static_cast<net::NodeId>(shuttle.payload[1]);
  const auto count = static_cast<std::size_t>(shuttle.payload[2]);
  if (shuttle.payload.size() < 3 + 2 * count) return;
  const sim::TimePoint now = network_.simulator().now();
  for (std::size_t i = 0; i < count; ++i) {
    const auto dst = static_cast<net::NodeId>(shuttle.payload[3 + 2 * i]);
    const auto metric =
        static_cast<std::uint32_t>(shuttle.payload[4 + 2 * i]) + 1;
    if (dst == at || metric >= kInfinityMetric) continue;
    Route& route = tables_[at][dst];
    const bool stale = route.expires < now;
    if (route.next_hop == net::kInvalidNode || stale ||
        metric < route.metric || route.next_hop == from) {
      route.next_hop = from;
      route.metric = metric;
      route.expires = now + config_.route_lifetime;
    }
  }
}

void DistanceVectorRouter::Start(sim::TimePoint until) {
  network_.simulator().ScheduleAfter(
      config_.advertise_interval,
      [this, until] {
        AdvertiseRound();
        if (network_.simulator().now() + config_.advertise_interval <=
            until) {
          Start(until);
        }
      });
}

Status DistanceVectorRouter::Send(net::NodeId src, net::NodeId dst,
                                  std::vector<std::int64_t> payload,
                                  std::uint64_t flow) {
  return network_.Inject(
      wli::Shuttle::Data(src, dst, std::move(payload), flow));
}

bool DistanceVectorRouter::HasRoute(net::NodeId at, net::NodeId dst) const {
  if (at >= tables_.size()) return false;
  const auto it = tables_[at].find(dst);
  return it != tables_[at].end() &&
         it->second.expires >= network_.simulator().now();
}

std::uint32_t DistanceVectorRouter::MetricTo(net::NodeId at,
                                             net::NodeId dst) const {
  if (at >= tables_.size()) return ~0u;
  const auto it = tables_[at].find(dst);
  return it == tables_[at].end() ? ~0u : it->second.metric;
}

AdaptiveAdHocRouter::AdaptiveAdHocRouter(wli::WanderingNetwork& network,
                                         const Config& config)
    : network_(network), config_(config) {
  const std::size_t n = network_.topology().node_count();
  tables_.resize(n);
  seen_requests_.resize(n);
  buffered_.resize(n);
  next_discovery_.resize(n);

  network_.ForEachShip([this](wli::Ship& ship) {
    ship.SetControlHandler(
        [this](wli::Ship& s, const wli::Shuttle& shuttle) {
          OnControl(s, shuttle);
        });
  });

  network_.SetNextHopChooser(
      [this](net::NodeId at, const wli::Shuttle& shuttle) -> net::NodeId {
        if (shuttle.header.kind != wli::ShuttleKind::kData) {
          return net::kInvalidNode;  // control shuttles are single-hop
        }
        return ChooseNextHop(at, shuttle);
      });
}

bool AdaptiveAdHocRouter::HasRoute(net::NodeId at, net::NodeId dst) const {
  if (at >= tables_.size()) return false;
  const auto it = tables_[at].find(dst);
  return it != tables_[at].end() &&
         it->second.expires >= network_.simulator().now();
}

void AdaptiveAdHocRouter::InstallRoute(net::NodeId at, net::NodeId dst,
                                       net::NodeId next_hop,
                                       std::uint32_t hops) {
  // Keep the better (fresher or shorter) route.
  Route& route = tables_[at][dst];
  const sim::TimePoint now = network_.simulator().now();
  if (route.expires >= now && route.hops < hops &&
      route.next_hop != net::kInvalidNode) {
    return;
  }
  route.next_hop = next_hop;
  route.hops = hops;
  route.expires = now + config_.route_lifetime;
}

net::NodeId AdaptiveAdHocRouter::ChooseNextHop(net::NodeId at,
                                               const wli::Shuttle& shuttle) {
  const net::NodeId dst = shuttle.header.destination;
  const sim::TimePoint now = network_.simulator().now();
  auto it = tables_[at].find(dst);
  if (it != tables_[at].end() && it->second.expires >= now) {
    // Validate the next hop is still a neighbor (mobility breaks links).
    if (network_.topology().FindLink(at, it->second.next_hop).has_value()) {
      it->second.expires = now + config_.route_lifetime;  // route is active
      return it->second.next_hop;
    }
    tables_[at].erase(it);
    // A broken route is fresh information: lift the RREQ rate limit so the
    // repair flood can start immediately.
    next_discovery_[at].erase(dst);
  }
  // No usable route: buffer the shuttle and discover.
  auto& queue = buffered_[at][dst];
  if (queue.size() >= kMaxBufferedPerNode) {
    ++dropped_no_route_;
    return at;  // absorbed (dropped under buffer pressure)
  }
  queue.push_back(shuttle);
  StartDiscovery(at, dst);
  return at;  // absorbed (buffered)
}

void AdaptiveAdHocRouter::StartDiscovery(net::NodeId origin,
                                         net::NodeId target) {
  // RREQ rate limit: a pending discovery for this destination is already in
  // flight (or recently failed); buffered traffic rides its outcome.
  const sim::TimePoint now = network_.simulator().now();
  auto& gate = next_discovery_[origin][target];
  if (now < gate) return;
  gate = now + kDiscoveryBackoff;
  ++discoveries_;
  const std::uint64_t request_id = next_request_id_++;
  seen_requests_[origin].insert(request_id);
  BroadcastControl(origin,
                   {kRreq, static_cast<std::int64_t>(origin),
                    static_cast<std::int64_t>(target),
                    static_cast<std::int64_t>(request_id), 0},
                   kMaxFloodTtl);
  ++rreq_sent_;
}

void AdaptiveAdHocRouter::BroadcastControl(net::NodeId from,
                                           std::vector<std::int64_t> payload,
                                           std::uint8_t ttl) {
  for (net::NodeId neighbor : network_.topology().Neighbors(from)) {
    wli::Shuttle control;
    control.header.source = from;
    control.header.destination = neighbor;
    control.header.kind = wli::ShuttleKind::kControl;
    control.header.ttl = ttl;
    control.payload = payload;
    control_bytes_ += control.WireSize();
    (void)network_.Dispatch(from, std::move(control));
  }
}

void AdaptiveAdHocRouter::OnControl(wli::Ship& ship,
                                    const wli::Shuttle& shuttle) {
  if (shuttle.payload.size() != 5) return;
  const std::int64_t type = shuttle.payload[0];
  const auto origin = static_cast<net::NodeId>(shuttle.payload[1]);
  const auto target = static_cast<net::NodeId>(shuttle.payload[2]);
  const auto request_id = static_cast<std::uint64_t>(shuttle.payload[3]);
  const auto hops = static_cast<std::uint32_t>(shuttle.payload[4]);
  const net::NodeId at = ship.id();
  const net::NodeId prev_hop = shuttle.header.source;
  telemetry::SpanScope span(network_.telemetry(), shuttle.trace, at,
                            "svc.routing", type == kRreq ? "rreq" : "rrep");

  if (type == kRreq) {
    // Reverse route toward the discovery origin.
    InstallRoute(at, origin, prev_hop, hops + 1);
    if (!seen_requests_[at].insert(request_id).second) return;  // duplicate
    if (at == target) {
      // Answer: RREP travels back along reverse routes.
      const auto reverse = tables_[at].find(origin);
      if (reverse == tables_[at].end()) return;
      wli::Shuttle reply;
      reply.header.source = at;
      reply.header.destination = reverse->second.next_hop;
      reply.header.kind = wli::ShuttleKind::kControl;
      reply.payload = {kRrep, static_cast<std::int64_t>(origin),
                       static_cast<std::int64_t>(target),
                       static_cast<std::int64_t>(request_id), 0};
      control_bytes_ += reply.WireSize();
      ++rrep_sent_;
      (void)network_.Dispatch(at, std::move(reply));
      return;
    }
    if (hops + 1 >= kMaxFloodTtl) return;
    BroadcastControl(at,
                     {kRreq, shuttle.payload[1], shuttle.payload[2],
                      shuttle.payload[3],
                      static_cast<std::int64_t>(hops + 1)},
                     kMaxFloodTtl);
    return;
  }

  if (type == kRrep) {
    // Forward route toward the discovery target.
    InstallRoute(at, target, prev_hop, hops + 1);
    if (at == origin) {
      FlushBuffered(at, target);
      return;
    }
    const auto reverse = tables_[at].find(origin);
    if (reverse == tables_[at].end()) return;
    wli::Shuttle forward;
    forward.header.source = at;
    forward.header.destination = reverse->second.next_hop;
    forward.header.kind = wli::ShuttleKind::kControl;
    forward.payload = {kRrep, shuttle.payload[1], shuttle.payload[2],
                       shuttle.payload[3],
                       static_cast<std::int64_t>(hops + 1)};
    control_bytes_ += forward.WireSize();
    ++rrep_sent_;
    (void)network_.Dispatch(at, std::move(forward));
  }
}

void AdaptiveAdHocRouter::FlushBuffered(net::NodeId at, net::NodeId dst) {
  const auto it = buffered_[at].find(dst);
  if (it == buffered_[at].end()) return;
  std::vector<wli::Shuttle> queue = std::move(it->second);
  buffered_[at].erase(it);
  for (wli::Shuttle& shuttle : queue) {
    (void)network_.Dispatch(at, std::move(shuttle));
  }
}

Status AdaptiveAdHocRouter::Send(net::NodeId src, net::NodeId dst,
                                 std::vector<std::int64_t> payload,
                                 std::uint64_t flow) {
  return network_.Inject(
      wli::Shuttle::Data(src, dst, std::move(payload), flow));
}

}  // namespace viator::services
