#include "services/caching.h"

#include "telemetry/telemetry.h"

namespace viator::services {

ContentOrigin::ContentOrigin(wli::WanderingNetwork& network, net::NodeId node,
                             std::size_t object_words)
    : network_(network), node_(node), object_words_(object_words) {
  wli::Ship* ship = network_.ship(node);
  if (ship == nullptr) return;
  ship->SetRoleHandler(
      node::FirstLevelRole::kCaching,
      [this](wli::Ship& s, const wli::Shuttle& shuttle) {
        OnShuttle(s, shuttle);
      });
}

std::vector<std::int64_t> ContentOrigin::ObjectBody(std::uint64_t content_id,
                                                    std::size_t words) {
  std::vector<std::int64_t> body;
  body.reserve(words);
  std::uint64_t x = content_id * 0x9e3779b97f4a7c15ULL + 1;
  for (std::size_t i = 0; i < words; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    body.push_back(static_cast<std::int64_t>(x * 0x2545f4914f6cdd1dULL >> 1));
  }
  return body;
}

void ContentOrigin::OnShuttle(wli::Ship& ship, const wli::Shuttle& shuttle) {
  if (shuttle.payload.size() < 2 || shuttle.payload[0] != kCacheOpGet) return;
  const auto content_id = static_cast<std::uint64_t>(shuttle.payload[1]);
  ++requests_served_;
  network_.demand().Record(node_, node::FirstLevelRole::kCaching, 1.0);
  telemetry::SpanScope span(network_.telemetry(), shuttle.trace, node_,
                            "svc.origin", "serve");

  // If the GET came via a cache, the requester travels in the flow id so the
  // cache can both store and forward (PUT). Direct GETs get DATA back.
  const net::NodeId reply_to = shuttle.header.source;
  const bool via_cache = shuttle.payload.size() >= 3;
  std::vector<std::int64_t> payload;
  if (via_cache) {
    payload = {kCacheOpPut, shuttle.payload[1], shuttle.payload[2]};
  } else {
    payload = {kCacheOpData, shuttle.payload[1]};
  }
  const auto body = ObjectBody(content_id, object_words_);
  payload.insert(payload.end(), body.begin(), body.end());
  wli::Shuttle reply = wli::Shuttle::Data(node_, reply_to, std::move(payload),
                                          shuttle.header.flow_id);
  reply.trace = span.context();
  (void)ship.SendShuttle(std::move(reply));
}

CachingService::CachingService(wli::WanderingNetwork& network,
                               net::NodeId node, net::NodeId origin,
                               std::size_t capacity_objects)
    : network_(network),
      node_(node),
      origin_(origin),
      capacity_(capacity_objects) {
  wli::Ship* ship = network_.ship(node);
  if (ship == nullptr) return;
  (void)ship->SwitchRole(node::FirstLevelRole::kCaching,
                         node::SwitchMechanism::kResidentSoftware);
  ship->SetRoleHandler(
      node::FirstLevelRole::kCaching,
      [this](wli::Ship& s, const wli::Shuttle& shuttle) {
        OnShuttle(s, shuttle);
      });
}

double CachingService::HitRatio() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

void CachingService::StoreObject(std::uint64_t content_id,
                                 std::vector<std::int64_t> body) {
  auto it = objects_.find(content_id);
  if (it != objects_.end()) {
    lru_.erase(it->second.second);
    lru_.push_front(content_id);
    it->second = {std::move(body), lru_.begin()};
    return;
  }
  while (objects_.size() >= capacity_ && !lru_.empty()) {
    objects_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(content_id);
  objects_.emplace(content_id,
                   std::make_pair(std::move(body), lru_.begin()));
}

std::vector<std::pair<std::uint64_t, std::vector<std::int64_t>>>
CachingService::CachedObjects() const {
  std::vector<std::pair<std::uint64_t, std::vector<std::int64_t>>> out;
  out.reserve(lru_.size());
  for (const std::uint64_t id : lru_) {
    out.emplace_back(id, objects_.at(id).first);
  }
  return out;
}

void CachingService::OnShuttle(wli::Ship& ship, const wli::Shuttle& shuttle) {
  if (shuttle.payload.empty()) return;
  const std::int64_t op = shuttle.payload[0];
  network_.demand().Record(node_, node::FirstLevelRole::kCaching, 1.0);

  if (op == kCacheOpGet && shuttle.payload.size() >= 2) {
    telemetry::SpanScope span(network_.telemetry(), shuttle.trace, node_,
                              "svc.caching", "get");
    const auto content_id = static_cast<std::uint64_t>(shuttle.payload[1]);
    const net::NodeId requester = shuttle.header.source;
    auto it = objects_.find(content_id);
    if (it != objects_.end()) {
      ++hits_;
      lru_.erase(it->second.second);
      lru_.push_front(content_id);
      it->second.second = lru_.begin();
      std::vector<std::int64_t> payload = {kCacheOpData,
                                           shuttle.payload[1]};
      payload.insert(payload.end(), it->second.first.begin(),
                     it->second.first.end());
      wli::Shuttle reply = wli::Shuttle::Data(
          node_, requester, std::move(payload), shuttle.header.flow_id);
      reply.trace = span.context();
      (void)ship.SendShuttle(std::move(reply));
      return;
    }
    ++misses_;
    auto& waiters = pending_[content_id];
    waiters.push_back(requester);
    if (waiters.size() == 1) {  // first miss triggers the origin fetch
      wli::Shuttle fetch = wli::Shuttle::Data(
          node_, origin_,
          {kCacheOpGet, shuttle.payload[1],
           static_cast<std::int64_t>(requester)},
          shuttle.header.flow_id);
      fetch.trace = span.context();
      (void)ship.SendShuttle(std::move(fetch));
    }
    return;
  }

  if (op == kCacheOpPut && shuttle.payload.size() >= 3) {
    telemetry::SpanScope span(network_.telemetry(), shuttle.trace, node_,
                              "svc.caching", "put");
    const auto content_id = static_cast<std::uint64_t>(shuttle.payload[1]);
    std::vector<std::int64_t> body(shuttle.payload.begin() + 3,
                                   shuttle.payload.end());
    StoreObject(content_id, body);
    const auto waiters = pending_.find(content_id);
    if (waiters != pending_.end()) {
      for (net::NodeId requester : waiters->second) {
        std::vector<std::int64_t> payload = {kCacheOpData,
                                             shuttle.payload[1]};
        payload.insert(payload.end(), body.begin(), body.end());
        wli::Shuttle reply = wli::Shuttle::Data(
            node_, requester, std::move(payload), shuttle.header.flow_id);
        reply.trace = span.context();
        (void)ship.SendShuttle(std::move(reply));
      }
      pending_.erase(waiters);
    }
  }
}

}  // namespace viator::services
