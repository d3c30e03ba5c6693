// Caching: "the active node stores incoming data for later use upon
// request, e.g. storage of web pages for local processing and reducing the
// data flow" (§D).
//
// Protocol (payload word 0 is the opcode):
//   GET  {1, content_id}                requester -> cache or origin
//   PUT  {2, content_id, requester, data...}   origin -> cache (reply path)
//   DATA {3, content_id, data...}       cache/origin -> requester
//
// The cache proxy serves hits locally and forwards misses to the origin,
// learning the object on the reply path (LRU, bounded object count).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <vector>

#include "core/wandering_network.h"

namespace viator::services {

inline constexpr std::int64_t kCacheOpGet = 1;
inline constexpr std::int64_t kCacheOpPut = 2;
inline constexpr std::int64_t kCacheOpData = 3;

/// Origin server: owns all content; answers GETs with the object bytes.
class ContentOrigin {
 public:
  /// Objects are synthesized deterministically: `object_words` payload words
  /// derived from the content id.
  ContentOrigin(wli::WanderingNetwork& network, net::NodeId node,
                std::size_t object_words = 64);

  std::uint64_t requests_served() const { return requests_served_; }
  net::NodeId node() const { return node_; }

  /// The deterministic object body for a content id (shared with tests).
  static std::vector<std::int64_t> ObjectBody(std::uint64_t content_id,
                                              std::size_t words);

 private:
  void OnShuttle(wli::Ship& ship, const wli::Shuttle& shuttle);

  wli::WanderingNetwork& network_;
  net::NodeId node_;
  std::size_t object_words_;
  std::uint64_t requests_served_ = 0;
};

/// In-network cache proxy in front of an origin.
class CachingService {
 public:
  CachingService(wli::WanderingNetwork& network, net::NodeId node,
                 net::NodeId origin, std::size_t capacity_objects = 64);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double HitRatio() const;

  /// Cached content ids from most- to least-recently used, with bodies.
  std::vector<std::pair<std::uint64_t, std::vector<std::int64_t>>>
  CachedObjects() const;

  /// Snapshot fields (genesis CachingServiceAdapter): hit/miss accounting
  /// and every cached object, most recent first, body included. A load
  /// stores them least recent first, so recency order comes back as
  /// captured. Pending-miss queues are runtime state and must be empty at
  /// capture.
  template <class A>
  void Visit(A& a) {
    a.U64(0x01, hits_);
    a.U64(0x02, misses_);
    const auto fields = [](auto& r, auto& content_id, auto& body) {
      r.U64(0x01, content_id);
      r.Repeated(0x02, body);
    };
    if constexpr (A::kLoading) {
      std::vector<std::pair<std::uint64_t, std::vector<std::int64_t>>> objects;
      a.Each(0x03, objects, fields);
      lru_.clear();
      objects_.clear();
      for (auto it = objects.rbegin(); it != objects.rend(); ++it) {
        StoreObject(it->first, std::move(it->second));
      }
    } else {
      a.Each(0x03, lru_, [&](auto& r, auto& content_id) {
        fields(r, content_id, objects_.at(content_id).first);
      });
    }
  }

  /// Mixes the Visit fields into a rolling state digest.
  void MixDigest(Hasher& hasher) const { HashFields(*this, hasher); }

 private:
  void OnShuttle(wli::Ship& ship, const wli::Shuttle& shuttle);
  void StoreObject(std::uint64_t content_id, std::vector<std::int64_t> body);

  wli::WanderingNetwork& network_;
  net::NodeId node_;
  net::NodeId origin_;
  std::size_t capacity_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::map<std::uint64_t, std::pair<std::vector<std::int64_t>,
                                    std::list<std::uint64_t>::iterator>>
      objects_;
  // Requesters waiting per in-flight miss.
  std::map<std::uint64_t, std::vector<net::NodeId>> pending_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace viator::services
