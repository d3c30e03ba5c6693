// Tests for topology structure, generators, paths and dynamic link state.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "base/archive.h"
#include "base/rng.h"
#include "net/mobility.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace viator::net {
namespace {

TEST(Topology, AddNodesAndLinks) {
  Topology t;
  EXPECT_EQ(t.AddNodes(3), 0u);
  EXPECT_EQ(t.node_count(), 3u);
  const LinkId l = t.AddLink(0, 1);
  EXPECT_EQ(t.link_count(), 1u);
  EXPECT_TRUE(t.IsLinkUp(l));
}

TEST(Topology, FindLinkIsSymmetric) {
  Topology t;
  t.AddNodes(2);
  const LinkId l = t.AddLink(0, 1);
  EXPECT_EQ(t.FindLink(0, 1), std::optional<LinkId>(l));
  EXPECT_EQ(t.FindLink(1, 0), std::optional<LinkId>(l));
}

TEST(Topology, DownLinkIsInvisible) {
  Topology t;
  t.AddNodes(2);
  const LinkId l = t.AddLink(0, 1);
  t.SetLinkUp(l, false);
  EXPECT_FALSE(t.FindLink(0, 1).has_value());
  EXPECT_TRUE(t.Neighbors(0).empty());
  t.SetLinkUp(l, true);
  EXPECT_TRUE(t.FindLink(0, 1).has_value());
}

TEST(Topology, NodeFailureHidesNeighbors) {
  Topology t;
  t.AddNodes(3);
  t.AddLink(0, 1);
  t.AddLink(1, 2);
  t.SetNodeUp(1, false);
  EXPECT_TRUE(t.Neighbors(0).empty());
  EXPECT_TRUE(t.ShortestPath(0, 2).empty());
  t.SetNodeUp(1, true);
  EXPECT_EQ(t.ShortestPath(0, 2).size(), 3u);
}

TEST(Topology, ShortestPathOnLine) {
  Topology t = MakeLine(5);
  const auto path = t.ShortestPath(0, 4);
  ASSERT_EQ(path.size(), 5u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 4u);
}

TEST(Topology, ShortestPathToSelf) {
  Topology t = MakeLine(3);
  EXPECT_EQ(t.ShortestPath(1, 1), std::vector<NodeId>{1});
}

TEST(Topology, ShortestPathDisconnected) {
  Topology t;
  t.AddNodes(4);
  t.AddLink(0, 1);
  t.AddLink(2, 3);
  EXPECT_TRUE(t.ShortestPath(0, 3).empty());
  EXPECT_EQ(t.NextHop(0, 3), kInvalidNode);
}

TEST(Topology, RingShortcut) {
  Topology t = MakeRing(6);
  // 0 -> 5 should go the short way around (1 hop).
  EXPECT_EQ(t.ShortestPath(0, 5).size(), 2u);
}

TEST(Topology, FastestPathPrefersLowLatency) {
  Topology t;
  t.AddNodes(3);
  LinkConfig slow;
  slow.latency = 100 * sim::kMillisecond;
  LinkConfig fast;
  fast.latency = sim::kMillisecond;
  t.AddLink(0, 2, slow);     // direct but slow
  t.AddLink(0, 1, fast);
  t.AddLink(1, 2, fast);     // two fast hops beat one slow hop
  const auto path = t.FastestPath(0, 2);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], 1u);
  // Hop-count shortest still prefers the direct link.
  EXPECT_EQ(t.ShortestPath(0, 2).size(), 2u);
}

TEST(Topology, NextHopIsSecondPathNode) {
  Topology t = MakeLine(4);
  EXPECT_EQ(t.NextHop(0, 3), 1u);
  EXPECT_EQ(t.NextHop(2, 0), 1u);
}

TEST(Topology, ConnectivityCheck) {
  Topology line = MakeLine(5);
  EXPECT_TRUE(line.IsConnected());
  Topology split;
  split.AddNodes(4);
  split.AddLink(0, 1);
  EXPECT_FALSE(split.IsConnected());
}

TEST(Topology, EmptyAndSingletonAreConnected) {
  Topology empty;
  EXPECT_TRUE(empty.IsConnected());
  Topology one;
  one.AddNodes(1);
  EXPECT_TRUE(one.IsConnected());
}

// ---- Generators ----

TEST(Generators, LineShape) {
  Topology t = MakeLine(10);
  EXPECT_EQ(t.node_count(), 10u);
  EXPECT_EQ(t.link_count(), 9u);
  EXPECT_EQ(t.Neighbors(0).size(), 1u);
  EXPECT_EQ(t.Neighbors(5).size(), 2u);
}

TEST(Generators, RingShape) {
  Topology t = MakeRing(10);
  EXPECT_EQ(t.link_count(), 10u);
  for (NodeId n = 0; n < 10; ++n) EXPECT_EQ(t.Neighbors(n).size(), 2u);
}

TEST(Generators, StarShape) {
  Topology t = MakeStar(9);
  EXPECT_EQ(t.link_count(), 8u);
  EXPECT_EQ(t.Neighbors(0).size(), 8u);
  EXPECT_EQ(t.Neighbors(3).size(), 1u);
}

TEST(Generators, GridShape) {
  Topology t = MakeGrid(3, 4);
  EXPECT_EQ(t.node_count(), 12u);
  // 3*3 horizontal + 2*4 vertical = 17 links.
  EXPECT_EQ(t.link_count(), 17u);
  EXPECT_TRUE(t.IsConnected());
  // Corner has 2 neighbors, interior has 4.
  EXPECT_EQ(t.Neighbors(0).size(), 2u);
  EXPECT_EQ(t.Neighbors(5).size(), 4u);
}

class RandomTopologySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RandomTopologySweep, RandomGraphsAreConnected) {
  Rng rng(GetParam() * 31 + 7);
  Topology t = MakeRandom(GetParam(), 0.2, rng);
  EXPECT_EQ(t.node_count(), GetParam());
  EXPECT_TRUE(t.IsConnected());
}

TEST_P(RandomTopologySweep, ScaleFreeIsConnected) {
  Rng rng(GetParam() * 17 + 3);
  Topology t = MakeScaleFree(GetParam(), 2, rng);
  EXPECT_EQ(t.node_count(), GetParam());
  EXPECT_TRUE(t.IsConnected());
}

INSTANTIATE_TEST_SUITE_P(Sizes, RandomTopologySweep,
                         ::testing::Values(4, 8, 16, 32, 64));

TEST(Generators, ScaleFreeHasHubs) {
  Rng rng(5);
  Topology t = MakeScaleFree(200, 2, rng);
  std::size_t max_degree = 0;
  for (NodeId n = 0; n < 200; ++n) {
    max_degree = std::max(max_degree, t.Neighbors(n).size());
  }
  // Preferential attachment should grow hubs well beyond the mean (~4).
  EXPECT_GE(max_degree, 10u);
}

TEST(Generators, GeometricRespectsRange) {
  std::vector<Position> pos = {{0, 0}, {1, 0}, {10, 0}};
  Topology t = MakeGeometric(pos, 2.0);
  EXPECT_TRUE(t.FindLink(0, 1).has_value());
  EXPECT_FALSE(t.FindLink(0, 2).has_value());
  EXPECT_FALSE(t.FindLink(1, 2).has_value());
}

TEST(Generators, DistanceIsEuclidean) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
}

// ---- Route cache -----------------------------------------------------------

// The acceptance gate for the cache: a cached next hop must equal the
// fresh-BFS-per-pair answer for EVERY (from, to) pair, across generator
// families and through arbitrary structural churn. The cache is only allowed
// to be faster, never different.
TEST(RouteCache, DecisionIdenticalToPerPairBfs) {
  Rng rng(20260808);
  std::vector<Topology> worlds;
  worlds.push_back(MakeLine(9));
  worlds.push_back(MakeRing(12));
  worlds.push_back(MakeStar(8));
  worlds.push_back(MakeGrid(4, 4));
  worlds.push_back(MakeRandom(14, 0.3, rng));
  worlds.push_back(MakeScaleFree(40, 2, rng));  // hubs, as in the mix
  {
    // A multigraph: node 0 reaches 1 over the second of two parallel links,
    // the first being down, so its up neighbours are 2, 3, 1 in that order
    // and node 4 (behind both 1 and 3) is first touched via 3.
    Topology multi;
    multi.AddNodes(5);
    multi.AddLink(0, 2);
    const LinkId down_copy = multi.AddLink(0, 1);
    multi.AddLink(0, 3);
    multi.AddLink(0, 1);
    multi.AddLink(1, 4);
    multi.AddLink(3, 4);
    multi.SetLinkUp(down_copy, false);
    worlds.push_back(std::move(multi));
  }
  const auto check_all_pairs = [](const Topology& t) {
    for (NodeId from = 0; from < t.node_count(); ++from) {
      for (NodeId to = 0; to < t.node_count(); ++to) {
        ASSERT_EQ(t.NextHop(from, to), t.NextHopUncached(from, to))
            << "from=" << from << " to=" << to;
      }
    }
  };
  const auto all_answers = [](const Topology& t) {
    std::vector<NodeId> answers;
    for (NodeId from = 0; from < t.node_count(); ++from) {
      for (NodeId to = 0; to < t.node_count(); ++to) {
        answers.push_back(t.NextHop(from, to));
      }
    }
    return answers;
  };
  for (Topology& t : worlds) {
    check_all_pairs(t);
    // Structural churn: drop a link, drop a node, heal both, add a chord.
    if (t.link_count() > 0) {
      t.SetLinkUp(0, false);
      check_all_pairs(t);
    }
    t.SetNodeUp(1, false);
    check_all_pairs(t);
    t.SetNodeUp(1, true);
    if (t.link_count() > 0) t.SetLinkUp(0, true);
    check_all_pairs(t);
    t.AddLink(0, static_cast<NodeId>(t.node_count() - 1));
    check_all_pairs(t);
    // Growth over warm rows: an isolated node, then a link to it.
    const NodeId grown = t.AddNodes(1);
    check_all_pairs(t);
    t.AddLink(grown, grown / 2);
    check_all_pairs(t);
    // A copy of the warm topology carries rows and adjacency; mutating it
    // must neither serve it stale hops nor move the source's answers.
    const std::vector<NodeId> source_answers = all_answers(t);
    Topology copy = t;
    copy.SetNodeUp(grown / 2, false);
    check_all_pairs(copy);
    copy.SetNodeUp(grown / 2, true);
    copy.SetLinkUp(0, false);
    check_all_pairs(copy);
    EXPECT_EQ(all_answers(t), source_answers);
  }

  // Link additions over warm rows repair each row in place. Each case
  // names how the new link's endpoints sit in the row of destination 0 and
  // checks that they do; all rows are warm, so the other rows see other
  // cases too. No row may refill.
  const auto hops = [](const Topology& t, NodeId from, NodeId to) {
    const auto path = t.ShortestPath(from, to);
    return path.empty() ? -1 : static_cast<int>(path.size()) - 1;
  };
  struct Addition {
    const char* name;
    std::function<Topology()> make;
    std::function<void(const Topology&)> holds;
    std::function<void(Topology&)> add;
  };
  const auto add_link = [](NodeId a, NodeId b) {
    return [a, b](Topology& t) { t.AddLink(a, b); };
  };
  const std::vector<Addition> additions = {
      {"same level", [] { return MakeRing(8); },
       [&](const Topology& t) {
         ASSERT_EQ(hops(t, 2, 0), 2);
         ASSERT_EQ(hops(t, 6, 0), 2);
       },
       add_link(2, 6)},
      {"adjacent levels", [] { return MakeGrid(3, 3); },
       [&](const Topology& t) {
         ASSERT_EQ(hops(t, 1, 0), 1);
         ASSERT_EQ(hops(t, 6, 0), 2);
       },
       add_link(1, 6)},
      {"levels two or more apart", [] { return MakeLine(8); },
       [&](const Topology& t) {
         ASSERT_EQ(hops(t, 7, 0), 7);
         ASSERT_EQ(hops(t, 1, 0), 1);
       },
       add_link(7, 1)},
      {"both unreachable",
       [] {
         Topology t;
         t.AddNodes(8);
         t.AddLink(0, 1);
         t.AddLink(1, 2);
         t.AddLink(3, 4);
         t.AddLink(4, 5);
         t.AddLink(6, 7);
         return t;
       },
       [&](const Topology& t) {
         ASSERT_EQ(hops(t, 5, 0), -1);
         ASSERT_EQ(hops(t, 6, 0), -1);
       },
       add_link(5, 6)},
      {"one endpoint down",
       [] {
         Topology t = MakeLine(6);
         t.SetNodeUp(5, false);
         return t;
       },
       [&](const Topology& t) {
         ASSERT_FALSE(t.IsNodeUp(5));
         ASSERT_EQ(hops(t, 3, 0), 3);
       },
       // The down node gets no distance, so a second link from it to node
       // 3 must not pull 3 to two hops either.
       [](Topology& t) {
         t.AddLink(0, 5);
         t.AddLink(5, 3);
       }},
      {"SetLinkUp(true) of a parallel link listed first",
       [] {
         // Node 3 sits two hops from 0 behind 1 and 2. Its first link, to
         // 2, is down, so its up neighbours are 1, 2 and its next hop is
         // 1. Bringing that link up lists 2 first: no distance changes,
         // yet the next hop becomes 2.
         Topology t;
         t.AddNodes(4);
         const LinkId first = t.AddLink(3, 2);
         t.AddLink(3, 1);
         t.AddLink(3, 2);
         t.AddLink(0, 1);
         t.AddLink(0, 2);
         t.SetLinkUp(first, false);
         return t;
       },
       [&](const Topology& t) {
         ASSERT_EQ(hops(t, 3, 0), 2);
         ASSERT_EQ(hops(t, 2, 0), 1);
         ASSERT_EQ(t.NextHop(3, 0), 1u);
       },
       [](Topology& t) {
         t.SetLinkUp(0, true);
         EXPECT_EQ(t.NextHop(3, 0), 2u);
       }},
      {"SetLinkUp(true) joins a part that was unreachable",
       [] {
         Topology t = MakeLine(6);
         t.SetLinkUp(*t.FindLink(2, 3), false);
         return t;
       },
       [&](const Topology& t) {
         ASSERT_EQ(hops(t, 2, 0), 2);
         ASSERT_EQ(hops(t, 3, 0), -1);
       },
       [](Topology& t) { t.SetLinkUp(2, true); }},  // link 2 is (2, 3)
  };
  for (const Addition& addition : additions) {
    SCOPED_TRACE(addition.name);
    Topology t = addition.make();
    addition.holds(t);
    check_all_pairs(t);
    const std::uint64_t misses = t.route_cache_stats().misses;
    addition.add(t);
    check_all_pairs(t);
    EXPECT_EQ(t.route_cache_stats().misses, misses);
    EXPECT_EQ(t.route_cache_stats().invalidations, 0u);
  }
}

// Random growth and churn over warm rows, every pair checked after every
// step. Link additions (parallel links included) repair rows in place;
// removals, node toggles and added nodes leave them stale. A small cache
// mixes evictions in.
TEST(RouteCache, SeededChurnMatchesPerPairBfs) {
  std::uint64_t checks = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    for (const std::size_t capacity : {std::size_t{256}, std::size_t{7}}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed
                                      << " capacity=" << capacity);
      Rng rng(seed);
      Topology t = MakeScaleFree(24, 2, rng);
      t.SetRouteCacheCapacity(capacity);
      for (int step = 0; step < 80; ++step) {
        const auto pick = [&] {
          return static_cast<NodeId>(rng.Index(t.node_count()));
        };
        const std::uint64_t op = rng.Index(10);
        if (op < 5) {
          const NodeId a = pick();
          const NodeId b = pick();
          if (a != b) t.AddLink(a, b);
        } else if (op < 7) {
          const auto id = static_cast<LinkId>(rng.Index(t.link_count()));
          t.SetLinkUp(id, !t.IsLinkUp(id));
        } else if (op < 9) {
          const NodeId n = pick();
          t.SetNodeUp(n, !t.IsNodeUp(n));
        } else {
          t.AddNodes(1 + rng.Index(2));
        }
        for (NodeId from = 0; from < t.node_count(); ++from) {
          for (NodeId to = 0; to < t.node_count(); ++to) {
            ASSERT_EQ(t.NextHop(from, to), t.NextHopUncached(from, to))
                << "step=" << step << " from=" << from << " to=" << to;
            ++checks;
          }
        }
      }
    }
  }
  EXPECT_GT(checks, 900000u);
}

TEST(RouteCache, LinkAdditionRepairsWarmRowsWithoutRefills) {
  Rng rng(5);
  Topology t = MakeScaleFree(64, 2, rng);  // the mix's family
  for (NodeId from = 0; from < t.node_count(); ++from) {
    for (NodeId to = 0; to < t.node_count(); ++to) (void)t.NextHop(from, to);
  }
  const Topology::RouteCacheStats warm = t.route_cache_stats();
  ASSERT_EQ(warm.misses, t.node_count());  // one fill per destination
  for (int i = 0; i < 16; ++i) {
    const auto a = static_cast<NodeId>(rng.Index(t.node_count()));
    const auto b = static_cast<NodeId>(rng.Index(t.node_count()));
    if (a == b) continue;
    const std::uint64_t gen = t.generation();
    t.AddLink(a, b);
    EXPECT_GT(t.generation(), gen);
    for (NodeId from = 0; from < t.node_count(); ++from) {
      for (NodeId to = 0; to < t.node_count(); ++to) {
        ASSERT_EQ(t.NextHop(from, to), t.NextHopUncached(from, to));
      }
    }
  }
  EXPECT_EQ(t.route_cache_stats().misses, warm.misses);
  EXPECT_EQ(t.route_cache_stats().invalidations, 0u);
  EXPECT_EQ(t.route_cache_stats().evictions, 0u);
  EXPECT_GT(t.route_cache_stats().hits, warm.hits);
}

// Rows hold 2-byte distances, up to 0xFFFE hops. A destination some node
// sits 0xFFFF or more hops from is never served from wrapped values: its
// row is deep and every lookup toward it takes the per-pair BFS.
TEST(RouteCache, DeepFillFallsBackToPerPairBfs) {
  Topology t = MakeLine(70000);  // node n sits n hops from node 0
  for (const NodeId from : {1u, 65534u, 65535u, 65536u, 69999u}) {
    EXPECT_EQ(t.NextHop(from, 0), t.NextHopUncached(from, 0))
        << "from=" << from;
    EXPECT_EQ(t.NextHop(from, 0), from - 1) << "from=" << from;
  }
  EXPECT_EQ(t.route_cache_stats().misses, 1u);  // one fill, then hits
}

TEST(RouteCache, DeepRepairFallsBackToPerPairBfs) {
  // Two 40000-node lines; the warm row for destination 0 reaches only the
  // first. Joining them end to end puts node 79999 79999 hops out.
  Topology t;
  t.AddNodes(80000);
  for (NodeId n = 0; n + 1 < 80000; ++n) {
    if (n != 39999) t.AddLink(n, n + 1);
  }
  ASSERT_EQ(t.NextHop(1, 0), 0u);
  ASSERT_EQ(t.NextHop(40001, 0), kInvalidNode);
  const std::uint64_t misses = t.route_cache_stats().misses;
  const LinkId join = t.AddLink(39999, 40000);
  for (const NodeId from : {1u, 65534u, 65535u, 65536u, 79999u}) {
    EXPECT_EQ(t.NextHop(from, 0), t.NextHopUncached(from, 0))
        << "from=" << from;
    EXPECT_EQ(t.NextHop(from, 0), from - 1) << "from=" << from;
  }
  EXPECT_EQ(t.route_cache_stats().misses, misses);  // repaired, no fill
  // Cutting the join again leaves the row stale; its refill fits 2 bytes.
  t.SetLinkUp(join, false);
  EXPECT_EQ(t.NextHop(65535, 0), kInvalidNode);
  EXPECT_EQ(t.NextHop(39999, 0), 39998u);
  EXPECT_EQ(t.route_cache_stats().misses, misses + 1);
}

TEST(RouteCache, DefaultCapacityKeepsARowPerDestination) {
  // The mix's graph: 1024 ships, so the default 1024 rows hold every
  // destination, at 2 bytes per node, and nothing is ever evicted.
  Rng rng(7);
  Topology t = MakeScaleFree(1024, 2, rng);
  ASSERT_EQ(t.route_cache_capacity(), 1024u);
  const auto all_pairs = [&t] {
    for (NodeId from = 0; from < t.node_count(); ++from) {
      for (NodeId to = 0; to < t.node_count(); ++to) (void)t.NextHop(from, to);
    }
  };
  all_pairs();
  EXPECT_EQ(t.route_cache_stats().misses, 1024u);
  EXPECT_EQ(t.route_cache_stats().evictions, 0u);
  const std::size_t rows_bytes = 1024 * 1024 * sizeof(std::uint16_t);
  EXPECT_GE(t.route_cache_bytes(), rows_bytes);
  EXPECT_LT(t.route_cache_bytes(), rows_bytes + rows_bytes / 8);
  // Growth over the warm rows repairs them: no refill.
  for (int i = 0; i < 16; ++i) {
    const auto a = static_cast<NodeId>(rng.Index(t.node_count()));
    const auto b = static_cast<NodeId>(rng.Index(t.node_count()));
    if (a != b) t.AddLink(a, b);
  }
  all_pairs();
  EXPECT_EQ(t.route_cache_stats().misses, 1024u);
  EXPECT_EQ(t.route_cache_stats().evictions, 0u);
  EXPECT_EQ(t.route_cache_stats().invalidations, 0u);
  for (NodeId from = 0; from < t.node_count(); from += 31) {
    for (NodeId to = 0; to < t.node_count(); to += 37) {
      ASSERT_EQ(t.NextHop(from, to), t.NextHopUncached(from, to))
          << "from=" << from << " to=" << to;
    }
  }
}

TEST(RouteCache, NeverRoutesOverDownLink) {
  // Warm the cache on a line, then cut the middle link: the cached first
  // hop 1 (toward 2) must disappear immediately, not after some TTL.
  Topology t = MakeLine(4);  // 0-1-2-3
  ASSERT_EQ(t.NextHop(0, 3), 1u);
  const LinkId middle = *t.FindLink(1, 2);
  t.SetLinkUp(middle, false);
  EXPECT_EQ(t.NextHop(0, 3), kInvalidNode);
  EXPECT_EQ(t.NextHop(1, 2), kInvalidNode);
  // Heal: the route must come back just as immediately.
  t.SetLinkUp(middle, true);
  EXPECT_EQ(t.NextHop(0, 3), 1u);
}

TEST(RouteCache, NodeFailureInvalidatesCachedRows) {
  // Ring 0-1-2-3-0: from 0 to 2 both ways tie, BFS order picks via 1. Kill
  // node 1 and the cached row must reroute via 3; revive and it flips back.
  Topology t = MakeRing(4);
  const NodeId via_before = t.NextHop(0, 2);
  ASSERT_EQ(via_before, t.NextHopUncached(0, 2));
  t.SetNodeUp(via_before, false);
  const NodeId via_after = t.NextHop(0, 2);
  EXPECT_NE(via_after, via_before);
  EXPECT_EQ(via_after, t.NextHopUncached(0, 2));
  t.SetNodeUp(via_before, true);
  EXPECT_EQ(t.NextHop(0, 2), via_before);
}

TEST(RouteCache, StatsCountHitsMissesInvalidations) {
  Topology t = MakeLine(4);  // 0-1-2-3; rows are keyed by destination
  EXPECT_EQ(t.route_cache_stats().hits, 0u);
  (void)t.NextHop(0, 3);  // cold: one fill, the row for destination 3
  EXPECT_EQ(t.route_cache_stats().misses, 1u);
  (void)t.NextHop(1, 3);  // same row: hit
  (void)t.NextHop(2, 3);
  EXPECT_EQ(t.route_cache_stats().hits, 2u);
  const std::uint64_t gen = t.generation();
  t.SetLinkUp(0, false);  // a removal bumps the generation
  EXPECT_GT(t.generation(), gen);
  (void)t.NextHop(2, 3);  // stale row: lazy invalidation + refill
  EXPECT_EQ(t.route_cache_stats().invalidations, 1u);
  EXPECT_EQ(t.route_cache_stats().misses, 2u);
  // Toggling to the same state is not a change and must not invalidate.
  t.SetLinkUp(0, false);
  (void)t.NextHop(1, 3);
  EXPECT_EQ(t.route_cache_stats().invalidations, 1u);
  EXPECT_EQ(t.route_cache_stats().hits, 3u);
  // A link coming back up repairs the live row in place: a hit, no fill.
  const std::uint64_t down_gen = t.generation();
  t.SetLinkUp(0, true);
  EXPECT_GT(t.generation(), down_gen);
  EXPECT_EQ(t.NextHop(0, 3), 1u);
  EXPECT_EQ(t.route_cache_stats().hits, 4u);
  EXPECT_EQ(t.route_cache_stats().misses, 2u);
  EXPECT_EQ(t.route_cache_stats().invalidations, 1u);
  // Another destination is another row.
  (void)t.NextHop(3, 0);
  EXPECT_EQ(t.route_cache_stats().misses, 3u);
}

TEST(RouteCache, LruEvictionKeepsCapacityBound) {
  Topology t = MakeRing(6);
  t.SetRouteCacheCapacity(2);
  (void)t.NextHop(0, 3);
  (void)t.NextHop(1, 4);
  (void)t.NextHop(2, 5);  // evicts the LRU row (destination 3)
  EXPECT_EQ(t.route_cache_stats().evictions, 1u);
  (void)t.NextHop(0, 3);  // destination 3 must refill — and still be correct
  EXPECT_EQ(t.route_cache_stats().evictions, 2u);
  EXPECT_EQ(t.NextHop(0, 3), t.NextHopUncached(0, 3));
}

TEST(RouteCache, MobilityRewiringNeverServesStaleHops) {
  // An ad-hoc world whose radio graph is rewired every update: after each
  // rewire every cached next hop must match a fresh BFS, and no served hop
  // may cross a link the rewire took down.
  sim::Simulator simulator;
  Topology t;
  const std::size_t n = 10;
  t.AddNodes(n);
  RandomWaypointMobility::Config mob_config;
  mob_config.width_m = 300.0;
  mob_config.height_m = 300.0;
  mob_config.min_speed_mps = 40.0;  // fast, so links genuinely churn
  mob_config.max_speed_mps = 80.0;
  AdhocManager manager(simulator, t,
                       RandomWaypointMobility(n, mob_config, Rng(42)), 120.0,
                       100 * sim::kMillisecond, LinkConfig{});
  for (int round = 0; round < 12; ++round) {
    manager.Update();
    for (NodeId from = 0; from < n; ++from) {
      for (NodeId to = 0; to < n; ++to) {
        const NodeId hop = t.NextHop(from, to);
        ASSERT_EQ(hop, t.NextHopUncached(from, to))
            << "round=" << round << " from=" << from << " to=" << to;
        if (hop != kInvalidNode) {
          ASSERT_TRUE(t.FindLink(from, hop).has_value())
              << "served hop crosses a down/absent link";
        }
      }
    }
  }
  EXPECT_GT(manager.link_transitions(), 0u);
  EXPECT_GT(t.route_cache_stats().invalidations, 0u);
}

TEST(RouteCache, PublishesGaugesIntoRegistry) {
  sim::StatsRegistry stats;
  Topology t = MakeLine(4);
  (void)t.NextHop(0, 3);  // fills the row for destination 3
  (void)t.NextHop(1, 3);  // and reads it again
  PublishRouteCacheStats(stats, t);
  EXPECT_EQ(stats.gauges().at("net.route_cache.hits").value(), 1.0);
  EXPECT_EQ(stats.gauges().at("net.route_cache.misses").value(), 1.0);
  EXPECT_EQ(stats.gauges().at("net.route_cache.hit_ratio").value(), 0.5);
  EXPECT_EQ(stats.gauges().at("net.route_cache.invalidations").value(), 0.0);
  EXPECT_EQ(stats.gauges().at("net.route_cache.evictions").value(), 0.0);
  // Idempotent: publishing again overwrites, never accumulates.
  PublishRouteCacheStats(stats, t);
  EXPECT_EQ(stats.gauges().at("net.route_cache.hits").value(), 1.0);
  // A second destination through a one-row cache evicts the first.
  t.SetRouteCacheCapacity(1);
  (void)t.NextHop(3, 0);
  PublishRouteCacheStats(stats, t);
  EXPECT_EQ(stats.gauges().at("net.route_cache.misses").value(), 2.0);
  EXPECT_EQ(stats.gauges().at("net.route_cache.evictions").value(), 1.0);
  EXPECT_EQ(stats.gauges().at("net.route_cache.hit_ratio").value(),
            1.0 / 3.0);
}

TEST(RouteCache, DisabledCacheMatchesEnabled) {
  Rng rng(7);
  Topology cached = MakeRandom(12, 0.35, rng);
  Topology uncached = cached;
  uncached.SetRouteCacheEnabled(false);
  for (NodeId from = 0; from < cached.node_count(); ++from) {
    for (NodeId to = 0; to < cached.node_count(); ++to) {
      ASSERT_EQ(cached.NextHop(from, to), uncached.NextHop(from, to));
    }
  }
  // The disabled side must not have touched its cache counters.
  EXPECT_EQ(uncached.route_cache_stats().hits, 0u);
  EXPECT_EQ(uncached.route_cache_stats().misses, 0u);
}

// ---- Cached digest ---------------------------------------------------------

Digest FreshDigest(const Topology& t) {
  Hasher hasher;
  HashFields(t, hasher);
  return hasher.digest();
}

TEST(TopologyDigest, FollowsEveryMutator) {
  // digest() caches HashFields per generation: after any mutator it must
  // equal a fresh walk, on a topology whose digest was warm before.
  struct Row {
    const char* mutator;
    std::function<void(Topology&)> mutate;
  };
  const std::vector<Row> rows = {
      {"AddNodes", [](Topology& t) { t.AddNodes(2); }},
      {"AddLink", [](Topology& t) { t.AddLink(0, 3); }},
      {"SetLinkUp", [](Topology& t) { t.SetLinkUp(1, false); }},
      {"SetNodeUp", [](Topology& t) { t.SetNodeUp(2, false); }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.mutator);
    Topology t = MakeLine(4);
    const Digest before = t.digest();
    ASSERT_EQ(before, FreshDigest(t));
    row.mutate(t);
    EXPECT_NE(FreshDigest(t), before);
    EXPECT_EQ(t.digest(), FreshDigest(t));
  }
}

TEST(TopologyDigest, FollowsRestoreAndCopies) {
  const Topology source = MakeRing(5);

  // A restore into an empty topology whose digest was warm.
  Topology restored;
  const Digest empty = restored.digest();
  ASSERT_TRUE(LoadFields(SaveFields(source), restored).ok());
  EXPECT_NE(restored.digest(), empty);
  EXPECT_EQ(restored.digest(), FreshDigest(restored));
  EXPECT_EQ(restored.digest(), FreshDigest(source));

  // A restore refused after the node flags loaded (a link endpoint of the
  // wrong width) leaves the topology, and its digest, empty.
  Topology refused;
  const Digest refused_before = refused.digest();
  TlvWriter link;
  link.PutU32(0x01, 0);
  TlvWriter stream;
  stream.PutU64(0x01, 3);
  for (int i = 0; i < 3; ++i) stream.PutU32(0x02, 1);
  stream.PutBytes(0x03, link.Finish());
  EXPECT_FALSE(LoadFields(stream.Finish(), refused).ok());
  EXPECT_EQ(refused.digest(), refused_before);
  EXPECT_EQ(refused.digest(), FreshDigest(refused));

  // A warm copy carries the cache and then changes on its own.
  Topology original = MakeLine(4);
  const Digest warm = original.digest();
  Topology copy = original;
  copy.AddLink(0, 2);
  EXPECT_EQ(copy.digest(), FreshDigest(copy));
  EXPECT_NE(copy.digest(), warm);
  EXPECT_EQ(original.digest(), warm);
  EXPECT_EQ(original.digest(), FreshDigest(original));
}

}  // namespace
}  // namespace viator::net
