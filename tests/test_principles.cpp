// Tests for the four WLI principle engines (DCP, SRP, MFP, PMP policies)
// and the overlay manager.
#include <gtest/gtest.h>

#include "base/archive.h"
#include "base/rng.h"
#include "core/dcp.h"
#include "core/mfp.h"
#include "core/overlay.h"
#include "core/pmp.h"
#include "core/srp.h"
#include "net/topology.h"

namespace viator::wli {
namespace {

// ---- DCP ----

TEST(Dcp, DefaultInterfaceAlwaysMatches) {
  MorphingEngine engine;
  Shuttle s;
  const auto outcome = engine.MorphForDock(s);
  EXPECT_TRUE(outcome.success);
  EXPECT_TRUE(outcome.already_matched);
  EXPECT_EQ(outcome.overhead_bytes, 0u);
}

TEST(Dcp, MorphRewritesInterface) {
  MorphingEngine engine;
  engine.SetRequiredInterface(node::ShipClass::kServer, 5);
  engine.AddAdapter(0, 5, 16, sim::kMicrosecond);
  Shuttle s;
  s.header.dest_class_hint = node::ShipClass::kServer;
  const auto outcome = engine.MorphForDock(s);
  EXPECT_TRUE(outcome.success);
  EXPECT_FALSE(outcome.already_matched);
  EXPECT_EQ(outcome.overhead_bytes, 16u);
  EXPECT_EQ(s.header.interface_id, 5u);
}

TEST(Dcp, MissingAdapterFailsDock) {
  MorphingEngine engine;
  engine.SetRequiredInterface(node::ShipClass::kAgent, 9);
  Shuttle s;
  s.header.dest_class_hint = node::ShipClass::kAgent;
  EXPECT_FALSE(engine.MorphForDock(s).success);
  EXPECT_EQ(engine.morphs_failed(), 1u);
  EXPECT_EQ(s.header.interface_id, 0u);  // unchanged on failure
}

TEST(Dcp, PerClassRequirements) {
  MorphingEngine engine;
  engine.SetRequiredInterface(node::ShipClass::kServer, 1);
  engine.SetRequiredInterface(node::ShipClass::kClient, 2);
  EXPECT_EQ(engine.RequiredInterface(node::ShipClass::kServer), 1u);
  EXPECT_EQ(engine.RequiredInterface(node::ShipClass::kClient), 2u);
  EXPECT_EQ(engine.RequiredInterface(node::ShipClass::kAgent), 0u);
}

TEST(Dcp, CongruenceConvergesOnStableTraffic) {
  // A priori ship adaptation: steady traffic drives the score toward 1.
  CongruenceTracker tracker(0.2);
  for (int i = 0; i < 100; ++i) tracker.Observe(3);
  EXPECT_EQ(tracker.predicted(), 3u);
  EXPECT_GT(tracker.score(), 0.9);
}

TEST(Dcp, CongruenceAdaptsToTrafficShift) {
  CongruenceTracker tracker(0.3);
  for (int i = 0; i < 50; ++i) tracker.Observe(1);
  EXPECT_EQ(tracker.predicted(), 1u);
  for (int i = 0; i < 50; ++i) tracker.Observe(2);
  EXPECT_EQ(tracker.predicted(), 2u);
}

TEST(Dcp, CongruenceLowUnderMixedTraffic) {
  CongruenceTracker tracker(0.2);
  for (int i = 0; i < 200; ++i) tracker.Observe(i % 4);
  EXPECT_LT(tracker.score(), 0.6);
}

// ---- SRP ----

TEST(Srp, ReputationStartsNeutral) {
  ReputationSystem rep;
  EXPECT_DOUBLE_EQ(rep.ScoreOf(5), 0.5);
  EXPECT_FALSE(rep.IsExcluded(5));
}

TEST(Srp, UnfairShipsGetExcluded) {
  // Def. 2(1): unfair ships are "excluded from the community".
  ReputationSystem rep;
  for (int i = 0; i < 20; ++i) rep.ReportInteraction(7, false);
  EXPECT_TRUE(rep.IsExcluded(7));
  EXPECT_LT(rep.ScoreOf(7), 0.2);
  EXPECT_EQ(rep.excluded_count(), 1u);
}

TEST(Srp, FairShipsStay) {
  ReputationSystem rep;
  for (int i = 0; i < 20; ++i) rep.ReportInteraction(7, true);
  EXPECT_FALSE(rep.IsExcluded(7));
  EXPECT_GT(rep.ScoreOf(7), 0.9);
}

TEST(Srp, ReadmissionHasHysteresis) {
  ReputationSystem rep;
  for (int i = 0; i < 20; ++i) rep.ReportInteraction(7, false);
  ASSERT_TRUE(rep.IsExcluded(7));
  // A few good reports are not enough (score must cross the readmission
  // threshold, not just the exclusion one).
  rep.ReportInteraction(7, true);
  EXPECT_TRUE(rep.IsExcluded(7));
  for (int i = 0; i < 10; ++i) rep.ReportInteraction(7, true);
  EXPECT_FALSE(rep.IsExcluded(7));
}

TEST(Srp, ClustersFormFromInteractions) {
  ClusterManager clusters;
  for (int i = 0; i < 5; ++i) {
    clusters.ObserveInteraction(1, 2);
    clusters.ObserveInteraction(2, 3);
    clusters.ObserveInteraction(8, 9);
  }
  const auto groups = clusters.Clusters(3.0);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<net::NodeId>{1, 2, 3}));
  EXPECT_EQ(groups[1], (std::vector<net::NodeId>{8, 9}));
}

TEST(Srp, ClustersAreTemporary) {
  // Affinities decay, so clusters dissolve without refresh (Def. 2(2):
  // temporary aggregations).
  ClusterManager clusters;
  for (int i = 0; i < 4; ++i) clusters.ObserveInteraction(1, 2);
  EXPECT_EQ(clusters.Clusters(2.0).size(), 1u);
  // Seven steps at kDecay 0.9 take the affinity from 4 to 1.91.
  for (int i = 0; i < 7; ++i) clusters.Decay();
  EXPECT_EQ(clusters.Clusters(2.0).size(), 0u);
  EXPECT_LT(clusters.AffinityBetween(1, 2), 2.0);
}

TEST(Srp, SelfInteractionIgnored) {
  ClusterManager clusters;
  clusters.ObserveInteraction(1, 1, 100.0);
  EXPECT_EQ(clusters.Clusters(1.0).size(), 0u);
}

// ---- MFP ----

TEST(Mfp, SubscribeAndPublish) {
  FeedbackBus bus;
  double last = 0;
  bus.Subscribe(FeedbackDimension::kPerNode,
                [&](const FeedbackSignal& s) { last = s.value; });
  bus.Publish({FeedbackDimension::kPerNode, 1, 0, 42.0, 0});
  EXPECT_DOUBLE_EQ(last, 42.0);
  EXPECT_EQ(bus.published(), 1u);
  EXPECT_EQ(bus.delivered(), 1u);
}

TEST(Mfp, DimensionsAreIsolated) {
  FeedbackBus bus;
  int node_signals = 0, packet_signals = 0;
  bus.Subscribe(FeedbackDimension::kPerNode,
                [&](const FeedbackSignal&) { ++node_signals; });
  bus.Subscribe(FeedbackDimension::kPerPacket,
                [&](const FeedbackSignal&) { ++packet_signals; });
  bus.Publish({FeedbackDimension::kPerNode, 0, 0, 1.0, 0});
  bus.Publish({FeedbackDimension::kPerNode, 0, 0, 1.0, 0});
  bus.Publish({FeedbackDimension::kPerPacket, 0, 0, 1.0, 0});
  EXPECT_EQ(node_signals, 2);
  EXPECT_EQ(packet_signals, 1);
}

TEST(Mfp, DisabledDimensionSuppresses) {
  FeedbackBus bus;
  int received = 0;
  bus.Subscribe(FeedbackDimension::kPerSession,
                [&](const FeedbackSignal&) { ++received; });
  bus.EnableDimension(FeedbackDimension::kPerSession, false);
  bus.Publish({FeedbackDimension::kPerSession, 0, 0, 1.0, 0});
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.suppressed(), 1u);
  bus.EnableDimension(FeedbackDimension::kPerSession, true);
  bus.Publish({FeedbackDimension::kPerSession, 0, 0, 1.0, 0});
  EXPECT_EQ(received, 1);
}

TEST(Mfp, UnsubscribeStopsDelivery) {
  FeedbackBus bus;
  int received = 0;
  const auto id = bus.Subscribe(FeedbackDimension::kPerNode,
                                [&](const FeedbackSignal&) { ++received; });
  bus.Publish({FeedbackDimension::kPerNode, 0, 0, 1.0, 0});
  bus.Unsubscribe(id);
  bus.Publish({FeedbackDimension::kPerNode, 0, 0, 1.0, 0});
  EXPECT_EQ(received, 1);
}

TEST(Mfp, AllDimensionsHaveNames) {
  for (int d = 0; d < static_cast<int>(FeedbackDimension::kDimensionCount);
       ++d) {
    EXPECT_NE(FeedbackDimensionName(static_cast<FeedbackDimension>(d)), "?");
  }
}

TEST(Mfp, AimdIncreasesAndDecreases) {
  AimdRate rate(1.0, 0.1, 2.0, 0.1, 0.5);
  rate.OnSuccess();
  EXPECT_DOUBLE_EQ(rate.rate(), 1.1);
  rate.OnCongestion();
  EXPECT_DOUBLE_EQ(rate.rate(), 0.55);
  for (int i = 0; i < 100; ++i) rate.OnSuccess();
  EXPECT_DOUBLE_EQ(rate.rate(), 2.0);  // capped
  for (int i = 0; i < 100; ++i) rate.OnCongestion();
  EXPECT_DOUBLE_EQ(rate.rate(), 0.1);  // floored
}

// ---- PMP policies ----

TEST(Pmp, DemandTrackerAccumulatesAndDecays) {
  DemandTracker demand;
  demand.Record(1, node::FirstLevelRole::kFusion, 10.0);
  demand.Record(1, node::FirstLevelRole::kFusion, 5.0);
  EXPECT_DOUBLE_EQ(demand.DemandAt(1, node::FirstLevelRole::kFusion), 15.0);
  demand.Decay();
  const double decayed = 15.0 * DemandTracker::kDecay;
  EXPECT_DOUBLE_EQ(demand.DemandAt(1, node::FirstLevelRole::kFusion), decayed);
  EXPECT_DOUBLE_EQ(demand.TotalDemand(node::FirstLevelRole::kFusion), decayed);
}

TEST(Pmp, HottestNodeWins) {
  DemandTracker demand;
  demand.Record(1, node::FirstLevelRole::kCaching, 3.0);
  demand.Record(2, node::FirstLevelRole::kCaching, 9.0);
  demand.Record(3, node::FirstLevelRole::kFusion, 99.0);
  EXPECT_EQ(demand.HottestNode(node::FirstLevelRole::kCaching), 2u);
  EXPECT_EQ(demand.HottestNode(node::FirstLevelRole::kDelegation),
            net::kInvalidNode);
}

TEST(Pmp, HorizontalMigratesTowardHotspot) {
  HorizontalWanderer::Config cfg;
  cfg.hysteresis = 1.5;
  HorizontalWanderer wanderer(cfg);
  DemandTracker demand;
  demand.Record(0, node::FirstLevelRole::kFusion, 2.0);   // host
  demand.Record(5, node::FirstLevelRole::kFusion, 10.0);  // hotspot
  std::map<FunctionId, net::NodeId> placement{{1, 0}};
  std::map<FunctionId, node::FirstLevelRole> roles{
      {1, node::FirstLevelRole::kFusion}};
  const auto migrations = wanderer.Decide(placement, roles, demand);
  ASSERT_EQ(migrations.size(), 1u);
  EXPECT_EQ(migrations[0].from, 0u);
  EXPECT_EQ(migrations[0].to, 5u);
}

TEST(Pmp, HysteresisPreventsFlapping) {
  HorizontalWanderer::Config cfg;
  cfg.hysteresis = 2.0;
  HorizontalWanderer wanderer(cfg);
  DemandTracker demand;
  demand.Record(0, node::FirstLevelRole::kFusion, 6.0);
  demand.Record(5, node::FirstLevelRole::kFusion, 10.0);  // < 2x host
  std::map<FunctionId, net::NodeId> placement{{1, 0}};
  std::map<FunctionId, node::FirstLevelRole> roles{
      {1, node::FirstLevelRole::kFusion}};
  EXPECT_TRUE(wanderer.Decide(placement, roles, demand).empty());
}

TEST(Pmp, MinDemandGatesMigration) {
  HorizontalWanderer wanderer;
  DemandTracker demand;
  demand.Record(5, node::FirstLevelRole::kFusion,
                HorizontalWanderer::kMinDemand / 2);  // hot but tiny
  std::map<FunctionId, net::NodeId> placement{{1, 0}};
  std::map<FunctionId, node::FirstLevelRole> roles{
      {1, node::FirstLevelRole::kFusion}};
  EXPECT_TRUE(wanderer.Decide(placement, roles, demand).empty());
}

TEST(Pmp, FunctionAlreadyAtHotspotStays) {
  HorizontalWanderer wanderer;
  DemandTracker demand;
  demand.Record(0, node::FirstLevelRole::kFusion, 10.0);
  std::map<FunctionId, net::NodeId> placement{{1, 0}};
  std::map<FunctionId, node::FirstLevelRole> roles{
      {1, node::FirstLevelRole::kFusion}};
  EXPECT_TRUE(wanderer.Decide(placement, roles, demand).empty());
}

TEST(Pmp, VerticalSpawnsAboveThreshold) {
  VerticalWanderer::Config cfg;
  cfg.spawn_threshold = 5.0;
  VerticalWanderer wanderer(cfg);
  std::map<net::NodeId, std::map<node::SecondLevelClass, double>> activity;
  activity[1][node::SecondLevelClass::kFiltering] = 4.0;
  activity[2][node::SecondLevelClass::kFiltering] = 3.0;
  activity[3][node::SecondLevelClass::kBoosting] = 1.0;  // below threshold
  const auto decisions = wanderer.Decide(activity);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].cls, node::SecondLevelClass::kFiltering);
  EXPECT_EQ(decisions[0].members, (std::vector<net::NodeId>{1, 2}));
}

TEST(Pmp, VerticalNeedsEnoughMembers) {
  VerticalWanderer::Config cfg;
  cfg.spawn_threshold = 1.0;
  VerticalWanderer wanderer(cfg);
  std::map<net::NodeId, std::map<node::SecondLevelClass, double>> activity;
  activity[1][node::SecondLevelClass::kTranscoding] = 50.0;  // only one node
  EXPECT_TRUE(wanderer.Decide(activity).empty());
}

TEST(Pmp, ResonanceDetectsCoOccurrence) {
  ResonanceDetector::Config cfg;
  cfg.min_support = 3;
  ResonanceDetector detector(cfg);
  // Facts 100 and 200 co-occur on ships 1,2,3; fact 300 only on ship 9.
  for (net::NodeId ship : {1u, 2u, 3u}) {
    detector.Observe(ship, 100);
    detector.Observe(ship, 200);
  }
  detector.Observe(9, 300);
  const auto groups = detector.DetectAndReset();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<FactKey>{100, 200}));
}

TEST(Pmp, ResonanceNeedsSupport) {
  ResonanceDetector::Config cfg;
  cfg.min_support = 3;
  ResonanceDetector detector(cfg);
  for (net::NodeId ship : {1u, 2u}) {  // only 2 < min_support
    detector.Observe(ship, 100);
    detector.Observe(ship, 200);
  }
  EXPECT_TRUE(detector.DetectAndReset().empty());
}

TEST(Pmp, ResonanceNeedsOverlap) {
  ResonanceDetector::Config cfg;
  cfg.min_support = 2;
  ResonanceDetector detector(cfg);
  // Facts overlap on 2 ships but each also appears on 3 disjoint others:
  // jaccard = 2/8 < kMinJaccard.
  for (net::NodeId ship : {1u, 2u}) {
    detector.Observe(ship, 100);
    detector.Observe(ship, 200);
  }
  for (net::NodeId ship : {3u, 4u, 5u}) detector.Observe(ship, 100);
  for (net::NodeId ship : {6u, 7u, 8u}) detector.Observe(ship, 200);
  EXPECT_TRUE(detector.DetectAndReset().empty());
}

TEST(Pmp, ResonanceMergesOverlappingGroups) {
  ResonanceDetector::Config cfg;
  cfg.min_support = 2;
  ResonanceDetector detector(cfg);
  for (net::NodeId ship : {1u, 2u, 3u}) {
    detector.Observe(ship, 100);
    detector.Observe(ship, 200);
    detector.Observe(ship, 300);
  }
  const auto groups = detector.DetectAndReset();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], (std::vector<FactKey>{100, 200, 300}));
}

TEST(Pmp, ResonanceResetsBetweenWindows) {
  ResonanceDetector detector;
  for (net::NodeId ship : {1u, 2u, 3u}) {
    detector.Observe(ship, 100);
    detector.Observe(ship, 200);
  }
  EXPECT_FALSE(detector.DetectAndReset().empty());
  EXPECT_TRUE(detector.DetectAndReset().empty());  // window cleared
}

// ---- Overlays ----

TEST(Overlay, SpawnBuildsFullMesh) {
  net::Topology topo = net::MakeLine(5);
  OverlayManager manager(topo);
  auto id = manager.Spawn("test", {0, 2, 4});
  ASSERT_TRUE(id.ok());
  const Overlay* overlay = manager.Find(*id);
  ASSERT_NE(overlay, nullptr);
  EXPECT_EQ(overlay->links.size(), 3u);  // 3 choose 2
  // Virtual link 0-4 rides the full physical line.
  for (const auto& link : overlay->links) {
    if (link.a == 0 && link.b == 4) {
      EXPECT_EQ(link.physical_path.size(), 5u);
    }
  }
}

TEST(Overlay, QosBoundFiltersSlowLinks) {
  net::LinkConfig cfg;
  cfg.latency = 10 * sim::kMillisecond;
  net::Topology topo = net::MakeLine(5, cfg);
  OverlayManager manager(topo);
  // 0-4 needs 40 ms; a 25 ms bound kills the long mesh edges but keeps the
  // overlay connected through shorter ones.
  auto id = manager.Spawn("qos", {0, 2, 4}, 25 * sim::kMillisecond);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const Overlay* overlay = manager.Find(*id);
  EXPECT_EQ(overlay->links.size(), 2u);  // 0-2 and 2-4 only
}

TEST(Overlay, ImpossibleQosBoundFails) {
  net::LinkConfig cfg;
  cfg.latency = 10 * sim::kMillisecond;
  net::Topology topo = net::MakeLine(5, cfg);
  OverlayManager manager(topo);
  EXPECT_FALSE(manager.Spawn("impossible", {0, 4}, sim::kMillisecond).ok());
}

TEST(Overlay, NeedsTwoMembers) {
  net::Topology topo = net::MakeLine(3);
  OverlayManager manager(topo);
  EXPECT_FALSE(manager.Spawn("solo", {1}).ok());
}

TEST(Overlay, RemoveWorks) {
  net::Topology topo = net::MakeLine(3);
  OverlayManager manager(topo);
  auto id = manager.Spawn("x", {0, 2});
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(manager.Remove(*id).ok());
  EXPECT_EQ(manager.Find(*id), nullptr);
  EXPECT_FALSE(manager.Remove(*id).ok());
}

TEST(Overlay, RefreshRepairsAfterFailure) {
  net::Topology topo = net::MakeRing(6);
  OverlayManager manager(topo);
  auto id = manager.Spawn("ring-overlay", {0, 3});
  ASSERT_TRUE(id.ok());
  const auto original_path = manager.Find(*id)->links[0].physical_path;
  // Break the first hop of the pinned path.
  const auto link = topo.FindLink(original_path[0], original_path[1]);
  ASSERT_TRUE(link.has_value());
  topo.SetLinkUp(*link, false);
  EXPECT_EQ(manager.RefreshPaths(), 1u);
  const auto& repaired = manager.Find(*id)->links[0];
  ASSERT_GE(repaired.physical_path.size(), 2u);
  EXPECT_NE(repaired.physical_path, original_path);
}

// RefreshPaths re-walks pinned paths only after the topology lost a link
// or a node; the tests below pin what it must still see.
std::vector<std::vector<net::NodeId>> PinnedPaths(
    const OverlayManager& manager) {
  std::vector<std::vector<net::NodeId>> paths;
  for (const auto& [id, overlay] : manager.overlays()) {
    for (const VirtualLink& link : overlay.links) {
      paths.push_back(link.physical_path);
    }
  }
  return paths;
}

TEST(Overlay, AddedLinksLeavePinnedPaths) {
  // Links only added (the growing mix's case) keep every pinned path up, so
  // a refresh changes none, even where a new chord is faster.
  net::Topology topo = net::MakeRing(8);
  OverlayManager manager(topo);
  ASSERT_TRUE(manager.Spawn("ring", {0, 3, 5}).ok());
  const auto pinned = PinnedPaths(manager);
  EXPECT_EQ(manager.RefreshPaths(), 0u);
  topo.AddLink(0, 3);
  topo.AddLink(3, 5);
  const net::LinkId chord = topo.AddLink(0, 5);
  EXPECT_EQ(manager.RefreshPaths(), 0u);
  topo.SetLinkUp(chord, false);
  topo.SetLinkUp(chord, true);  // a loss and a return: still all up
  EXPECT_EQ(manager.RefreshPaths(), 0u);
  EXPECT_EQ(PinnedPaths(manager), pinned);
}

TEST(Overlay, RefreshRepairsLinkAndNodeLossAfterAWalk) {
  // Each loss after a walk is still seen: a link down, then a node down.
  net::Topology topo = net::MakeGrid(3, 3);
  OverlayManager manager(topo);
  auto id = manager.Spawn("corners", {0, 8});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(manager.RefreshPaths(), 0u);
  const auto path_now = [&] { return manager.Find(*id)->links[0].physical_path; };
  const auto crosses_up_links = [&] {
    const auto path = path_now();
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      if (!topo.FindLink(path[i], path[i + 1]).has_value()) return false;
    }
    return path.size() >= 2;
  };
  const auto first = path_now();
  topo.SetLinkUp(*topo.FindLink(first[0], first[1]), false);
  EXPECT_EQ(manager.RefreshPaths(), 1u);
  EXPECT_TRUE(crosses_up_links());
  EXPECT_NE(path_now(), first);
  const auto second = path_now();
  topo.SetNodeUp(second[2], false);
  EXPECT_EQ(manager.RefreshPaths(), 1u);
  EXPECT_TRUE(crosses_up_links());
  EXPECT_EQ(manager.RefreshPaths(), 0u);
}

TEST(Overlay, UnroutableLinkRetriesOnEveryRefresh) {
  // A link left without a path is retried even when nothing was lost since:
  // the link that comes back up re-routes it.
  net::Topology topo = net::MakeLine(3);
  OverlayManager manager(topo);
  auto id = manager.Spawn("ends", {0, 2});
  ASSERT_TRUE(id.ok());
  const net::LinkId middle = *topo.FindLink(1, 2);
  topo.SetLinkUp(middle, false);
  EXPECT_EQ(manager.RefreshPaths(), 1u);
  EXPECT_TRUE(manager.Find(*id)->links[0].physical_path.empty());
  topo.SetLinkUp(middle, true);
  EXPECT_EQ(manager.RefreshPaths(), 1u);
  EXPECT_EQ(manager.Find(*id)->links[0].physical_path,
            (std::vector<net::NodeId>{0, 1, 2}));
}

TEST(Overlay, RestoredManagerWalksOnItsFirstRefresh) {
  // The target topology lost a link before its manager's last walk, so the
  // loss count stands still across the load. The loaded path crosses that
  // link, and the first refresh must still find and repair it.
  net::Topology source_topo = net::MakeRing(6);
  OverlayManager source(source_topo);
  auto id = source.Spawn("ring", {0, 2});
  ASSERT_TRUE(id.ok());
  const auto pinned = source.Find(*id)->links[0].physical_path;
  ASSERT_EQ(pinned, (std::vector<net::NodeId>{0, 1, 2}));

  net::Topology target_topo = net::MakeRing(6);
  target_topo.SetLinkUp(*target_topo.FindLink(1, 2), false);
  OverlayManager target(target_topo);
  EXPECT_EQ(target.RefreshPaths(), 0u);
  ASSERT_TRUE(LoadFields(SaveFields(source), target).ok());
  ASSERT_EQ(target.Find(*id)->links[0].physical_path, pinned);
  EXPECT_EQ(target.RefreshPaths(), 1u);
  EXPECT_EQ(target.Find(*id)->links[0].physical_path,
            (std::vector<net::NodeId>{0, 5, 4, 3, 2}));
}

TEST(Overlay, ParallelLinkLatencyIsTheFastest) {
  // Two parallel 0-1 links, the 10 ms one first, then 1-2 at 1 ms: the
  // virtual link 0-2 rides the 1 ms copy, so it costs 2 ms and fits a 5 ms
  // bound.
  net::LinkConfig slow;
  slow.latency = 10 * sim::kMillisecond;
  net::LinkConfig fast;
  fast.latency = sim::kMillisecond;
  net::Topology topo;
  topo.AddNodes(3);
  topo.AddLink(0, 1, slow);
  topo.AddLink(0, 1, fast);
  topo.AddLink(1, 2, fast);
  OverlayManager manager(topo);
  auto id = manager.Spawn("parallel", {0, 2}, 5 * sim::kMillisecond);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const Overlay* overlay = manager.Find(*id);
  ASSERT_EQ(overlay->links.size(), 1u);
  EXPECT_EQ(overlay->links[0].physical_path,
            (std::vector<net::NodeId>{0, 1, 2}));
  EXPECT_EQ(overlay->links[0].path_latency, 2 * sim::kMillisecond);
}

TEST(Overlay, SpawnMatchesPairwiseFastestPath) {
  // Spawn grows one fastest-path tree per member; the links it pins must be
  // exactly those of the pairwise loop it replaced: for members i < j in
  // order, FastestPath(m_i, m_j) with the latency summed over its links,
  // omitted when unroutable or over the bound.
  const std::vector<net::NodeId> members = {0, 35, 14, 21, 5, 30, 8, 27};
  const auto check = [&members](net::Topology& topo, sim::Duration bound,
                                bool expect_ok) {
    std::vector<VirtualLink> expected;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        VirtualLink link;
        link.a = members[i];
        link.b = members[j];
        link.physical_path = topo.FastestPath(link.a, link.b);
        if (link.physical_path.empty()) continue;
        for (std::size_t k = 0; k + 1 < link.physical_path.size(); ++k) {
          const auto hop = topo.FindLink(link.physical_path[k],
                                         link.physical_path[k + 1]);
          ASSERT_TRUE(hop.has_value());
          link.path_latency += topo.link(*hop).config.latency;
        }
        if (bound > 0 && link.path_latency > bound) continue;
        expected.push_back(std::move(link));
      }
    }
    OverlayManager manager(topo);
    auto id = manager.Spawn("tree", members, bound);
    ASSERT_EQ(id.ok(), expect_ok) << id.status().ToString();
    if (!id.ok()) {
      EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
      return;
    }
    const std::vector<VirtualLink>& links = manager.Find(*id)->links;
    ASSERT_EQ(links.size(), expected.size());
    for (std::size_t k = 0; k < links.size(); ++k) {
      EXPECT_EQ(links[k].a, expected[k].a) << "link " << k;
      EXPECT_EQ(links[k].b, expected[k].b) << "link " << k;
      EXPECT_EQ(links[k].physical_path, expected[k].physical_path)
          << "link " << k;
      EXPECT_EQ(links[k].path_latency, expected[k].path_latency)
          << "link " << k;
    }
  };
  const std::size_t full_mesh = members.size() * (members.size() - 1) / 2;

  // Equal latencies: every path has many equal-cost rivals. Ties keep the
  // first relaxer, and equal distances pop in node-id order, so 0 reaches
  // 7 through 1, not 6.
  net::Topology grid = net::MakeGrid(6, 6);
  ASSERT_EQ(grid.FastestPath(0, 7), (std::vector<net::NodeId>{0, 1, 7}));
  check(grid, 0, true);
  grid.SetLinkUp(*grid.FindLink(14, 15), false);
  check(grid, 0, true);

  // Seeded latencies of 1-4 ms.
  Rng rng(20261017);
  net::Topology weighted;
  weighted.AddNodes(36);
  for (net::LinkId id = 0; id < grid.link_count(); ++id) {
    net::LinkConfig config;
    config.latency = rng.UniformInt(1, 4) * sim::kMillisecond;
    weighted.AddLink(grid.link(id).a, grid.link(id).b, config);
  }
  check(weighted, 0, true);
  weighted.SetLinkUp(*weighted.FindLink(20, 21), false);
  check(weighted, 0, true);

  // A QoS bound that drops some links but keeps the overlay connected.
  const sim::Duration bound = 8 * sim::kMillisecond;
  {
    OverlayManager probe(weighted);
    auto id = probe.Spawn("bounded", members, bound);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_LT(probe.Find(*id)->links.size(), full_mesh);
  }
  check(weighted, bound, true);

  // A member down: no link reaches it, so the overlay is disconnected.
  weighted.SetNodeUp(members[3], false);
  check(weighted, 0, false);
}

TEST(Overlay, StretchIsAtLeastOne) {
  net::Topology topo = net::MakeRing(8);
  OverlayManager manager(topo);
  auto id = manager.Spawn("o", {0, 2, 4});
  ASSERT_TRUE(id.ok());
  EXPECT_GE(manager.AverageStretch(*id), 1.0);
}

}  // namespace
}  // namespace viator::wli
