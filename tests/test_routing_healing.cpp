// Tests for the adaptive ad-hoc routing protocol (§E application), the
// static-routing baseline, self-healing (footnote 18) and the elastic-
// control baseline.
#include <gtest/gtest.h>

#include "baselines/elastic_control.h"
#include "core/wandering_network.h"
#include "net/failure.h"
#include "net/mobility.h"
#include "net/topology.h"
#include "services/boosting.h"
#include "services/routing.h"
#include "services/security_mgmt.h"
#include "sim/simulator.h"

namespace viator::services {
namespace {

struct RoutingFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Topology topology;
  wli::WnConfig config;
  std::unique_ptr<wli::WanderingNetwork> wn;

  void BuildLine(std::size_t n) {
    topology = net::MakeLine(n);
    wn = std::make_unique<wli::WanderingNetwork>(simulator, topology, config,
                                                 31);
    wn->PopulateAllNodes();
  }
};

TEST_F(RoutingFixture, DiscoveryFindsRouteAndDelivers) {
  BuildLine(5);
  AdaptiveAdHocRouter router(*wn, {});
  int delivered = 0;
  wn->ship(4)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    if (s.header.kind == wli::ShuttleKind::kData) ++delivered;
  });
  ASSERT_TRUE(router.Send(0, 4, {42}, 1).ok());
  simulator.RunAll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(router.discoveries(), 1u);
  EXPECT_GE(router.rreq_sent(), 1u);
  EXPECT_GE(router.rrep_sent(), 1u);
  EXPECT_TRUE(router.HasRoute(0, 4));
}

TEST_F(RoutingFixture, SecondSendUsesCachedRoute) {
  BuildLine(5);
  AdaptiveAdHocRouter router(*wn, {});
  int delivered = 0;
  wn->ship(4)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    if (s.header.kind == wli::ShuttleKind::kData) ++delivered;
  });
  ASSERT_TRUE(router.Send(0, 4, {1}, 1).ok());
  simulator.RunAll();
  const auto discoveries_after_first = router.discoveries();
  ASSERT_TRUE(router.Send(0, 4, {2}, 2).ok());
  simulator.RunAll();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(router.discoveries(), discoveries_after_first);  // no new flood
}

TEST_F(RoutingFixture, RouteExpiresAfterLifetime) {
  BuildLine(4);
  AdaptiveAdHocRouter::Config cfg;
  cfg.route_lifetime = 100 * sim::kMillisecond;
  AdaptiveAdHocRouter router(*wn, cfg);
  ASSERT_TRUE(router.Send(0, 3, {1}, 1).ok());
  simulator.RunAll();
  ASSERT_TRUE(router.HasRoute(0, 3));
  simulator.RunUntil(simulator.now() + sim::kSecond);
  EXPECT_FALSE(router.HasRoute(0, 3));  // PMP: unrefreshed facts die
}

TEST_F(RoutingFixture, BrokenLinkTriggersRediscovery) {
  topology = net::MakeRing(6);
  wn = std::make_unique<wli::WanderingNetwork>(simulator, topology, config,
                                               31);
  wn->PopulateAllNodes();
  AdaptiveAdHocRouter router(*wn, {});
  int delivered = 0;
  wn->ship(3)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    if (s.header.kind == wli::ShuttleKind::kData) ++delivered;
  });
  ASSERT_TRUE(router.Send(0, 3, {1}, 1).ok());
  simulator.RunAll();
  ASSERT_EQ(delivered, 1);
  // Break the link the route uses (0-1 or 0-5 depending on RREP order);
  // break both of node 0's links' first hops except the alternative route
  // still exists around the ring. Take the current next hop down.
  // Find next hop by probing: break link 0-1.
  const auto link01 = topology.FindLink(0, 1);
  ASSERT_TRUE(link01.has_value());
  topology.SetLinkUp(*link01, false);
  ASSERT_TRUE(router.Send(0, 3, {2}, 2).ok());
  simulator.RunAll();
  ASSERT_TRUE(router.Send(0, 3, {3}, 3).ok());
  simulator.RunAll();
  // At least one of the two post-failure sends arrives via the other arc.
  EXPECT_GE(delivered, 2);
}

TEST_F(RoutingFixture, UnreachableDestinationDropsAfterBufferFill) {
  BuildLine(3);
  topology.SetLinkUp(1, false);  // 2 unreachable
  AdaptiveAdHocRouter router(*wn, {});
  const auto sends =
      static_cast<int>(AdaptiveAdHocRouter::kMaxBufferedPerNode) + 3;
  for (int i = 0; i < sends; ++i) {
    ASSERT_TRUE(router.Send(0, 2, {i}, i).ok());
  }
  simulator.RunAll();
  EXPECT_GE(router.data_dropped_no_route(), 3u);
}

TEST_F(RoutingFixture, AdaptiveBeatsStaticUnderChurn) {
  // Ring with links failing over time; static tables go stale, adaptive
  // rediscovers. This is the paper's core mobility claim in miniature.
  auto run = [&](bool adaptive) {
    sim::Simulator sim_local;
    net::Topology topo = net::MakeRing(8);
    wli::WnConfig cfg_local;
    wli::WanderingNetwork net_local(sim_local, topo, cfg_local, 5);
    net_local.PopulateAllNodes();
    std::unique_ptr<StaticRouter> static_router;
    std::unique_ptr<AdaptiveAdHocRouter> adaptive_router;
    AdaptiveAdHocRouter::Config rcfg;
    rcfg.route_lifetime = 300 * sim::kMillisecond;
    if (adaptive) {
      adaptive_router = std::make_unique<AdaptiveAdHocRouter>(net_local, rcfg);
    } else {
      static_router = std::make_unique<StaticRouter>(net_local);
      static_router->Install();
    }
    int delivered = 0;
    net_local.ship(4)->SetDeliverySink(
        [&](wli::Ship&, const wli::Shuttle& s) {
          if (s.header.kind == wli::ShuttleKind::kData) ++delivered;
        });
    // Fail 0-1 at t=1s (ring still connected the other way).
    const auto link01 = topo.FindLink(0, 1);
    sim_local.ScheduleAt(sim::kSecond,
                         [&topo, link01] { topo.SetLinkUp(*link01, false); });
    // One message every 100 ms for 4 s.
    for (int i = 0; i < 40; ++i) {
      sim_local.ScheduleAt(i * 100 * sim::kMillisecond, [&, i] {
        if (adaptive) {
          (void)adaptive_router->Send(0, 4, {i}, i);
        } else {
          (void)net_local.Inject(wli::Shuttle::Data(0, 4, {i}, i));
        }
      });
    }
    sim_local.RunAll();
    return delivered;
  };
  const int adaptive_delivered = run(true);
  const int static_delivered = run(false);
  EXPECT_GT(adaptive_delivered, static_delivered);
  EXPECT_GE(adaptive_delivered, 35);  // near-full delivery
  EXPECT_LE(static_delivered, 15);    // stale after the failure
}

TEST_F(RoutingFixture, ControlOverheadIsCounted) {
  BuildLine(6);
  AdaptiveAdHocRouter router(*wn, {});
  ASSERT_TRUE(router.Send(0, 5, {1}, 1).ok());
  simulator.RunAll();
  EXPECT_GT(router.control_bytes(), 0u);
}

// ---- Distance-vector router ----

TEST_F(RoutingFixture, DvConvergesAndRoutes) {
  BuildLine(5);
  DistanceVectorRouter dv(*wn, {});
  // No routes before any advertisement (proactive: drop, don't buffer).
  ASSERT_TRUE(dv.Send(0, 4, {1}, 1).ok());
  simulator.RunAll();
  EXPECT_EQ(dv.dropped_no_route(), 1u);
  // After enough rounds for 4 hops of propagation, routes exist.
  for (int round = 0; round < 5; ++round) {
    dv.AdvertiseRound();
    simulator.RunAll();
  }
  EXPECT_TRUE(dv.HasRoute(0, 4));
  EXPECT_EQ(dv.MetricTo(0, 4), 4u);
  int delivered = 0;
  wn->ship(4)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    if (s.header.kind == wli::ShuttleKind::kData) ++delivered;
  });
  ASSERT_TRUE(dv.Send(0, 4, {2}, 2).ok());
  simulator.RunAll();
  EXPECT_EQ(delivered, 1);
}

TEST_F(RoutingFixture, DvConvergenceTakesOneRoundPerHop) {
  BuildLine(6);
  DistanceVectorRouter dv(*wn, {});
  for (int round = 1; round <= 5; ++round) {
    dv.AdvertiseRound();
    simulator.RunAll();
    // After r rounds node 0 knows destinations up to r hops away.
    EXPECT_TRUE(dv.HasRoute(0, static_cast<net::NodeId>(round)));
    if (round < 5) {
      EXPECT_FALSE(dv.HasRoute(0, static_cast<net::NodeId>(round + 1)));
    }
  }
}

TEST_F(RoutingFixture, DvRoutesExpireWithoutRefresh) {
  BuildLine(3);
  DistanceVectorRouter::Config cfg;
  cfg.route_lifetime = 300 * sim::kMillisecond;
  DistanceVectorRouter dv(*wn, cfg);
  dv.AdvertiseRound();
  simulator.RunAll();
  dv.AdvertiseRound();
  simulator.RunAll();
  ASSERT_TRUE(dv.HasRoute(0, 2));
  simulator.RunUntil(simulator.now() + sim::kSecond);
  EXPECT_FALSE(dv.HasRoute(0, 2));
}

TEST_F(RoutingFixture, DvHealsAroundFailureAfterRounds) {
  topology = net::MakeRing(6);
  wn = std::make_unique<wli::WanderingNetwork>(simulator, topology, config,
                                               31);
  wn->PopulateAllNodes();
  DistanceVectorRouter::Config cfg;
  cfg.route_lifetime = 400 * sim::kMillisecond;
  cfg.advertise_interval = 100 * sim::kMillisecond;
  DistanceVectorRouter dv(*wn, cfg);
  dv.Start(10 * sim::kSecond);
  simulator.RunUntil(sim::kSecond);
  ASSERT_TRUE(dv.HasRoute(0, 3));
  const auto link01 = topology.FindLink(0, 1);
  ASSERT_TRUE(link01.has_value());
  topology.SetLinkUp(*link01, false);
  // A few advertisement periods later the stale route expired and the
  // around-the-ring route took over.
  simulator.RunUntil(3 * sim::kSecond);
  ASSERT_TRUE(dv.HasRoute(0, 3));
  int delivered = 0;
  wn->ship(3)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    if (s.header.kind == wli::ShuttleKind::kData) ++delivered;
  });
  ASSERT_TRUE(dv.Send(0, 3, {1}, 1).ok());
  simulator.RunUntil(10 * sim::kSecond);
  EXPECT_EQ(delivered, 1);
}

// ---- ARQ booster ----

TEST_F(RoutingFixture, ArqDeliversEverythingOverLossyLink) {
  net::LinkConfig clean;
  net::LinkConfig lossy;
  lossy.loss_probability = 0.2;
  topology = net::Topology();
  topology.AddNodes(4);
  topology.AddLink(0, 1, clean);
  topology.AddLink(1, 2, lossy);
  topology.AddLink(2, 3, clean);
  wn = std::make_unique<wli::WanderingNetwork>(simulator, topology, config,
                                               31);
  wn->PopulateAllNodes();
  ArqBooster::Config cfg;
  cfg.ingress = 1;
  cfg.egress = 2;
  cfg.final_destination = 3;
  ArqBooster arq(*wn, cfg);
  int delivered = 0;
  wn->ship(3)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    if (s.header.kind == wli::ShuttleKind::kData) ++delivered;
  });
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(arq.SendData(1, i).ok());
  }
  simulator.RunAll();
  EXPECT_EQ(delivered, 50);
  EXPECT_GT(arq.retransmissions(), 0u);
  EXPECT_EQ(arq.acked(), 50u);
  EXPECT_EQ(arq.given_up(), 0u);
}

TEST_F(RoutingFixture, ArqNoDuplicateDeliveries) {
  // Lossless: every word delivered exactly once even though ACKs and data
  // share the path.
  BuildLine(4);
  ArqBooster::Config cfg;
  cfg.ingress = 0;
  cfg.egress = 2;
  cfg.final_destination = 3;
  ArqBooster arq(*wn, cfg);
  int delivered = 0;
  wn->ship(3)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    if (s.header.kind == wli::ShuttleKind::kData) ++delivered;
  });
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(arq.SendData(1, i).ok());
  simulator.RunAll();
  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(arq.retransmissions(), 0u);
}

TEST_F(RoutingFixture, ArqGivesUpOnDeadSegment) {
  BuildLine(4);
  topology.SetLinkUp(1, false);  // segment 1-2 dead
  ArqBooster::Config cfg;
  cfg.ingress = 1;
  cfg.egress = 2;
  cfg.final_destination = 3;
  ArqBooster arq(*wn, cfg);
  ASSERT_TRUE(arq.SendData(1, 7).ok());
  simulator.RunAll();
  EXPECT_EQ(arq.given_up(), 1u);
  EXPECT_EQ(arq.acked(), 0u);
}

// ---- Self-healing ----

struct HealingFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Topology topology = net::MakeGrid(3, 3);
  wli::WnConfig config;
  std::unique_ptr<wli::WanderingNetwork> wn;

  void Build() {
    wn = std::make_unique<wli::WanderingNetwork>(simulator, topology, config,
                                                 13);
    wn->PopulateAllNodes();
  }
};

TEST_F(HealingFixture, HealRegrowsFunctionsOnNeighbor) {
  Build();
  wli::NetFunction fn;
  fn.name = "critical-cache";
  fn.role = node::FirstLevelRole::kCaching;
  const auto id = wn->DeployFunction(4, fn);  // center of the grid
  wn->ship(4)->facts().Touch(77, 7, 5.0, 0);

  SelfHealingCoordinator healer(*wn, {});
  healer.CheckpointAll();
  topology.SetNodeUp(4, false);
  const auto regrown = healer.Heal(4);
  EXPECT_EQ(regrown, 1u);
  const auto new_host = wn->placements().at(id);
  EXPECT_NE(new_host, 4u);
  EXPECT_TRUE(topology.IsNodeUp(new_host));
  // The genome carried the fact along.
  EXPECT_EQ(wn->ship(new_host)->facts().Get(77),
            std::optional<std::int64_t>(7));
  EXPECT_EQ(wn->ship(new_host)->os().current_role(),
            node::FirstLevelRole::kCaching);
}

TEST_F(HealingFixture, HealWithoutCheckpointDoesNothing) {
  Build();
  SelfHealingCoordinator healer(*wn, {});
  topology.SetNodeUp(4, false);
  EXPECT_EQ(healer.Heal(4), 0u);
}

TEST_F(HealingFixture, EndToEndFailureDetectionAndRecovery) {
  Build();
  wli::NetFunction fn;
  fn.name = "svc";
  fn.role = node::FirstLevelRole::kFusion;
  wn->DeployFunction(4, fn);

  SelfHealingCoordinator::Config hcfg;
  hcfg.detection_delay = 50 * sim::kMillisecond;
  SelfHealingCoordinator healer(*wn, hcfg);
  healer.CheckpointAll();

  net::FailureInjector injector(simulator, topology, Rng(9));
  injector.set_observer([&](const char* kind, std::uint32_t id, bool up) {
    healer.OnFailureEvent(kind, id, up);
  });
  injector.FailNode(4, sim::kSecond, /*outage=*/0);
  simulator.RunAll();
  EXPECT_EQ(healer.heals(), 1u);
  // Recovery completed detection_delay after the failure.
  EXPECT_EQ(healer.last_heal_time(), sim::kSecond + hcfg.detection_delay);
}

TEST_F(HealingFixture, LinkFailuresDoNotTriggerHeal) {
  Build();
  SelfHealingCoordinator healer(*wn, {});
  healer.CheckpointAll();
  healer.OnFailureEvent("link", 0, false);
  simulator.RunAll();
  EXPECT_EQ(healer.heals(), 0u);
}

// ---- Elastic-control baseline ----

TEST_F(HealingFixture, ElasticControlSwitchesViaController) {
  Build();
  baselines::ElasticController controller(*wn, /*controller=*/8);
  EXPECT_TRUE(controller.RequestRoleSwitch(0, node::FirstLevelRole::kFusion));
  simulator.RunAll();
  EXPECT_EQ(controller.switches_applied(), 1u);
  EXPECT_EQ(wn->ship(0)->os().current_role(), node::FirstLevelRole::kFusion);
}

TEST_F(HealingFixture, ElasticControllerIsSinglePointOfFailure) {
  Build();
  baselines::ElasticController controller(*wn, 8);
  topology.SetNodeUp(8, false);
  EXPECT_FALSE(
      controller.RequestRoleSwitch(0, node::FirstLevelRole::kFusion));
  simulator.RunAll();
  EXPECT_EQ(controller.switches_applied(), 0u);
  EXPECT_EQ(controller.requests_lost(), 1u);
}

TEST_F(HealingFixture, ElasticSwitchIsSlowerThanLocal) {
  Build();
  baselines::ElasticController controller(*wn, 8);
  // Local (autopoietic) switch: immediate.
  const auto t0 = simulator.now();
  ASSERT_TRUE(wn->ship(0)
                  ->SwitchRole(node::FirstLevelRole::kFission,
                               node::SwitchMechanism::kResidentSoftware)
                  .ok());
  EXPECT_EQ(simulator.now(), t0);  // no network round trip
  // Elastic switch needs the controller round trip.
  ASSERT_TRUE(controller.RequestRoleSwitch(0, node::FirstLevelRole::kFusion));
  simulator.RunAll();
  EXPECT_GT(simulator.now(), t0);
  EXPECT_EQ(wn->ship(0)->os().current_role(), node::FirstLevelRole::kFusion);
}

}  // namespace
}  // namespace viator::services
