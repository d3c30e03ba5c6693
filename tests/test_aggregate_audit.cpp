// Tests for ship aggregation (SRP Def. 2(3)), community auditing, and the
// Replication/Next-Step role services (Forward-and-Copy / Oracle).
#include <gtest/gtest.h>

#include "core/aggregate.h"
#include "core/wandering_network.h"
#include "net/topology.h"
#include "services/accounting.h"
#include "services/audit.h"
#include "services/replication.h"
#include "services/routing.h"
#include "sim/simulator.h"

namespace viator {
namespace {

struct ExtFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Topology topology = net::MakeRing(6);
  wli::WnConfig config;
  std::unique_ptr<wli::WanderingNetwork> wn;

  void Build() {
    wn = std::make_unique<wli::WanderingNetwork>(simulator, topology, config,
                                                 42);
    wn->PopulateAllNodes();
  }
};

// ---- Ship aggregation ----

TEST_F(ExtFixture, AggregateFormsAndExpires) {
  Build();
  auto aggregate =
      wli::ShipAggregate::Form(*wn, {0, 1, 2}, 2 * sim::kSecond);
  ASSERT_TRUE(aggregate.ok());
  EXPECT_EQ(aggregate->speaker(), 0u);
  EXPECT_TRUE(aggregate->Alive(simulator.now()));
  EXPECT_TRUE(aggregate->Alive(sim::kSecond));
  EXPECT_FALSE(aggregate->Alive(3 * sim::kSecond));  // temporary!
  aggregate->Renew(3 * sim::kSecond, 2 * sim::kSecond);
  EXPECT_TRUE(aggregate->Alive(4 * sim::kSecond));
}

TEST_F(ExtFixture, AggregateRejectsBadMemberSets) {
  Build();
  EXPECT_FALSE(wli::ShipAggregate::Form(*wn, {0}, sim::kSecond).ok());
  EXPECT_FALSE(wli::ShipAggregate::Form(*wn, {0, 0}, sim::kSecond).ok());
  EXPECT_FALSE(wli::ShipAggregate::Form(*wn, {0, 99}, sim::kSecond).ok());
}

TEST_F(ExtFixture, JointBlueprintMergesMembers) {
  Build();
  wn->ship(0)->facts().Touch(1, 10, 5.0, 0);
  wn->ship(1)->facts().Touch(2, 20, 3.0, 0);
  wn->ship(1)->facts().Touch(1, 99, 1.0, 0);  // weaker duplicate of key 1
  wli::NetFunction fn;
  fn.name = "member-fn";
  fn.role = node::FirstLevelRole::kFusion;
  wn->DeployFunction(1, fn);

  auto aggregate =
      wli::ShipAggregate::Form(*wn, {0, 1, 2}, sim::kSecond);
  ASSERT_TRUE(aggregate.ok());
  const auto joint = aggregate->JointBlueprint();
  // Union of functions across members.
  ASSERT_EQ(joint.functions.size(), 1u);
  EXPECT_EQ(joint.functions[0].name, "member-fn");
  // Facts deduped by key, heaviest kept.
  bool saw_key1 = false;
  for (const auto& fact : joint.facts) {
    if (fact.key == 1) {
      saw_key1 = true;
      EXPECT_EQ(fact.value, 10);
      EXPECT_DOUBLE_EQ(fact.weight, 5.0);
    }
  }
  EXPECT_TRUE(saw_key1);
}

TEST_F(ExtFixture, AggregatePoolsCapacityAndRoundRobins) {
  Build();
  auto aggregate =
      wli::ShipAggregate::Form(*wn, {0, 1, 2}, 10 * sim::kSecond);
  ASSERT_TRUE(aggregate.ok());
  EXPECT_EQ(aggregate->PooledFuelBudget(),
            3 * config.quota.fuel_per_epoch);
  std::vector<net::NodeId> chosen;
  for (int i = 0; i < 6; ++i) {
    wli::Shuttle work = wli::Shuttle::Data(3, 0, {i}, i);
    auto member = aggregate->DispatchWork(std::move(work));
    ASSERT_TRUE(member.ok());
    chosen.push_back(*member);
  }
  simulator.RunAll();
  EXPECT_EQ(chosen, (std::vector<net::NodeId>{0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(aggregate->work_dispatched(), 6u);
}

TEST_F(ExtFixture, ExpiredAggregateRefusesWork) {
  Build();
  auto aggregate = wli::ShipAggregate::Form(*wn, {0, 1}, sim::kSecond);
  ASSERT_TRUE(aggregate.ok());
  simulator.RunUntil(2 * sim::kSecond);
  EXPECT_EQ(aggregate->DispatchWork(wli::Shuttle::Data(2, 0, {1}, 1))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ExtFixture, AggregationFeedsClustering) {
  Build();
  auto aggregate =
      wli::ShipAggregate::Form(*wn, {0, 1, 2}, sim::kSecond);
  ASSERT_TRUE(aggregate.ok());
  EXPECT_GT(wn->clusters().AffinityBetween(0, 1), 0.0);
  EXPECT_EQ(wn->stats().CounterValue("wn.aggregates_formed"), 1u);
}

// ---- Audit service ----

TEST_F(ExtFixture, AuditPassesHonestShips) {
  Build();
  services::AuditService audit(*wn, Rng(5));
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(audit.RunRound(), 0u);
  }
  EXPECT_GT(audit.audits(), 0u);
  EXPECT_EQ(audit.violations(), 0u);
  for (net::NodeId n = 0; n < 6; ++n) {
    EXPECT_FALSE(wn->reputation().IsExcluded(n));
  }
}

TEST_F(ExtFixture, AuditCatchesAndExcludesDishonestShip) {
  Build();
  wn->ship(3)->set_honest(false);
  services::AuditService audit(*wn, Rng(5));
  for (int round = 0; round < 40; ++round) {
    (void)audit.RunRound();
  }
  EXPECT_GT(audit.violations(), 0u);
  EXPECT_TRUE(wn->reputation().IsExcluded(3));
  // Exclusion has teeth: the liar's traffic is refused.
  EXPECT_EQ(wn->Inject(wli::Shuttle::Data(3, 0, {1}, 1)).code(),
            StatusCode::kPermissionDenied);
  // Honest ships are unaffected.
  EXPECT_FALSE(wn->reputation().IsExcluded(0));
}

TEST_F(ExtFixture, AuditLoopRunsPeriodically) {
  Build();
  services::AuditService audit(*wn, Rng(5));
  const sim::TimePoint until = 10 * services::AuditService::kInterval;
  audit.Start(until);
  simulator.RunUntil(until);
  EXPECT_GE(audit.audits(), 9u * services::AuditService::kSamplesPerRound);
}

// ---- Forward-and-Copy ----

TEST_F(ExtFixture, ForwardAndCopyTeesTraffic) {
  Build();
  services::ForwardAndCopy::Config cfg;
  cfg.monitor = 5;
  services::ForwardAndCopy fac(*wn, 2, cfg);
  int at_destination = 0, at_monitor = 0;
  wn->ship(4)->SetDeliverySink(
      [&](wli::Ship&, const wli::Shuttle&) { ++at_destination; });
  wn->ship(5)->SetDeliverySink(
      [&](wli::Ship&, const wli::Shuttle&) { ++at_monitor; });
  // Payload prefix carries the final destination (4); FaC node is 2.
  for (int i = 0; i < 3; ++i) {
    (void)wn->Inject(wli::Shuttle::Data(0, 2, {4, 100 + i}, 7));
  }
  simulator.RunAll();
  EXPECT_EQ(at_destination, 3);
  EXPECT_EQ(at_monitor, 3);
  EXPECT_EQ(fac.forwarded(), 3u);
  EXPECT_EQ(fac.copied(), 3u);
}

TEST_F(ExtFixture, ForwardAndCopyFiltersByFlow) {
  Build();
  services::ForwardAndCopy::Config cfg;
  cfg.monitor = 5;
  cfg.flow_filter = 7;
  services::ForwardAndCopy fac(*wn, 2, cfg);
  int at_monitor = 0;
  wn->ship(5)->SetDeliverySink(
      [&](wli::Ship&, const wli::Shuttle&) { ++at_monitor; });
  (void)wn->Inject(wli::Shuttle::Data(0, 2, {4, 1}, /*flow=*/7));
  (void)wn->Inject(wli::Shuttle::Data(0, 2, {4, 2}, /*flow=*/8));
  simulator.RunAll();
  EXPECT_EQ(fac.forwarded(), 2u);  // both forwarded
  EXPECT_EQ(fac.copied(), 1u);     // only flow 7 copied
  EXPECT_EQ(at_monitor, 1);
}

// ---- Next-Step oracle ----

TEST_F(ExtFixture, OracleProgramsAndAppliesNextStep) {
  Build();
  services::NextStepOracle oracle(*wn, 2);
  // Hot demand for fission at node 2.
  for (int i = 0; i < 10; ++i) {
    wn->demand().Record(2, node::FirstLevelRole::kFission, 1.0);
  }
  EXPECT_EQ(oracle.UpdateRegister(), node::FirstLevelRole::kFission);
  EXPECT_EQ(wn->ship(2)->os().next_step(), node::FirstLevelRole::kFission);
  EXPECT_EQ(wn->ship(2)->os().current_role(),
            node::FirstLevelRole::kCaching);  // not yet applied
  EXPECT_TRUE(oracle.ApplyNextStep());
  EXPECT_EQ(wn->ship(2)->os().current_role(),
            node::FirstLevelRole::kFission);
  EXPECT_FALSE(oracle.ApplyNextStep());  // already there
  EXPECT_EQ(oracle.steps_applied(), 1u);
}

TEST_F(ExtFixture, JointBlueprintAppliesToFreshShip) {
  // Def. 2(3): the aggregate's joint architecture is itself a genome — a
  // fresh ship can adopt it (functions + pooled facts) in one step.
  Build();
  wn->ship(0)->facts().Touch(11, 100, 4.0, 0);
  wli::NetFunction fn;
  fn.name = "joint-fn";
  fn.role = node::FirstLevelRole::kFission;
  wn->DeployFunction(1, fn);
  auto aggregate =
      wli::ShipAggregate::Form(*wn, {0, 1}, 10 * sim::kSecond);
  ASSERT_TRUE(aggregate.ok());
  const auto joint = aggregate->JointBlueprint();

  wli::Ship* adopter = wn->ship(5);
  ASSERT_TRUE(adopter->ApplyBlueprint(joint).ok());
  EXPECT_EQ(adopter->facts().Get(11), std::optional<std::int64_t>(100));
  EXPECT_FALSE(adopter->functions().functions().empty());
}

// ---- Accounting ----

TEST_F(ExtFixture, AccountingChargesForConsumption) {
  Build();
  services::Tariff tariff;
  tariff.per_shuttle_consumed = 2;
  tariff.per_role_switch = 10;
  services::AccountingService accounting(*wn, tariff,
                                         100 * sim::kMillisecond);
  // Some consumption at ship 3: five shuttles and one role switch.
  for (int i = 0; i < 5; ++i) {
    (void)wn->Inject(wli::Shuttle::Data(0, 3, {i}, 1));
  }
  (void)wn->ship(3)->SwitchRole(node::FirstLevelRole::kFusion,
                                node::SwitchMechanism::kResidentSoftware);
  simulator.RunAll();
  accounting.MeterOnce();
  const auto charges = accounting.ChargesFor(3);
  EXPECT_EQ(charges.shuttle_credits, 10u);   // 5 shuttles x 2
  EXPECT_EQ(charges.reconfig_credits, 10u);  // 1 switch x 10
  EXPECT_GT(accounting.TotalBilled(), 0u);
}

TEST_F(ExtFixture, AccountingDeltasDoNotDoubleCharge) {
  Build();
  services::AccountingService accounting(*wn, services::Tariff{},
                                         100 * sim::kMillisecond);
  (void)wn->Inject(wli::Shuttle::Data(0, 3, {1}, 1));
  simulator.RunAll();
  accounting.MeterOnce();
  const auto first = accounting.ChargesFor(3).shuttle_credits;
  accounting.MeterOnce();  // no new consumption
  EXPECT_EQ(accounting.ChargesFor(3).shuttle_credits, first);
}

TEST_F(ExtFixture, AccountingPeriodicLoopRuns) {
  Build();
  services::AccountingService accounting(*wn, services::Tariff{},
                                         100 * sim::kMillisecond);
  accounting.Start(sim::kSecond);
  simulator.RunUntil(sim::kSecond);
  EXPECT_GE(accounting.metering_passes(), 9u);
}

// ---- Router discovery backoff ----

TEST_F(ExtFixture, DiscoveryBackoffLimitsFloodStorms) {
  Build();
  topology.SetLinkUp(0, false);
  topology.SetLinkUp(5, false);  // isolate node 0 on the ring
  services::AdaptiveAdHocRouter router(*wn, {});
  // 10 sends to an unreachable destination in quick succession: exactly one
  // discovery flood inside the backoff window.
  for (int i = 0; i < 10; ++i) {
    (void)router.Send(0, 3, {i}, i);
    simulator.RunAll();
  }
  EXPECT_EQ(router.discoveries(), 1u);
  // After the window, the gate reopens.
  simulator.RunUntil(simulator.now() +
                     2 * services::AdaptiveAdHocRouter::kDiscoveryBackoff);
  (void)router.Send(0, 3, {99}, 99);
  simulator.RunAll();
  EXPECT_EQ(router.discoveries(), 2u);
}

}  // namespace
}  // namespace viator
