// Integration tests for Ship + WanderingNetwork: shuttle transport, mobile
// code execution, demand code loading, jets, capsule authorization, genetic
// blueprints, migration and the metamorphosis pulse.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "base/archive.h"
#include "core/ship.h"
#include "core/wandering_network.h"
#include "net/failure.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "vm/assembler.h"

namespace viator::wli {
namespace {

struct WnFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Topology topology = net::MakeLine(4);
  WnConfig config;
  std::unique_ptr<WanderingNetwork> wn;

  void Build() {
    wn = std::make_unique<WanderingNetwork>(simulator, topology, config,
                                            /*seed=*/1234);
    wn->PopulateAllNodes();
  }
};

TEST_F(WnFixture, DataShuttleCrossesMultipleHops) {
  Build();
  int delivered = 0;
  wn->ship(3)->SetDeliverySink(
      [&](Ship&, const Shuttle& s) { delivered += s.payload.empty() ? 0 : 1; });
  ASSERT_TRUE(wn->Inject(Shuttle::Data(0, 3, {7, 8, 9}, 1)).ok());
  simulator.RunAll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(wn->ship(1)->shuttles_forwarded(), 1u);
  EXPECT_EQ(wn->ship(2)->shuttles_forwarded(), 1u);
  EXPECT_EQ(wn->ship(3)->shuttles_consumed(), 1u);
}

TEST_F(WnFixture, TtlExpiryDropsLoopingShuttles) {
  Build();
  Shuttle s = Shuttle::Data(0, 3, {1}, 1);
  s.header.ttl = 1;  // expires at node 1
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  simulator.RunAll();
  EXPECT_EQ(wn->ship(3)->shuttles_consumed(), 0u);
  EXPECT_EQ(wn->stats().CounterValue("wn.ttl_expired"), 1u);
}

TEST_F(WnFixture, UnroutableShuttleCounted) {
  Build();
  topology.SetLinkUp(0, false);  // isolate node 0
  EXPECT_FALSE(wn->Inject(Shuttle::Data(0, 3, {1}, 1)).ok());
  EXPECT_EQ(wn->stats().CounterValue("wn.unroutable"), 1u);
}

TEST_F(WnFixture, ShuttleCodeExecutesOnArrival) {
  Build();
  // The program reads payload[0], doubles it and stores it as a fact.
  auto program = vm::Assemble("doubler", R"(
  push 0
  sys payload
  dup
  add
  store 0
  push 777      ; fact key
  load 0        ; value
  push 100      ; weight (percent)
  sys put_fact
  halt
)");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(wn->PublishProgram(*program, 0).ok());

  Shuttle s = Shuttle::Data(0, 3, {21}, 1);
  s.code_digest = program->digest();
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  simulator.RunAll();
  // Demand loading fetched the code from origin 0, then executed at 3.
  EXPECT_EQ(wn->ship(3)->facts().Get(777), std::optional<std::int64_t>(42));
  EXPECT_EQ(wn->ship(3)->code_executions(), 1u);
  EXPECT_EQ(wn->ship(3)->code_misses(), 1u);
}

TEST_F(WnFixture, SecondShuttleHitsWarmCodeCache) {
  Build();
  auto program = vm::Assemble("noop", "push 1\nsys emit\nhalt\n");
  ASSERT_TRUE(wn->PublishProgram(*program, 0).ok());
  for (int i = 0; i < 2; ++i) {
    Shuttle s = Shuttle::Data(0, 3, {1}, 1);
    s.code_digest = program->digest();
    ASSERT_TRUE(wn->Inject(std::move(s)).ok());
    simulator.RunAll();
  }
  EXPECT_EQ(wn->ship(3)->code_misses(), 1u);  // only the first was cold
  EXPECT_EQ(wn->ship(3)->code_executions(), 2u);
}

TEST_F(WnFixture, SyscallSendValueEmitsShuttle) {
  Build();
  auto program = vm::Assemble("forwarder", R"(
  push 0        ; dst node
  push 5        ; tag/flow
  push 0
  sys payload   ; value = payload[0]
  sys send_value
  halt
)");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(wn->PublishProgram(*program, 2).ok());
  std::int64_t received = -1;
  wn->ship(0)->SetDeliverySink([&](Ship&, const Shuttle& s) {
    if (!s.payload.empty()) received = s.payload[0];
  });
  Shuttle s = Shuttle::Data(1, 2, {99}, 1);
  s.code_digest = program->digest();
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  simulator.RunAll();
  EXPECT_EQ(received, 99);
}

TEST_F(WnFixture, FaultingCodeHurtsSenderReputation) {
  Build();
  // A verified program whose runtime fuel never suffices: infinite loop is
  // fine (verifier allows it; fuel stops it) — out-of-fuel is NOT a fault.
  // A fault needs a failing syscall: replicate outside a jet returns 0,
  // so use an invalid store via syscall failure path instead: erase_fact is
  // harmless... Use a program that requests role 99 (invalid) -> returns 0,
  // no fault either. The reliable fault: syscall with ship-level failure is
  // only unknown-syscall, which the verifier rejects. So craft a fault via
  // stack underflow in a hand-built (unverified) program installed through
  // the cache directly.
  std::vector<vm::Instruction> code = {{vm::Opcode::kAdd, 0},
                                       {vm::Opcode::kHalt, 0}};
  vm::Program bad("bad", code);
  ASSERT_TRUE(wn->ship(3)->os().code_cache().Put(bad).ok());
  Shuttle s = Shuttle::Data(0, 3, {1}, 1);
  s.code_digest = bad.digest();
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  simulator.RunAll();
  EXPECT_EQ(wn->stats().CounterValue("wn.exec_faults"), 1u);
  EXPECT_LT(wn->reputation().ScoreOf(0), 0.5);
}

TEST_F(WnFixture, CodeShuttleInstallsProgram) {
  Build();
  auto program = vm::Assemble("installed", "push 1\nhalt\n");
  Shuttle s;
  s.header.source = 0;
  s.header.destination = 2;
  s.header.kind = ShuttleKind::kCode;
  s.code_image = program->Serialize();
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  simulator.RunAll();
  EXPECT_TRUE(wn->ship(2)->os().code_cache().Contains(program->digest()));
  EXPECT_EQ(wn->stats().CounterValue("wn.code_installed"), 1u);
}

TEST_F(WnFixture, AuthorizationRejectsUnsignedCode) {
  config.auth_key = 0xdeadbeef;
  Build();
  auto program = vm::Assemble("unsigned", "push 1\nhalt\n");
  Shuttle s;
  s.header.source = 0;
  s.header.destination = 2;
  s.header.kind = ShuttleKind::kCode;
  s.code_image = program->Serialize();
  // No auth tag set.
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  simulator.RunAll();
  EXPECT_FALSE(wn->ship(2)->os().code_cache().Contains(program->digest()));
  EXPECT_EQ(wn->stats().CounterValue("wn.code_unauthorized"), 1u);
}

TEST_F(WnFixture, AuthorizationAcceptsSignedCode) {
  config.auth_key = 0xdeadbeef;
  Build();
  auto program = vm::Assemble("signed", "push 1\nhalt\n");
  Shuttle s;
  s.header.source = 0;
  s.header.destination = 2;
  s.header.kind = ShuttleKind::kCode;
  s.code_image = program->Serialize();
  s.auth_tag = KeyedTag(0xdeadbeef, s.code_image);
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  simulator.RunAll();
  EXPECT_TRUE(wn->ship(2)->os().code_cache().Contains(program->digest()));
}

TEST_F(WnFixture, KnowledgeShuttleAbsorbsFacts) {
  Build();
  KnowledgeQuantum kq;
  kq.function.id = 5;
  kq.function.name = "kq-fn";
  kq.function.role = node::FirstLevelRole::kFusion;
  kq.facts = {{111, 1, 2.0}, {222, 2, 3.0}};
  Shuttle s;
  s.header.source = 0;
  s.header.destination = 3;
  s.header.kind = ShuttleKind::kKnowledge;
  s.genome = EncodeKnowledgeQuantum(kq);
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  simulator.RunAll();
  EXPECT_EQ(wn->ship(3)->facts().Get(111), std::optional<std::int64_t>(1));
  EXPECT_EQ(wn->ship(3)->facts().Get(222), std::optional<std::int64_t>(2));
  // No payload[0]==1, so the function itself was not installed.
  EXPECT_EQ(wn->ship(3)->functions().Find(5), nullptr);
}

TEST_F(WnFixture, KnowledgeShuttleCanInstallFunction) {
  Build();
  KnowledgeQuantum kq;
  kq.function.id = 6;
  kq.function.name = "installed-fn";
  kq.function.role = node::FirstLevelRole::kFission;
  Shuttle s;
  s.header.source = 0;
  s.header.destination = 2;
  s.header.kind = ShuttleKind::kKnowledge;
  s.genome = EncodeKnowledgeQuantum(kq);
  s.payload = {1};  // install request
  ASSERT_TRUE(wn->Inject(std::move(s)).ok());
  simulator.RunAll();
  EXPECT_NE(wn->ship(2)->functions().Find(6), nullptr);
  EXPECT_EQ(wn->placements().at(6), 2u);
  EXPECT_EQ(wn->ship(2)->os().current_role(), node::FirstLevelRole::kFission);
}

TEST_F(WnFixture, JetReplicatesWithinBudget) {
  Build();
  // Jet program: replicate to every neighbor of the current node.
  auto program = vm::Assemble("jet", R"(
  sys neighbor_count
  store 0
loop:
  load 0
  jz done
  load 0
  push -1
  add
  store 0
  load 0
  sys neighbor
  sys replicate
  pop
  jmp loop
done:
  halt
)");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(wn->PublishProgram(*program, 1).ok());

  Shuttle jet;
  jet.header.source = 0;
  jet.header.destination = 1;
  jet.header.kind = ShuttleKind::kJet;
  jet.code_digest = program->digest();
  jet.code_image = program->Serialize();
  jet.replication_budget = 2;
  ASSERT_TRUE(wn->Inject(std::move(jet)).ok());
  simulator.RunAll();
  EXPECT_GT(wn->stats().CounterValue("wn.jet_replications"), 0u);
  // Budget bounds the cascade: every replica has budget-1.
  EXPECT_LE(wn->stats().CounterValue("wn.jet_replications"), 16u);
}

TEST_F(WnFixture, JetBudgetCapClamps) {
  config.jet_budget_cap = 0;  // security class forbids replication
  Build();
  auto program = vm::Assemble("jet", R"(
  push 2
  sys replicate
  sys emit
  halt
)");
  ASSERT_TRUE(wn->PublishProgram(*program, 1).ok());
  Shuttle jet;
  jet.header.source = 0;
  jet.header.destination = 1;
  jet.header.kind = ShuttleKind::kJet;
  jet.code_digest = program->digest();
  jet.code_image = program->Serialize();
  jet.replication_budget = 100;  // attempted runaway
  ASSERT_TRUE(wn->Inject(std::move(jet)).ok());
  simulator.RunAll();
  EXPECT_EQ(wn->stats().CounterValue("wn.jet_replications"), 0u);
  // The jet ran but replicate returned 0 (clamped budget).
  EXPECT_EQ(wn->ship(1)->last_emissions(), (std::vector<std::int64_t>{0}));
}

TEST_F(WnFixture, GenerationOneRefusesJets) {
  config.generation = 1;
  Build();
  Shuttle jet;
  jet.header.source = 0;
  jet.header.destination = 1;
  jet.header.kind = ShuttleKind::kJet;
  jet.replication_budget = 4;
  ASSERT_TRUE(wn->Inject(std::move(jet)).ok());
  simulator.RunAll();
  EXPECT_EQ(wn->stats().CounterValue("wn.jet_refused"), 1u);
}

TEST_F(WnFixture, BlueprintRoundTripsThroughShip) {
  Build();
  Ship* source = wn->ship(1);
  (void)source->SwitchRole(node::FirstLevelRole::kFusion,
                           node::SwitchMechanism::kResidentSoftware);
  source->os().set_next_step(node::FirstLevelRole::kCaching);
  source->facts().Touch(42, 420, 5.0, simulator.now());
  const auto blueprint = source->ToBlueprint();
  EXPECT_EQ(blueprint.role, node::FirstLevelRole::kFusion);
  EXPECT_EQ(blueprint.next_step, node::FirstLevelRole::kCaching);
  ASSERT_FALSE(blueprint.facts.empty());

  Ship* target = wn->ship(3);
  ASSERT_TRUE(target->ApplyBlueprint(blueprint).ok());
  EXPECT_EQ(target->os().current_role(), node::FirstLevelRole::kFusion);
  EXPECT_EQ(target->facts().Get(42), std::optional<std::int64_t>(420));
}

TEST_F(WnFixture, DishonestShipAdvertisesWrongDigest) {
  Build();
  Ship* honest = wn->ship(0);
  Ship* liar = wn->ship(1);
  liar->set_honest(false);
  const auto honest_desc = honest->DescribeSelf();
  // Audit: recompute the genome digest and compare with the advertisement.
  const auto actual =
      HashBytes(EncodeBlueprint(honest->ToBlueprint()));
  EXPECT_EQ(honest_desc.descriptor_digest, actual);
  const auto liar_desc = liar->DescribeSelf();
  const auto liar_actual = HashBytes(EncodeBlueprint(liar->ToBlueprint()));
  EXPECT_NE(liar_desc.descriptor_digest, liar_actual);
}

TEST_F(WnFixture, ExcludedShipsLoseService) {
  Build();
  for (int i = 0; i < 30; ++i) wn->reputation().ReportInteraction(0, false);
  ASSERT_TRUE(wn->reputation().IsExcluded(0));
  EXPECT_EQ(wn->Inject(Shuttle::Data(0, 3, {1}, 1)).code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(wn->stats().CounterValue("wn.excluded_dropped"), 1u);
}

TEST_F(WnFixture, MigrateFunctionMovesViaShuttle) {
  Build();
  NetFunction fn;
  fn.name = "movable";
  fn.role = node::FirstLevelRole::kFusion;
  const FunctionId id = wn->DeployFunction(0, fn);
  EXPECT_EQ(wn->placements().at(id), 0u);
  ASSERT_TRUE(wn->MigrateFunction(id, 3).ok());
  EXPECT_EQ(wn->ship(0)->functions().Find(id), nullptr);  // gone at source
  simulator.RunAll();  // carrier shuttle lands
  EXPECT_NE(wn->ship(3)->functions().Find(id), nullptr);
  EXPECT_EQ(wn->placements().at(id), 3u);
  EXPECT_EQ(wn->ship(3)->os().current_role(), node::FirstLevelRole::kFusion);
  EXPECT_EQ(wn->migrations_executed(), 1u);
  EXPECT_EQ(wn->stats().CounterValue("wn.migrations_landed"), 1u);
}

TEST_F(WnFixture, PulseMigratesTowardDemand) {
  Build();
  NetFunction fn;
  fn.name = "hot-service";
  fn.role = node::FirstLevelRole::kFusion;
  const FunctionId id = wn->DeployFunction(0, fn);
  // Create a demand hotspot at node 3.
  for (int i = 0; i < 20; ++i) {
    wn->demand().Record(3, node::FirstLevelRole::kFusion, 1.0);
  }
  wn->Pulse();
  simulator.RunAll();
  EXPECT_EQ(wn->placements().at(id), 3u);
}

TEST_F(WnFixture, PulseGeneration2DoesNotMigrate) {
  config.generation = 2;
  Build();
  NetFunction fn;
  fn.role = node::FirstLevelRole::kFusion;
  const FunctionId id = wn->DeployFunction(0, fn);
  for (int i = 0; i < 20; ++i) {
    wn->demand().Record(3, node::FirstLevelRole::kFusion, 1.0);
  }
  wn->Pulse();
  simulator.RunAll();
  EXPECT_EQ(wn->placements().at(id), 0u);  // 2G: no self-distribution
}

TEST_F(WnFixture, PulseExpiresFactlessFunctions) {
  Build();
  NetFunction fn;
  fn.name = "fact-bound";
  fn.role = node::FirstLevelRole::kCaching;
  fn.fact_keys = {999};
  const FunctionId id = wn->DeployFunction(2, fn);
  // The fact never existed, so the first pulse kills the function and its
  // placement.
  wn->Pulse();
  EXPECT_EQ(wn->ship(2)->functions().Find(id), nullptr);
  EXPECT_EQ(wn->placements().count(id), 0u);
  EXPECT_GT(wn->stats().CounterValue("wn.functions_expired"), 0u);
}

TEST_F(WnFixture, ResonanceEmergesFunctions) {
  config.resonance.min_support = 3;
  Build();
  // Plant strongly co-occurring facts on three ships, refreshed enough to
  // survive the pulse sweep.
  for (net::NodeId n : {0u, 1u, 2u}) {
    for (int i = 0; i < 10; ++i) {
      wn->ship(n)->facts().Touch(500, 1, 5.0, simulator.now());
      wn->ship(n)->facts().Touch(600, 2, 5.0, simulator.now());
    }
  }
  wn->Pulse();
  EXPECT_GE(wn->functions_emerged(), 1u);
  EXPECT_EQ(wn->stats().CounterValue("wn.functions_emerged"),
            wn->functions_emerged());
}

TEST_F(WnFixture, PulseSpawnsOverlaysFromClassActivity) {
  config.vertical.spawn_threshold = 2.0;
  Build();
  // Run shuttle code on two ships to create class activity.
  auto program = vm::Assemble("work", "push 1\nsys emit\nhalt\n");
  ASSERT_TRUE(wn->PublishProgram(*program, 0).ok());
  for (net::NodeId dst : {1u, 2u}) {
    for (int i = 0; i < 3; ++i) {
      Shuttle s = Shuttle::Data(0, dst, {1}, 1);
      s.code_digest = program->digest();
      ASSERT_TRUE(wn->Inject(std::move(s)).ok());
    }
  }
  simulator.RunAll();
  wn->Pulse();
  EXPECT_GT(wn->overlays().spawned_total(), 0u);
  EXPECT_GT(wn->stats().CounterValue("wn.overlays_spawned"), 0u);
}

TEST_F(WnFixture, RoleDiversityReflectsCensus) {
  Build();
  EXPECT_DOUBLE_EQ(wn->RoleDiversity(), 0.0);  // all ships same default role
  (void)wn->ship(0)->SwitchRole(node::FirstLevelRole::kFusion,
                                node::SwitchMechanism::kResidentSoftware);
  (void)wn->ship(1)->SwitchRole(node::FirstLevelRole::kFission,
                                node::SwitchMechanism::kResidentSoftware);
  EXPECT_GT(wn->RoleDiversity(), 1.0);
  const auto census = wn->RoleCensus();
  EXPECT_EQ(census.at(node::FirstLevelRole::kFusion), 1u);
  EXPECT_EQ(census.at(node::FirstLevelRole::kCaching), 2u);
}

TEST_F(WnFixture, StartPulseRunsPeriodically) {
  config.pulse_interval = 100 * sim::kMillisecond;
  Build();
  wn->StartPulse(sim::kSecond);
  simulator.RunUntil(sim::kSecond);
  EXPECT_GE(wn->pulses(), 9u);
  EXPECT_LE(wn->pulses(), 10u);
}

TEST_F(WnFixture, MorphingAtDockCountsAndRejects) {
  Build();
  wn->morphing().SetRequiredInterface(node::ShipClass::kServer, 7);
  // No adapter 0->7 registered: every data shuttle is rejected at dock.
  ASSERT_TRUE(wn->Inject(Shuttle::Data(0, 1, {1}, 1)).ok());
  simulator.RunAll();
  EXPECT_EQ(wn->stats().CounterValue("wn.dock_rejected"), 1u);
  // Register the adapter: now the dock succeeds and counts a morph.
  wn->morphing().AddAdapter(0, 7, 8, sim::kMicrosecond);
  ASSERT_TRUE(wn->Inject(Shuttle::Data(0, 1, {1}, 1)).ok());
  simulator.RunAll();
  EXPECT_EQ(wn->stats().CounterValue("wn.morphs"), 1u);
}

TEST_F(WnFixture, DeterministicAcrossRuns) {
  // Two identically seeded networks produce identical outcomes.
  auto run = [](std::uint64_t seed) {
    sim::Simulator simulator_local;
    net::Topology topo = net::MakeLine(4);
    WnConfig cfg;
    WanderingNetwork wn_local(simulator_local, topo, cfg, seed);
    wn_local.PopulateAllNodes();
    for (int i = 0; i < 10; ++i) {
      (void)wn_local.Inject(Shuttle::Data(0, 3, {i}, i));
    }
    simulator_local.RunAll();
    return std::make_pair(wn_local.fabric().bytes_sent(),
                          wn_local.ship(3)->shuttles_consumed());
  };
  EXPECT_EQ(run(42), run(42));
}

// ---- Cached state digest ---------------------------------------------------

std::uint64_t CachedDigest(const WanderingNetwork& network) {
  Hasher hasher;
  network.MixDigest(hasher);
  return hasher.digest();
}

std::uint64_t ReferenceDigest(const WanderingNetwork& network) {
  Hasher hasher;
  network.MixDigestUncached(hasher);
  return hasher.digest();
}

TEST(CachedDigest, EveryMutatorRefreshesIt) {
  // The network digest mixes one cached word per ship and one for the
  // topology. Each row warms that digest, changes state through exactly one
  // member that must list the ship (or bump the topology generation), and
  // requires the cached digest to equal the uncached reference walk.
  struct Row {
    const char* member;
    // Runs before the digest is warmed (state the mutation needs).
    std::function<void(WanderingNetwork&)> setup;
    std::function<void(WanderingNetwork&, Ship&)> mutate;
  };
  auto program = vm::Assemble("noop", "push 1\nsys emit\nhalt\n");
  ASSERT_TRUE(program.ok());
  const std::vector<Row> rows = {
      {"os()", {},
       [](WanderingNetwork&, Ship& ship) {
         ship.os().set_next_step(node::FirstLevelRole::kFusion);
       }},
      {"facts()", {},
       [](WanderingNetwork&, Ship& ship) {
         ship.facts().Touch(900, 1, 2.0, 0);
       }},
      {"functions()", {},
       [](WanderingNetwork&, Ship& ship) {
         NetFunction function;
         function.id = 77;
         function.name = "row";
         ship.functions().Install(function);
       }},
      {"congruence()", {},
       [](WanderingNetwork&, Ship& ship) { ship.congruence().Observe(7); }},
      {"rng()", {},
       [](WanderingNetwork&, Ship& ship) { (void)ship.rng().Next(); }},
      {"Receive", {},
       [](WanderingNetwork&, Ship& ship) {
         ship.Receive(Shuttle::Data(2, ship.id(), {5}, 9), 2);
       }},
      {"SwitchRole", {},
       [](WanderingNetwork&, Ship& ship) {
         ASSERT_TRUE(ship.SwitchRole(node::FirstLevelRole::kFusion,
                                     node::SwitchMechanism::kResidentSoftware)
                         .ok());
       }},
      {"ApplyBlueprint", {},
       [](WanderingNetwork&, Ship& ship) {
         ShipBlueprint blueprint;
         blueprint.role = ship.ToBlueprint().role;
         blueprint.next_step = ship.ToBlueprint().next_step;
         blueprint.facts.push_back({901, 2, 3.0});
         ASSERT_TRUE(ship.ApplyBlueprint(blueprint).ok());
       }},
      {"set_honest", {},
       [](WanderingNetwork&, Ship& ship) { ship.set_honest(false); }},
      {"Invoke", {},
       [](WanderingNetwork&, Ship& ship) {
         const std::int64_t args[] = {902, 3, 100};
         ASSERT_TRUE(ship.Invoke(vm::Syscall::kPutFact, args).ok());
       }},
      {"DrainClassActivity",
       [&program](WanderingNetwork& network) {
         // Run code on ship 3 so it has class activity to drain.
         ASSERT_TRUE(network.PublishProgram(*program, 0).ok());
         Shuttle shuttle = Shuttle::Data(0, 3, {1}, 1);
         shuttle.code_digest = program->digest();
         ASSERT_TRUE(network.Inject(std::move(shuttle)).ok());
         network.simulator().RunAll();
         ASSERT_EQ(network.ship(3)->code_executions(), 1u);
       },
       [](WanderingNetwork&, Ship& ship) {
         EXPECT_FALSE(ship.DrainClassActivity().empty());
       }},
      {"loading Visit", {},
       [](WanderingNetwork& network, Ship& ship) {
         const std::vector<std::byte> other = SaveFields(*network.ship(1));
         ASSERT_TRUE(LoadFields(other, ship).ok());
       }},
      {"AddShip", {},
       [](WanderingNetwork& network, Ship&) { network.AddShip(4); }},
      {"Topology::AddNodes", {},
       [](WanderingNetwork& network, Ship&) { network.topology().AddNodes(1); }},
      {"Topology::AddLink", {},
       [](WanderingNetwork& network, Ship&) {
         network.topology().AddLink(0, 3);
       }},
      {"Topology::SetLinkUp", {},
       [](WanderingNetwork& network, Ship&) {
         network.topology().SetLinkUp(0, false);
       }},
      {"Topology::SetNodeUp", {},
       [](WanderingNetwork& network, Ship&) {
         network.topology().SetNodeUp(2, false);
       }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.member);
    // Five nodes, ships on the first four: node 4 is free for AddShip.
    sim::Simulator simulator;
    net::Topology topology = net::MakeLine(5);
    WanderingNetwork network(simulator, topology, WnConfig{}, /*seed=*/99);
    for (net::NodeId node = 0; node < 4; ++node) network.AddShip(node);
    if (row.setup) row.setup(network);
    if (::testing::Test::HasFatalFailure()) return;

    const std::uint64_t before = CachedDigest(network);
    ASSERT_EQ(before, ReferenceDigest(network));
    row.mutate(network, *network.ship(3));
    if (::testing::Test::HasFatalFailure()) return;
    const std::uint64_t reference = ReferenceDigest(network);
    EXPECT_NE(reference, before) << "the mutation changed no hashed field";
    EXPECT_EQ(CachedDigest(network), reference);
  }
}

TEST(CachedDigest, ExactUnderRandomLinkFailures) {
  // Link failures and repairs re-stamp the topology digest mid-run while
  // shuttles change ships: after every slice of the run the cached digest
  // equals the uncached reference.
  sim::Simulator simulator;
  net::Topology topology = net::MakeGrid(4, 4);
  WnConfig config;
  WanderingNetwork network(simulator, topology, config, /*seed=*/31);
  network.PopulateAllNodes();
  net::FailureInjector failures(simulator, topology, Rng(17));
  const sim::TimePoint until = 2 * sim::kSecond;
  failures.StartRandomLinkFailures(200 * sim::kMillisecond,
                                   100 * sim::kMillisecond, until);
  network.StartPulse(until);
  Rng traffic(3);
  std::uint64_t generation = topology.generation();
  std::size_t restamped = 0;
  for (sim::TimePoint t = 0; t < until; t += 50 * sim::kMillisecond) {
    for (int i = 0; i < 4; ++i) {
      const auto src = static_cast<net::NodeId>(traffic.UniformInt(0, 15));
      const auto dst = static_cast<net::NodeId>(traffic.UniformInt(0, 15));
      (void)network.Inject(Shuttle::Data(src, dst, {i}, t + 1));
    }
    simulator.RunUntil(t + 50 * sim::kMillisecond);
    ASSERT_EQ(CachedDigest(network), ReferenceDigest(network))
        << "at " << sim::ToSeconds(simulator.now()) << " s";
    if (topology.generation() != generation) {
      generation = topology.generation();
      ++restamped;
    }
  }
  EXPECT_GT(failures.failures_injected(), 0u);
  EXPECT_GT(restamped, 5u);
}

// ---- Shuttle pool ----------------------------------------------------------

TEST(ShuttlePool, RecyclesShellsAndResetsState) {
  ShuttlePool pool;
  Shuttle s = pool.Acquire();
  s.header.source = 3;
  s.header.ttl = 1;
  s.code_digest = 77;
  s.payload = {1, 2, 3};
  s.genome.resize(64);
  s.replication_budget = 9;
  s.transit_destination = 5;
  const std::int64_t* buffer = s.payload.data();
  pool.Release(std::move(s));
  EXPECT_EQ(pool.pooled(), 1u);

  Shuttle r = pool.Acquire();
  // Same capacity, pristine contents: indistinguishable from a fresh one.
  EXPECT_EQ(r.payload.data(), buffer);
  EXPECT_EQ(r.header.source, net::kInvalidNode);
  EXPECT_EQ(r.header.ttl, Shuttle{}.header.ttl);
  EXPECT_EQ(r.code_digest, 0u);
  EXPECT_TRUE(r.payload.empty());
  EXPECT_TRUE(r.genome.empty());
  EXPECT_EQ(r.replication_budget, 0u);
  EXPECT_FALSE(r.in_transit());
  EXPECT_EQ(pool.reused(), 1u);
}

TEST(ShuttlePool, CapBoundsRetention) {
  ShuttlePool pool;
  for (std::size_t i = 0; i < ShuttlePool::kMaxPooled + 3; ++i) {
    pool.Release(Shuttle{});
  }
  EXPECT_EQ(pool.pooled(), ShuttlePool::kMaxPooled);
  EXPECT_EQ(pool.released(), ShuttlePool::kMaxPooled + 3);
}

TEST(ShuttlePool, AcquireDataMatchesShuttleData) {
  ShuttlePool pool;
  const std::int64_t words[] = {4, 5, 6};
  Shuttle pooled = pool.AcquireData(1, 2, words, 99);
  Shuttle direct = Shuttle::Data(1, 2, {4, 5, 6}, 99);
  EXPECT_EQ(pooled.header.source, direct.header.source);
  EXPECT_EQ(pooled.header.destination, direct.header.destination);
  EXPECT_EQ(pooled.header.flow_id, direct.header.flow_id);
  EXPECT_EQ(pooled.header.kind, direct.header.kind);
  EXPECT_EQ(pooled.payload, direct.payload);
  EXPECT_EQ(pooled.WireSize(), direct.WireSize());
}

TEST_F(WnFixture, ConsumedShuttlesReturnToThePool) {
  // End-to-end: inject traffic, let ships consume it, and watch the
  // network's pool fill with recycled shells (steady-state allocation-free
  // sends are what the pool exists for).
  Build();
  for (int i = 0; i < 8; ++i) {
    (void)wn->Inject(Shuttle::Data(0, 3, {i}, 7));
    simulator.RunAll();
  }
  EXPECT_GT(wn->shuttle_pool().released(), 0u);
  EXPECT_GT(wn->shuttle_pool().pooled(), 0u);
  // And a pooled re-send reuses a shell rather than allocating.
  const std::uint64_t reused_before = wn->shuttle_pool().reused();
  const std::int64_t word[] = {1};
  (void)wn->Inject(wn->shuttle_pool().AcquireData(0, 3, word, 8));
  simulator.RunAll();
  EXPECT_GT(wn->shuttle_pool().reused(), reused_before);
}

}  // namespace
}  // namespace viator::wli
