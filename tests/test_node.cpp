// Tests for the node layer: profiles, resources, execution environments,
// the hardware plane / netbot docking and the NodeOS with generation gating.
#include <gtest/gtest.h>

#include "node/execution_env.h"
#include "node/hardware_plane.h"
#include "node/node_os.h"
#include "node/profile.h"
#include "node/resources.h"
#include "vm/assembler.h"

namespace viator::node {
namespace {

// ---- Profile taxonomy ----

TEST(Profile, AllRolesHaveNames) {
  for (int r = 0; r < static_cast<int>(FirstLevelRole::kRoleCount); ++r) {
    EXPECT_NE(FirstLevelRoleName(static_cast<FirstLevelRole>(r)), "?");
  }
}

TEST(Profile, AllClassesHaveNames) {
  for (int c = 0; c < static_cast<int>(SecondLevelClass::kClassCount); ++c) {
    EXPECT_NE(SecondLevelClassName(static_cast<SecondLevelClass>(c)), "?");
  }
}

TEST(Profile, DefaultClassForEveryRoleIsValid) {
  for (int r = 0; r < static_cast<int>(FirstLevelRole::kRoleCount); ++r) {
    const auto cls = DefaultClassFor(static_cast<FirstLevelRole>(r));
    EXPECT_LT(static_cast<int>(cls),
              static_cast<int>(SecondLevelClass::kClassCount));
  }
}

// ---- Resources ----

TEST(Resources, FuelBudgetEnforced) {
  ResourceQuota quota;
  quota.fuel_per_epoch = 1000;
  ResourceAccountant acc(quota);
  EXPECT_TRUE(acc.ChargeFuel(600).ok());
  EXPECT_TRUE(acc.ChargeFuel(400).ok());
  EXPECT_EQ(acc.ChargeFuel(1).code(), StatusCode::kResourceExhausted);
  acc.BeginEpoch();
  EXPECT_TRUE(acc.ChargeFuel(1000).ok());
  EXPECT_EQ(acc.total_fuel_used(), 2000u);
}

TEST(Resources, MemoryQuota) {
  ResourceAccountant acc(ResourceQuota{});
  EXPECT_TRUE(acc.ChargeMemory(ResourceAccountant::kMemoryBytes - 20).ok());
  EXPECT_FALSE(acc.ChargeMemory(30).ok());
  acc.ReleaseMemory(50);
  EXPECT_TRUE(acc.ChargeMemory(30).ok());
  acc.ReleaseMemory(ResourceAccountant::kMemoryBytes);  // clamps to zero
  EXPECT_EQ(acc.memory_used(), 0u);
}

TEST(Resources, PendingSlots) {
  ResourceAccountant acc(ResourceQuota{});
  for (std::uint32_t i = 0; i < ResourceAccountant::kMaxPendingShuttles; ++i) {
    EXPECT_TRUE(acc.AcquirePendingSlot().ok());
  }
  EXPECT_FALSE(acc.AcquirePendingSlot().ok());
  acc.ReleasePendingSlot();
  EXPECT_TRUE(acc.AcquirePendingSlot().ok());
}

// ---- Execution environment ----

TEST(ExecutionEnv, RunsAndAccounts) {
  ExecutionEnvironment ee(1, SecondLevelClass::kFiltering,
                          RoleBinding::kModal);
  ResourceQuota quota;
  ResourceAccountant acc(quota);
  vm::Environment host;
  auto program = vm::Assemble("p", "push 1\npush 2\nadd\nhalt\n");
  auto result = ee.Execute(*program, host, acc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reason, vm::ExitReason::kHalted);
  EXPECT_EQ(ee.invocations(), 1u);
  EXPECT_EQ(ee.fuel_consumed(), 4u);
  EXPECT_EQ(acc.epoch_fuel_used(), 4u);
}

TEST(ExecutionEnv, RejectsWhenEpochBudgetLow) {
  ExecutionEnvironment ee(1, SecondLevelClass::kFiltering,
                          RoleBinding::kModal);
  ResourceQuota quota;
  quota.fuel_per_capsule = 1000;
  quota.fuel_per_epoch = 500;  // cannot admit even one full capsule
  ResourceAccountant acc(quota);
  vm::Environment host;
  auto program = vm::Assemble("p", "halt\n");
  EXPECT_EQ(ee.Execute(*program, host, acc).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ExecutionEnv, CountsFaults) {
  ExecutionEnvironment ee(1, SecondLevelClass::kFiltering,
                          RoleBinding::kAuxiliary);
  ResourceQuota quota;
  ResourceAccountant acc(quota);
  struct FailingEnv : vm::Environment {
    Result<std::int64_t> Invoke(vm::Syscall,
                                std::span<const std::int64_t>) override {
      return Status(PermissionDenied("no"));
    }
  } host;
  auto program = vm::Assemble("p", "sys node_id\nhalt\n");
  auto result = ee.Execute(*program, host, acc);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reason, vm::ExitReason::kFault);
  EXPECT_EQ(ee.faults(), 1u);
}

TEST(ExecutionEnv, ResidentLimit) {
  ExecutionEnvironment ee(1, SecondLevelClass::kBoosting,
                          RoleBinding::kAuxiliary);
  constexpr Digest kLimit = ExecutionEnvironment::kMaxResidentPrograms;
  for (Digest digest = 1; digest <= kLimit; ++digest) {
    EXPECT_TRUE(ee.AddResident(digest).ok());
  }
  EXPECT_TRUE(ee.AddResident(1).ok());  // duplicate is idempotent
  EXPECT_FALSE(ee.AddResident(kLimit + 1).ok());
  EXPECT_TRUE(ee.IsResident(1));
  EXPECT_FALSE(ee.IsResident(kLimit + 1));
}

// ---- Hardware plane ----

TEST(HardwarePlane, InstallConsumesGatesAndSlots) {
  HardwarePlane plane(10000, 2);
  HardwareModule m1{1, "filter", SecondLevelClass::kFiltering, 6000, 4.0, 0};
  auto latency = plane.Install(m1);
  ASSERT_TRUE(latency.ok());
  EXPECT_GT(*latency, 0u);
  EXPECT_EQ(plane.gates_used(), 6000u);

  HardwareModule m2{2, "big", SecondLevelClass::kBoosting, 6000, 2.0, 0};
  EXPECT_EQ(plane.Install(m2).status().code(),
            StatusCode::kResourceExhausted);  // gate budget

  HardwareModule m3{3, "small", SecondLevelClass::kBoosting, 1000, 2.0, 0};
  ASSERT_TRUE(plane.Install(m3).ok());
  HardwareModule m4{4, "tiny", SecondLevelClass::kCombining, 100, 2.0, 0};
  EXPECT_EQ(plane.Install(m4).status().code(),
            StatusCode::kResourceExhausted);  // slots
}

TEST(HardwarePlane, DuplicateIdRejected) {
  HardwarePlane plane(10000, 4);
  HardwareModule m{1, "x", SecondLevelClass::kFiltering, 100, 2.0, 0};
  ASSERT_TRUE(plane.Install(m).ok());
  EXPECT_EQ(plane.Install(m).status().code(), StatusCode::kAlreadyExists);
}

TEST(HardwarePlane, LatencyScalesWithGateCount) {
  HardwarePlane plane(1000000, 4);
  HardwareModule small{1, "s", SecondLevelClass::kFiltering, 1000, 2.0, 0};
  HardwareModule large{2, "l", SecondLevelClass::kBoosting, 100000, 2.0, 0};
  const auto ls = plane.Install(small);
  const auto ll = plane.Install(large);
  EXPECT_GT(*ll, *ls);
}

TEST(HardwarePlane, DarkSiliconUntilDriverActive) {
  // The 3G synchronization hazard: installed circuitry without its driver
  // gives no speedup.
  HardwarePlane plane(10000, 4);
  HardwareModule m{1, "xcode", SecondLevelClass::kTranscoding, 5000, 8.0,
                   /*driver_digest=*/0xabc};
  ASSERT_TRUE(plane.Install(m).ok());
  EXPECT_TRUE(plane.HasModuleFor(SecondLevelClass::kTranscoding));
  EXPECT_DOUBLE_EQ(plane.SpeedupFor(SecondLevelClass::kTranscoding), 1.0);

  // Wrong driver digest is refused.
  EXPECT_EQ(plane.ActivateDriver(1, 0xdef).code(),
            StatusCode::kPermissionDenied);
  ASSERT_TRUE(plane.ActivateDriver(1, 0xabc).ok());
  EXPECT_DOUBLE_EQ(plane.SpeedupFor(SecondLevelClass::kTranscoding), 8.0);
}

TEST(HardwarePlane, RemoveFreesGates) {
  HardwarePlane plane(10000, 4);
  HardwareModule m{1, "x", SecondLevelClass::kFiltering, 5000, 2.0, 0};
  ASSERT_TRUE(plane.Install(m).ok());
  ASSERT_TRUE(plane.Remove(1).ok());
  EXPECT_EQ(plane.gates_used(), 0u);
  EXPECT_EQ(plane.Remove(1).status().code(), StatusCode::kNotFound);
}

TEST(HardwarePlane, NetbotDockAddsOverhead) {
  HardwarePlane plane(100000, 4);
  Netbot bot;
  bot.module = {7, "bot", SecondLevelClass::kBoosting, 10000, 3.0, 0x1};
  const auto dock = plane.DockNetbot(bot);
  ASSERT_TRUE(dock.ok());
  HardwarePlane plane2(100000, 4);
  const auto plain = plane2.Install(bot.module);
  EXPECT_GT(*dock, *plain);
}

// ---- NodeOS ----

TEST(NodeOs, GenerationCapabilities) {
  const auto g1 = Capabilities::ForGeneration(1);
  EXPECT_TRUE(g1.ee_programmable);
  EXPECT_FALSE(g1.nodeos_programmable);
  EXPECT_FALSE(g1.hardware_reconfigurable);
  EXPECT_FALSE(g1.self_replicating);
  const auto g3 = Capabilities::ForGeneration(3);
  EXPECT_TRUE(g3.hardware_reconfigurable);
  EXPECT_FALSE(g3.self_replicating);
  const auto g4 = Capabilities::ForGeneration(4);
  EXPECT_TRUE(g4.self_replicating);
}

TEST(NodeOs, RoleSwitchMechanismLatencyOrdering) {
  NodeOs os(ResourceQuota{}, Capabilities::ForGeneration(4));
  const auto sw = os.RequestRoleSwitch(FirstLevelRole::kFusion,
                                       SwitchMechanism::kResidentSoftware);
  const auto code = os.RequestRoleSwitch(FirstLevelRole::kFission,
                                         SwitchMechanism::kTransportedCode);
  const auto hw = os.RequestRoleSwitch(FirstLevelRole::kCaching,
                                       SwitchMechanism::kHardwareReconfig);
  const auto bot = os.RequestRoleSwitch(FirstLevelRole::kDelegation,
                                        SwitchMechanism::kNetbotDock);
  ASSERT_TRUE(sw.ok() && code.ok() && hw.ok() && bot.ok());
  EXPECT_LT(*sw, *code);
  EXPECT_LT(*code, *hw);
  EXPECT_LT(*hw, *bot);
  EXPECT_EQ(os.role_switches(), 4u);
  EXPECT_EQ(os.current_role(), FirstLevelRole::kDelegation);
}

TEST(NodeOs, GenerationGatesHardwareSwitch) {
  NodeOs os(ResourceQuota{}, Capabilities::ForGeneration(2));
  EXPECT_EQ(os.RequestRoleSwitch(FirstLevelRole::kFusion,
                                 SwitchMechanism::kHardwareReconfig)
                .status()
                .code(),
            StatusCode::kUnimplemented);
  EXPECT_TRUE(os.RequestRoleSwitch(FirstLevelRole::kFusion,
                                   SwitchMechanism::kResidentSoftware)
                  .ok());
}

TEST(NodeOs, NextStepRegister) {
  NodeOs os(ResourceQuota{}, Capabilities::ForGeneration(4));
  os.set_next_step(FirstLevelRole::kFission);
  EXPECT_EQ(os.next_step(), FirstLevelRole::kFission);
}

TEST(NodeOs, EeRegistryOnePerClass) {
  NodeOs os(ResourceQuota{}, Capabilities::ForGeneration(4));
  auto& a = os.GetOrCreateEe(SecondLevelClass::kFiltering);
  auto& b = os.GetOrCreateEe(SecondLevelClass::kFiltering);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(os.ee_count(), 1u);
  os.GetOrCreateEe(SecondLevelClass::kBoosting);
  EXPECT_EQ(os.ee_count(), 2u);
  EXPECT_NE(os.FindEe(SecondLevelClass::kBoosting), nullptr);
  EXPECT_EQ(os.FindEe(SecondLevelClass::kTranscoding), nullptr);
}

TEST(NodeOs, ModalPromotionSticks) {
  NodeOs os(ResourceQuota{}, Capabilities::ForGeneration(4));
  auto& ee =
      os.GetOrCreateEe(SecondLevelClass::kFiltering, RoleBinding::kAuxiliary);
  EXPECT_EQ(ee.binding(), RoleBinding::kAuxiliary);
  os.GetOrCreateEe(SecondLevelClass::kFiltering, RoleBinding::kModal);
  EXPECT_EQ(ee.binding(), RoleBinding::kModal);
}

TEST(NodeOs, AdmitVerifiesAndAuthorizes) {
  NodeOs os(ResourceQuota{}, Capabilities::ForGeneration(2));
  auto good = vm::Assemble("good", "push 1\nhalt\n");
  EXPECT_TRUE(os.AdmitProgram(*good).ok());
  EXPECT_TRUE(os.code_cache().Contains(good->digest()));

  std::vector<vm::Instruction> bad_code = {{vm::Opcode::kAdd, 0}};
  EXPECT_FALSE(os.AdmitProgram(vm::Program("bad", bad_code)).ok());

  os.set_authorizer([](const vm::Program& p) -> Status {
    if (p.name() == "banned") return PermissionDenied("policy");
    return OkStatus();
  });
  auto banned = vm::Assemble("banned", "push 1\nhalt\n");
  EXPECT_EQ(os.AdmitProgram(*banned).status().code(),
            StatusCode::kPermissionDenied);
}

TEST(NodeOs, LegacyNodeRefusesCode) {
  Capabilities caps = Capabilities::ForGeneration(1);
  caps.ee_programmable = false;  // pre-active legacy node
  NodeOs os(ResourceQuota{}, caps);
  auto program = vm::Assemble("p", "halt\n");
  EXPECT_EQ(os.AdmitProgram(*program).status().code(),
            StatusCode::kUnimplemented);
}

TEST(NodeOs, NetbotDockFullTransaction) {
  NodeOs os(ResourceQuota{}, Capabilities::ForGeneration(3));
  auto driver = vm::Assemble("driver", "push 1\nhalt\n");
  Netbot bot;
  bot.module = {9, "fec-bot", SecondLevelClass::kBoosting, 8000, 5.0,
                driver->digest()};
  bot.driver_image = driver->Serialize();
  auto latency = os.DockNetbot(bot);
  ASSERT_TRUE(latency.ok()) << latency.status().ToString();
  // Module installed, driver resident, speedup active.
  EXPECT_TRUE(os.code_cache().Contains(driver->digest()));
  EXPECT_DOUBLE_EQ(os.hardware().SpeedupFor(SecondLevelClass::kBoosting),
                   5.0);
}

TEST(NodeOs, NetbotNeedsGen3) {
  NodeOs os(ResourceQuota{}, Capabilities::ForGeneration(2));
  auto driver = vm::Assemble("driver", "halt\n");
  Netbot bot;
  bot.module = {9, "bot", SecondLevelClass::kBoosting, 8000, 5.0,
                driver->digest()};
  bot.driver_image = driver->Serialize();
  EXPECT_EQ(os.DockNetbot(bot).status().code(), StatusCode::kUnimplemented);
}

TEST(NodeOs, NetbotCorruptDriverRejected) {
  NodeOs os(ResourceQuota{}, Capabilities::ForGeneration(3));
  Netbot bot;
  bot.module = {9, "bot", SecondLevelClass::kBoosting, 8000, 5.0, 0x1};
  bot.driver_image = {std::byte{0x01}, std::byte{0x02}};
  EXPECT_FALSE(os.DockNetbot(bot).ok());
}

}  // namespace
}  // namespace viator::node
