#include "node/node_os.h"

#include "vm/verifier.h"

namespace viator::node {

namespace {

// The reconfigurable hardware plane every node carries.
constexpr std::uint32_t kHardwareGates = 100000;
constexpr std::uint32_t kHardwareSlots = 8;

}  // namespace

Capabilities Capabilities::ForGeneration(int generation) {
  Capabilities caps;
  caps.ee_programmable = generation >= 1;
  caps.nodeos_programmable = generation >= 2;
  caps.hardware_reconfigurable = generation >= 3;
  caps.self_replicating = generation >= 4;
  return caps;
}

NodeOs::NodeOs(const ResourceQuota& quota, const Capabilities& caps)
    : caps_(caps),
      accountant_(quota),
      code_cache_(quota.code_cache_bytes),
      hardware_(kHardwareGates, kHardwareSlots) {}

sim::Duration NodeOs::SwitchLatency(SwitchMechanism mechanism) const {
  const ReconfigTiming& t = hardware_.timing();
  switch (mechanism) {
    case SwitchMechanism::kResidentSoftware:
      // Flip the dispatch table to an already-resident function.
      return 50 * sim::kMicrosecond;
    case SwitchMechanism::kTransportedCode:
      // Code already arrived (transfer time is the network's); admission,
      // verification and EE binding dominate.
      return 300 * sim::kMicrosecond;
    case SwitchMechanism::kHardwareReconfig:
      // Partial reconfiguration of a nominal 20-kilogate region.
      return t.base_latency + t.per_kilogate * 20;
    case SwitchMechanism::kNetbotDock:
      return t.base_latency + t.per_kilogate * 20 + t.netbot_dock_overhead;
  }
  return sim::kMillisecond;
}

Result<sim::Duration> NodeOs::RequestRoleSwitch(FirstLevelRole role,
                                                SwitchMechanism mechanism) {
  switch (mechanism) {
    case SwitchMechanism::kResidentSoftware:
      break;  // every generation supports activating resident functions
    case SwitchMechanism::kTransportedCode:
      if (!caps_.ee_programmable) {
        return Status(Unimplemented("EE programmability not available"));
      }
      break;
    case SwitchMechanism::kHardwareReconfig:
    case SwitchMechanism::kNetbotDock:
      if (!caps_.hardware_reconfigurable) {
        return Status(
            Unimplemented("hardware reconfiguration needs a 3G+ node"));
      }
      break;
  }
  current_role_ = role;
  ++role_switches_;
  return SwitchLatency(mechanism);
}

ExecutionEnvironment& NodeOs::GetOrCreateEe(SecondLevelClass cls,
                                            RoleBinding binding) {
  auto it = ees_.find(cls);
  if (it == ees_.end()) {
    it = ees_.emplace(cls, std::make_unique<ExecutionEnvironment>(
                               next_ee_id_++, cls, binding))
             .first;
  } else if (binding == RoleBinding::kModal) {
    // Promoting an auxiliary EE to modal is allowed (role became resident).
    it->second->set_binding(RoleBinding::kModal);
  }
  return *it->second;
}

ExecutionEnvironment* NodeOs::FindEe(SecondLevelClass cls) {
  const auto it = ees_.find(cls);
  return it == ees_.end() ? nullptr : it->second.get();
}

Result<Digest> NodeOs::AdmitProgram(const vm::Program& program) {
  if (!caps_.ee_programmable) {
    return Status(Unimplemented("node does not accept mobile code"));
  }
  auto verified = vm::Verify(program);
  if (!verified.ok()) return verified.status();
  if (authorizer_) {
    if (Status s = authorizer_(program); !s.ok()) return s;
  }
  if (Status s = code_cache_.Put(program); !s.ok()) return s;
  return program.digest();
}

Result<sim::Duration> NodeOs::DockNetbot(const Netbot& netbot) {
  if (!caps_.hardware_reconfigurable) {
    return Status(Unimplemented("netbot docking needs a 3G+ node"));
  }
  auto driver = vm::Program::Deserialize(netbot.driver_image);
  if (!driver.ok()) return driver.status();
  auto admitted = AdmitProgram(*driver);
  if (!admitted.ok()) return admitted.status();
  auto dock = hardware_.DockNetbot(netbot);
  if (!dock.ok()) return dock.status();
  if (Status s = hardware_.ActivateDriver(netbot.module.module_id, *admitted);
      !s.ok()) {
    return s;
  }
  return *dock;
}

}  // namespace viator::node
