// The NodeOS: per-ship operating system layer.
//
// Owns the resource accountant, the code cache, the EE registry, the
// hardware plane and the role state (current modal role + the Next-Step
// register of Figure 2). Capability gating implements the four Wandering
// Network generations of §B: what a node may reconfigure depends on its
// generation, which is the knob the E12 ablation sweeps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "node/execution_env.h"
#include "node/hardware_plane.h"
#include "node/profile.h"
#include "node/resources.h"
#include "sim/time.h"
#include "vm/code_repository.h"
#include "vm/program.h"

namespace viator::node {

/// What a node of a given WN generation is allowed to do (paper §B).
struct Capabilities {
  bool ee_programmable = true;        // 1G+: programmable at the EE layer
  bool nodeos_programmable = false;   // 2G+: NodeOS-level programmability
  bool hardware_reconfigurable = false;  // 3G+: gate-level reconfiguration
  bool self_replicating = false;      // 4G: adaptive self-distribution

  /// Capability set for generation 1..4.
  static Capabilities ForGeneration(int generation);
};

class NodeOs {
 public:
  NodeOs(const ResourceQuota& quota, const Capabilities& caps);

  const Capabilities& capabilities() const { return caps_; }

  // ---- Role state (Figure 2) ----

  FirstLevelRole current_role() const { return current_role_; }

  /// The Next-Step register: "an internal programmable switch which stores
  /// the next node role to come. It is a standard module for each ship."
  FirstLevelRole next_step() const { return next_step_; }
  void set_next_step(FirstLevelRole role) { next_step_ = role; }

  /// Switches the modal role via the given mechanism. Enforces generation
  /// gating (e.g. hardware reconfig needs a 3G+ node) and the single-modal-
  /// function postulate. Returns the switch latency; the caller (ship) is
  /// responsible for scheduling the completion on the simulator.
  Result<sim::Duration> RequestRoleSwitch(FirstLevelRole role,
                                          SwitchMechanism mechanism);

  std::uint64_t role_switches() const { return role_switches_; }

  // ---- Execution environments ----

  /// The registry EE for a class, created on first use. Figure 2: one EE per
  /// function, modal functions prioritized.
  ExecutionEnvironment& GetOrCreateEe(SecondLevelClass cls,
                                      RoleBinding binding = RoleBinding::kAuxiliary);

  /// EE lookup without creation (nullptr when absent).
  ExecutionEnvironment* FindEe(SecondLevelClass cls);
  std::size_t ee_count() const { return ees_.size(); }

  /// Snapshot fields, first half (inlined in a ship's genesis record, tags
  /// 0x0A-0x10, before the ship's facts): role state and resource usage. A
  /// load sets the roles without the gating or latency of a real switch.
  template <class A>
  void VisitRoleState(A& a) {
    a.Enum(0x0A, current_role_, FirstLevelRole::kRoleCount, "first-level role");
    a.Enum(0x0B, next_step_, FirstLevelRole::kRoleCount, "first-level role");
    a.U64(0x0C, role_switches_);
    accountant_.Visit(a);
  }

  /// Snapshot fields, second half (tags 0x17-0x1C, after the ship's facts,
  /// functions and congruence): code cache, EEs in id order and the
  /// hardware plane. A load recreates each EE and checks that it gets its
  /// captured id back.
  template <class A>
  void VisitCodeState(A& a) {
    code_cache_.Visit(a);
    if constexpr (A::kLoading) {
      a.Records(0x1A, [&](auto& record) {
        std::uint32_t id = 0;
        SecondLevelClass cls = SecondLevelClass::kSupplementary;
        RoleBinding binding = RoleBinding::kAuxiliary;
        record.U32(0x01, id);
        record.Enum(0x02, cls, SecondLevelClass::kClassCount,
                    "second-level class");
        record.Enum(0x03, binding, kRoleBindingCount, "EE binding");
        if (!record.ok()) return;
        ExecutionEnvironment& ee = GetOrCreateEe(cls, binding);
        if (ee.id() != id) {
          record.Fail(Internal("EE id mismatch on restore (snapshot id " +
                               std::to_string(id) + ", recreated id " +
                               std::to_string(ee.id()) + ")"));
          return;
        }
        ee.set_binding(binding);
        ee.Visit(record);
      });
    } else {
      std::vector<ExecutionEnvironment*> by_id;
      for (const auto& [cls, ee] : ees_) by_id.push_back(ee.get());
      std::sort(by_id.begin(), by_id.end(), [](const auto* x, const auto* y) {
        return x->id() < y->id();
      });
      a.Each(0x1A, by_id, [](auto& r, ExecutionEnvironment* ee) {
        ee->Visit(r);
      });
    }
    hardware_.Visit(a);
  }

  // ---- Code admission ----

  /// Optional security policy consulted before any code is admitted
  /// (capsule authorization lives in services/security and hooks in here).
  using Authorizer = std::function<Status(const vm::Program&)>;
  void set_authorizer(Authorizer authorizer) {
    authorizer_ = std::move(authorizer);
  }

  /// Verifies, authorizes and caches a program arriving by shuttle.
  /// 1G nodes only admit code when `ee_programmable`.
  Result<Digest> AdmitProgram(const vm::Program& program);

  vm::CodeCache& code_cache() { return code_cache_; }
  const vm::CodeCache& code_cache() const { return code_cache_; }
  HardwarePlane& hardware() { return hardware_; }
  const HardwarePlane& hardware() const { return hardware_; }
  ResourceAccountant& resources() { return accountant_; }
  const ResourceAccountant& resources() const { return accountant_; }

  /// Docks a netbot: installs its module, admits the carried driver, then
  /// activates the module (one transaction, per the paper's "docking time").
  Result<sim::Duration> DockNetbot(const Netbot& netbot);

 private:
  sim::Duration SwitchLatency(SwitchMechanism mechanism) const;

  Capabilities caps_;
  ResourceAccountant accountant_;
  vm::CodeCache code_cache_;
  HardwarePlane hardware_;
  Authorizer authorizer_;
  std::map<SecondLevelClass, std::unique_ptr<ExecutionEnvironment>> ees_;
  std::uint32_t next_ee_id_ = 1;
  FirstLevelRole current_role_ = FirstLevelRole::kCaching;
  FirstLevelRole next_step_ = FirstLevelRole::kCaching;
  std::uint64_t role_switches_ = 0;
};

}  // namespace viator::node
