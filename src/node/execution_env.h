// Execution environments (EEs).
//
// Figure 2 assigns each function "a single registry execution environment".
// An EE owns the resident programs for one second-level class, runs verified
// code through the shared interpreter under the ship's fuel quota, and keeps
// per-EE usage statistics. Modal EEs preempt auxiliary ones when the NodeOS
// dispatches (modal functions "prioritized for access").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "node/profile.h"
#include "node/resources.h"
#include "vm/code_repository.h"
#include "vm/interpreter.h"

namespace viator::node {

class ExecutionEnvironment {
 public:
  /// Programs one EE may hold resident.
  static constexpr std::uint32_t kMaxResidentPrograms = 64;

  ExecutionEnvironment(std::uint32_t id, SecondLevelClass cls,
                       RoleBinding binding)
      : id_(id), cls_(cls), binding_(binding) {}

  std::uint32_t id() const { return id_; }
  SecondLevelClass function_class() const { return cls_; }
  RoleBinding binding() const { return binding_; }
  void set_binding(RoleBinding binding) { binding_ = binding; }

  /// Registers a resident program (by digest; storage is the ship's cache).
  Status AddResident(Digest digest);
  bool IsResident(Digest digest) const;
  const std::vector<Digest>& residents() const { return residents_; }

  /// Runs `program` under this EE: charges fuel to `accountant` (whatever
  /// the run actually consumed, capped by the per-capsule quota) and counts
  /// the invocation. Returns the VM result; a fuel-quota rejection surfaces
  /// as kResourceExhausted before execution.
  Result<vm::ExecutionResult> Execute(const vm::Program& program,
                                      vm::Environment& host,
                                      ResourceAccountant& accountant,
                                      std::span<const std::int64_t> args = {});

  std::uint64_t invocations() const { return invocations_; }
  std::uint64_t faults() const { return faults_; }
  std::uint64_t fuel_consumed() const { return fuel_consumed_; }

  /// Snapshot fields (one EE record in a ship's genesis record). A load
  /// starts after id, class and binding: the NodeOS reads those itself to
  /// recreate the EE first. Residents re-register under the quota.
  template <class A>
  void Visit(A& a) {
    if constexpr (A::kLoading) {
      std::vector<Digest> residents;
      a.Repeated(0x04, residents);
      for (Digest digest : residents) {
        if (a.ok()) a.Check(AddResident(digest));
      }
    } else {
      a.U32(0x01, id_);
      a.Enum(0x02, cls_, SecondLevelClass::kClassCount, "second-level class");
      a.Enum(0x03, binding_, kRoleBindingCount, "EE binding");
      a.Repeated(0x04, residents_);
    }
    a.U64(0x05, invocations_);
    a.U64(0x06, faults_);
    a.U64(0x07, fuel_consumed_);
  }

 private:
  std::uint32_t id_;
  SecondLevelClass cls_;
  RoleBinding binding_;
  std::vector<Digest> residents_;
  vm::Interpreter interpreter_;
  std::uint64_t invocations_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t fuel_consumed_ = 0;
};

}  // namespace viator::node
