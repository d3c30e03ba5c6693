#include "node/execution_env.h"

#include <algorithm>

namespace viator::node {

Status ExecutionEnvironment::AddResident(Digest digest) {
  if (IsResident(digest)) return OkStatus();
  if (residents_.size() >= kMaxResidentPrograms) {
    return ResourceExhausted("resident program limit reached");
  }
  residents_.push_back(digest);
  return OkStatus();
}

bool ExecutionEnvironment::IsResident(Digest digest) const {
  return std::find(residents_.begin(), residents_.end(), digest) !=
         residents_.end();
}

Result<vm::ExecutionResult> ExecutionEnvironment::Execute(
    const vm::Program& program, vm::Environment& host,
    ResourceAccountant& accountant, std::span<const std::int64_t> args) {
  const std::uint64_t budget = accountant.quota().fuel_per_capsule;
  // Admission requires headroom for a full capsule budget; the actual charge
  // afterwards is what the run consumed.
  if (accountant.epoch_fuel_used() + budget >
      accountant.quota().fuel_per_epoch) {
    return Status(ResourceExhausted("epoch fuel budget exhausted"));
  }
  vm::ExecutionResult result = interpreter_.Run(program, host, budget, args);
  (void)accountant.ChargeFuel(result.fuel_used);
  ++invocations_;
  fuel_consumed_ += result.fuel_used;
  if (result.reason == vm::ExitReason::kFault) ++faults_;
  return result;
}

}  // namespace viator::node
