#include "node/resources.h"

namespace viator::node {

Status ResourceAccountant::ChargeFuel(std::uint64_t fuel) {
  if (epoch_fuel_used_ + fuel > quota_.fuel_per_epoch) {
    return ResourceExhausted("epoch fuel budget exhausted");
  }
  epoch_fuel_used_ += fuel;
  total_fuel_used_ += fuel;
  return OkStatus();
}

Status ResourceAccountant::ChargeMemory(std::uint64_t bytes) {
  if (memory_used_ + bytes > kMemoryBytes) {
    return ResourceExhausted("memory quota exhausted");
  }
  memory_used_ += bytes;
  return OkStatus();
}

void ResourceAccountant::ReleaseMemory(std::uint64_t bytes) {
  memory_used_ = bytes > memory_used_ ? 0 : memory_used_ - bytes;
}

Status ResourceAccountant::AcquirePendingSlot() {
  if (pending_shuttles_ >= kMaxPendingShuttles) {
    return ResourceExhausted("pending shuttle queue full");
  }
  ++pending_shuttles_;
  return OkStatus();
}

void ResourceAccountant::ReleasePendingSlot() {
  if (pending_shuttles_ > 0) --pending_shuttles_;
}

}  // namespace viator::node
