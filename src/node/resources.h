// NodeOS resource accounting.
//
// "Since each active node controls its own resources" (§C, MFP) — each ship
// enforces quotas on CPU fuel, memory, and shuttle-queue occupancy. The
// accountant is pure bookkeeping: callers charge/release and get a Status.
#pragma once

#include <cstdint>

#include "base/status.h"

namespace viator::node {

struct ResourceQuota {
  std::uint64_t fuel_per_capsule = 100000;    // VM fuel per shuttle execution
  std::uint64_t fuel_per_epoch = 10'000'000;  // aggregate CPU budget per epoch
  std::uint64_t code_cache_bytes = 64 << 10;  // resident program bytes
};

class ResourceAccountant {
 public:
  /// Resident memory quota (fact store + resident data).
  static constexpr std::uint64_t kMemoryBytes = 1 << 20;
  /// Pending-shuttle slots (waiting for code / EE slot).
  static constexpr std::uint32_t kMaxPendingShuttles = 256;

  explicit ResourceAccountant(const ResourceQuota& quota) : quota_(quota) {}

  const ResourceQuota& quota() const { return quota_; }

  /// Charges `fuel` against the epoch budget.
  Status ChargeFuel(std::uint64_t fuel);

  /// Resets the epoch fuel counter (called by the NodeOS epoch timer).
  void BeginEpoch() { epoch_fuel_used_ = 0; }

  /// Charges/releases resident memory.
  Status ChargeMemory(std::uint64_t bytes);
  void ReleaseMemory(std::uint64_t bytes);

  /// Pending-shuttle slots (code-wait queue).
  Status AcquirePendingSlot();
  void ReleasePendingSlot();

  std::uint64_t epoch_fuel_used() const { return epoch_fuel_used_; }
  std::uint64_t total_fuel_used() const { return total_fuel_used_; }
  std::uint64_t memory_used() const { return memory_used_; }
  std::uint32_t pending_shuttles() const { return pending_shuttles_; }

  /// Snapshot fields (inlined in a ship's genesis record, tags 0x0D-0x10).
  template <class A>
  void Visit(A& a) {
    a.U64(0x0D, epoch_fuel_used_);
    a.U64(0x0E, total_fuel_used_);
    a.U64(0x0F, memory_used_);
    a.U32(0x10, pending_shuttles_);
  }

 private:
  ResourceQuota quota_;
  std::uint64_t epoch_fuel_used_ = 0;
  std::uint64_t total_fuel_used_ = 0;
  std::uint64_t memory_used_ = 0;
  std::uint32_t pending_shuttles_ = 0;
};

}  // namespace viator::node
