// The simulated reconfigurable hardware plane of a ship (3G WN capability).
//
// The paper's 3G Wandering Network requires "runtime exchange of switching
// circuitry (plug-and-play modules) synchronized by driver updates in the
// node operating system". We model an FPGA-like fabric with a gate budget
// and module slots. Installing a module costs a partial-reconfiguration
// latency proportional to its gate count; a module only becomes *active*
// once its driver program (referenced by digest) is resident — installing
// circuitry without the driver leaves it dark, which is exactly the
// synchronization hazard the paper calls out.
//
// Netbots are autonomous mobile hardware components that arrive carrying
// their own driver ("delivering their own driver routines at docking time"):
// docking is module installation + driver hand-off as one transaction.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "node/profile.h"
#include "sim/time.h"

namespace viator::node {

/// A pluggable hardware module: accelerates one second-level class.
struct HardwareModule {
  std::uint32_t module_id = 0;
  std::string name;
  SecondLevelClass accelerates = SecondLevelClass::kSupplementary;
  std::uint32_t gate_count = 10000;
  double speedup = 4.0;          // service-time divisor vs software
  Digest driver_digest = 0;      // required driver program
};

/// An autonomous mobile hardware component plus the driver it carries.
struct Netbot {
  HardwareModule module;
  std::vector<std::byte> driver_image;  // serialized driver program
};

/// Reconfiguration timing model.
struct ReconfigTiming {
  sim::Duration base_latency = 2 * sim::kMillisecond;
  sim::Duration per_kilogate = 100 * sim::kMicrosecond;  // per 1000 gates
  sim::Duration netbot_dock_overhead = 5 * sim::kMillisecond;
};

class HardwarePlane {
 public:
  HardwarePlane(std::uint32_t total_gates, std::uint32_t slots,
                const ReconfigTiming& timing = {})
      : total_gates_(total_gates), slots_(slots), timing_(timing) {}

  /// Installs a module (circuitry only). Fails on gate/slot exhaustion or
  /// duplicate id. Returns the reconfiguration latency the caller must wait
  /// before the slot is usable.
  Result<sim::Duration> Install(const HardwareModule& module);

  /// Removes a module, freeing its gates. Latency is half an install.
  Result<sim::Duration> Remove(std::uint32_t module_id);

  /// Marks the driver for `module_id` resident (NodeOS confirmed the driver
  /// program is in the code cache). Only then does the module accelerate.
  Status ActivateDriver(std::uint32_t module_id, Digest resident_driver);

  /// Effective speedup for a class: the best *active* module, else 1.0.
  double SpeedupFor(SecondLevelClass cls) const;

  /// True when a module exists (installed) for the class, active or dark.
  bool HasModuleFor(SecondLevelClass cls) const;

  /// Module by id (nullptr if absent); exposes activation state.
  struct Slot {
    HardwareModule module;
    bool driver_active = false;
  };
  const Slot* FindModule(std::uint32_t module_id) const;
  const std::vector<Slot>& slots() const { return occupied_; }

  std::uint32_t gates_used() const { return gates_used_; }
  std::uint32_t total_gates() const { return total_gates_; }
  const ReconfigTiming& timing() const { return timing_; }

  /// Full dock latency for a netbot (install + dock overhead). The caller
  /// installs the driver into the code cache and then ActivateDriver()s.
  Result<sim::Duration> DockNetbot(const Netbot& netbot);

  std::uint64_t reconfigurations() const { return reconfigurations_; }

  /// Snapshot fields (inlined in a ship's genesis record, tags 0x1B-0x1C):
  /// every installed module with its activation flag, then the
  /// reconfiguration counter. A load replays Install/ActivateDriver, so
  /// gate and slot checks apply, before the counter overwrites what the
  /// replay counted.
  template <class A>
  void Visit(A& a) {
    a.Each(
        0x1B, occupied_,
        [](auto& r, auto& slot) {
          r.U32(0x01, slot.module.module_id);
          r.Str(0x02, slot.module.name);
          r.Enum(0x03, slot.module.accelerates, SecondLevelClass::kClassCount,
                 "second-level class");
          r.U32(0x04, slot.module.gate_count);
          r.F64(0x05, slot.module.speedup);
          r.U64(0x06, slot.module.driver_digest);
          r.Bool(0x07, slot.driver_active);
        },
        [this](auto& r, Slot& slot) {
          const auto installed = Install(slot.module);
          if (!installed.ok()) {
            r.Fail(installed.status());
          } else if (slot.driver_active) {
            r.Check(ActivateDriver(slot.module.module_id,
                                   slot.module.driver_digest));
          }
        });
    a.U64(0x1C, reconfigurations_);
  }

 private:
  sim::Duration InstallLatency(std::uint32_t gates) const;

  std::uint32_t total_gates_;
  std::uint32_t slots_;
  ReconfigTiming timing_;
  std::uint32_t gates_used_ = 0;
  std::vector<Slot> occupied_;
  std::uint64_t reconfigurations_ = 0;
};

}  // namespace viator::node
