// The role taxonomy of Figure 2: a ship's internal organization.
//
// First-Level Profiling = the capsule mechanism classes of Wetherall &
// Tennenhouse (Fusion, Fission, Caching, Delegation) plus Viator's two
// additions (Replication, Next-Step). Second-Level Profiling = the protocol
// classes of Kulkarni & Minden, with Security and Network Management merged
// into one class and Boosting added, exactly as §D describes. Each function
// is bound to one registry execution environment; modal (resident) functions
// have dispatch priority over auxiliary (transported) ones.
#pragma once

#include <cstdint>
#include <string_view>

namespace viator::node {

/// First-Level Profiling roles. The paper postulates one active modal role
/// per ship at a time ("each active node can be assigned exactly one single
/// function at a time").
enum class FirstLevelRole : std::uint8_t {
  kFusion = 0,    // deliver less data than received (filtering/merging)
  kFission,       // deliver more data than received (multicast)
  kCaching,       // store incoming data for later requests
  kDelegation,    // perform tasks on behalf of another node
  kReplication,   // packet/function replication (Viator addition)
  kNextStep,      // ship state register: which role comes next (Viator)
  kRoleCount,
};

/// Second-Level Profiling protocol classes.
enum class SecondLevelClass : std::uint8_t {
  kFiltering = 0,          // cf. fusion
  kCombining,              // cf. fission
  kTranscoding,            // content transformation
  kSecurityManagement,     // merged security + network management class
  kBoosting,               // protocol boosters (Viator addition)
  kRoutingPropagation,     // routing control + function propagation
  kSupplementary,          // content-dependent auxiliary features
  kClassCount,
};

/// Generic ship roles (paper footnote 21): every function specializes one.
enum class ShipClass : std::uint8_t { kServer = 0, kClient, kAgent };
inline constexpr ShipClass kShipClassCount = ShipClass{3};

/// How a function is bound on a ship.
enum class RoleBinding : std::uint8_t {
  kModal,      // resident, default service, priority access to its EE
  kAuxiliary,  // optional, transported/installed via shuttles
};
inline constexpr RoleBinding kRoleBindingCount = RoleBinding{2};

/// How a role switch is realized — determines its latency (experiment E3).
enum class SwitchMechanism : std::uint8_t {
  kResidentSoftware,  // activate already-resident code
  kTransportedCode,   // install code that arrived by shuttle
  kHardwareReconfig,  // reconfigure the hardware plane
  kNetbotDock,        // plug-and-play hardware module + driver hand-off
};

std::string_view FirstLevelRoleName(FirstLevelRole role);
std::string_view SecondLevelClassName(SecondLevelClass cls);
std::string_view ShipClassName(ShipClass cls);
std::string_view SwitchMechanismName(SwitchMechanism mechanism);

/// The natural second-level class implementing a first-level role (used when
/// wandering instantiates a role without an explicit class choice).
SecondLevelClass DefaultClassFor(FirstLevelRole role);

}  // namespace viator::node
