// Failure injection for the self-healing experiments (FTPDS context).
//
// Deterministic one-shot failures (link X down at t, up at t+d) and a
// stochastic MTBF/MTTR process over all links. Node failures take every
// incident link down atomically.
#pragma once

#include <cstdint>
#include <functional>

#include "base/rng.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace viator::net {

class FailureInjector {
 public:
  FailureInjector(sim::Simulator& simulator, Topology& topology, Rng rng);

  /// Takes `link` down at `at`, restoring it after `outage` (0 = forever).
  void FailLink(LinkId link, sim::TimePoint at, sim::Duration outage);

  /// Takes `node` (all incident links) down at `at` for `outage`.
  void FailNode(NodeId node, sim::TimePoint at, sim::Duration outage);

  /// Starts a stochastic process: each link independently fails with
  /// exponential inter-failure time `mtbf` and repairs after exponential
  /// `mttr`, until `until`.
  void StartRandomLinkFailures(sim::Duration mtbf, sim::Duration mttr,
                               sim::TimePoint until);

  /// Observer invoked on each state change (kind: "link"/"node", id, up?).
  using Observer =
      std::function<void(const char* kind, std::uint32_t id, bool up)>;
  void set_observer(Observer fn) { observer_ = std::move(fn); }

  std::uint64_t failures_injected() const { return failures_injected_; }

  /// Snapshot fields (genesis FailureInjectorAdapter): the failure-process
  /// RNG stream and the injection counter.
  template <class A>
  void Visit(A& a) {
    a.Record(0x01, rng_);
    a.U64(0x02, failures_injected_);
  }

 private:
  void ScheduleLinkCycle(LinkId link, sim::TimePoint until,
                         sim::Duration mtbf, sim::Duration mttr);
  void Notify(const char* kind, std::uint32_t id, bool up);

  sim::Simulator& simulator_;
  Topology& topology_;
  Rng rng_;
  Observer observer_;
  std::uint64_t failures_injected_ = 0;
};

}  // namespace viator::net
