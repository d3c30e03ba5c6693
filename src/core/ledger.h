// Function usage statistics (§E): "functions can change their hosts,
// wander and settle down in other hosts, thus creating a valuable
// statistics about the frequency of usage of wandering functions in the
// network. The results obtained after a careful evaluation of this data can
// be used for the design of new network architectures and topologies."
//
// FunctionUsageLedger is that statistics store: a per-function history of
// host episodes (who hosted it, from when to when, how often it was used
// there). The WanderingNetwork records placements automatically; services
// report uses. Benches and the pulse read dwell times, visit counts and
// per-host usage distributions out of it.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/knowledge.h"
#include "net/types.h"
#include "sim/time.h"

namespace viator::wli {

class FunctionUsageLedger {
 public:
  struct Episode {
    net::NodeId host = net::kInvalidNode;
    sim::TimePoint from = 0;
    sim::TimePoint to = 0;  // 0 while open (function still hosted there)
    std::uint64_t uses = 0;
  };

  /// Records that `function` is now hosted at `host` (closes any open
  /// episode). Idempotent for repeated placement at the same host.
  void RecordPlacement(FunctionId function, net::NodeId host,
                       sim::TimePoint now);

  /// Records the function's removal/expiry (closes the open episode).
  void RecordRemoval(FunctionId function, sim::TimePoint now);

  /// Counts one use of the function at its current host.
  void RecordUse(FunctionId function);

  // ---- Evaluation queries ----

  const std::vector<Episode>* EpisodesOf(FunctionId function) const;

  /// Number of host changes (episodes - 1; 0 when unknown).
  std::size_t VisitCount(FunctionId function) const;

  /// Total uses across all episodes.
  std::uint64_t TotalUses(FunctionId function) const;

  /// Mean episode length; the open episode is measured up to `now`.
  sim::Duration MeanDwell(FunctionId function, sim::TimePoint now) const;

  /// The host that served the most uses (kInvalidNode when unknown).
  net::NodeId MostUsedHost(FunctionId function) const;

  /// Per-host total usage across all tracked functions (the "evaluation"
  /// input for designing new topologies: where does work actually happen).
  std::map<net::NodeId, std::uint64_t> UsageByHost() const;

  std::size_t tracked_functions() const { return history_.size(); }

  /// Snapshot fields (the genesis ledger section): every function's
  /// episodes.
  template <class A>
  void Visit(A& a) {
    a.Each(0x01, history_, [](auto& r, auto& function, auto& episodes) {
      r.U64(0x01, function);
      r.Each(0x02, episodes, [](auto& n, auto& episode) {
        n.U64(0x01, episode.host);
        n.U64(0x02, episode.from);
        n.U64(0x03, episode.to);
        n.U64(0x04, episode.uses);
      });
    });
  }

 private:
  std::map<FunctionId, std::vector<Episode>> history_;
};

}  // namespace viator::wli
