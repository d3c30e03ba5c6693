// Supplementary services (§D): "adding new features to the packets without
// altering, but depending on, their contents, e.g. content-based buffering."
//
// ContentBuffer holds data shuttles whose leading payload word matches a
// predicate value until either `kBatchSize` matching shuttles accumulated or
// `kTimeout` passed, then releases them to their destination in one burst —
// trading latency for downstream burst efficiency (and giving the E2/E3
// workload one more distinct second-level class to exercise).
#pragma once

#include <cstdint>
#include <vector>

#include "core/wandering_network.h"

namespace viator::services {

class ContentBuffer {
 public:
  struct Config {
    net::NodeId sink = net::kInvalidNode;
    std::int64_t match_tag = 0;       // buffer shuttles whose payload[0] == tag
  };

  /// Held shuttles that release a batch at once.
  static constexpr std::size_t kBatchSize = 8;
  /// Longest a held shuttle waits for its batch to fill.
  static constexpr sim::Duration kTimeout = 100 * sim::kMillisecond;

  ContentBuffer(wli::WanderingNetwork& network, net::NodeId node,
                const Config& config);

  std::uint64_t buffered_total() const { return buffered_total_; }
  std::uint64_t batches_released() const { return batches_released_; }
  std::uint64_t passed_through() const { return passed_through_; }

 private:
  void OnShuttle(wli::Ship& ship, const wli::Shuttle& shuttle);
  void Release();

  wli::WanderingNetwork& network_;
  net::NodeId node_;
  Config config_;
  std::vector<wli::Shuttle> held_;
  sim::EventHandle timeout_event_;
  std::uint64_t buffered_total_ = 0;
  std::uint64_t batches_released_ = 0;
  std::uint64_t passed_through_ = 0;
};

}  // namespace viator::services
