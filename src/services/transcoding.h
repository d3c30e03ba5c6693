// Transcoding: "transforming user data / content into another form" (§D),
// used by the paper for "congestion control and local, feedback-enabled
// content-, user- and resource-dependent QoS management".
//
// The transcoder relays media shuttles toward a sink at a quality level
// q ∈ [kMinQuality, 1]: the forwarded payload keeps ceil(q · n) of the n
// media words. q is governed by an AIMD regulator fed from the per-session
// feedback dimension — the transcoder publishes its own egress backlog and
// reacts to congestion signals, closing the MFP loop.
#pragma once

#include <cstdint>

#include "core/mfp.h"
#include "core/wandering_network.h"

namespace viator::services {

class TranscodingService {
 public:
  struct Config {
    net::NodeId sink = net::kInvalidNode;
    /// Egress backlog (bytes) above which the service reports congestion.
    std::uint64_t congestion_backlog_bytes = 32 * 1024;
  };

  TranscodingService(wli::WanderingNetwork& network, net::NodeId node,
                     const Config& config);
  ~TranscodingService();

  double quality() const { return quality_.rate(); }
  std::uint64_t media_in_words() const { return words_in_; }
  std::uint64_t media_out_words() const { return words_out_; }
  std::uint64_t congestion_events() const { return congestion_events_; }

 private:
  // Quality starts at full rate and never drops below the floor.
  static constexpr double kInitialQuality = 1.0;
  static constexpr double kMinQuality = 0.25;

  void OnShuttle(wli::Ship& ship, const wli::Shuttle& shuttle);

  wli::WanderingNetwork& network_;
  net::NodeId node_;
  Config config_;
  wli::AimdRate quality_;
  wli::FeedbackBus::SubscriptionId subscription_ = 0;
  std::uint64_t words_in_ = 0;
  std::uint64_t words_out_ = 0;
  std::uint64_t congestion_events_ = 0;
};

}  // namespace viator::services
