#include "services/transcoding.h"

#include <cmath>

namespace viator::services {

TranscodingService::TranscodingService(wli::WanderingNetwork& network,
                                       net::NodeId node, const Config& config)
    : network_(network),
      node_(node),
      config_(config),
      quality_(kInitialQuality, kMinQuality, 1.0,
               /*increase_step=*/0.05, /*decrease_factor=*/0.7) {
  wli::Ship* ship = network_.ship(node);
  if (ship == nullptr) return;
  (void)ship->SwitchRole(node::FirstLevelRole::kFusion,
                         node::SwitchMechanism::kResidentSoftware);
  // The transcoder fills the fusion slot (it delivers less than it
  // receives) but is classified second-level as kTranscoding.
  ship->SetRoleHandler(
      node::FirstLevelRole::kFusion,
      [this](wli::Ship& s, const wli::Shuttle& shuttle) {
        OnShuttle(s, shuttle);
      });
  // Close the loop: congestion signals on this node's sessions reduce
  // quality; the absence of congestion lets it creep back up per shuttle.
  subscription_ = network_.feedback().Subscribe(
      wli::FeedbackDimension::kPerSession,
      [this](const wli::FeedbackSignal& signal) {
        if (signal.origin == node_ && signal.value > 0.5) {
          quality_.OnCongestion();
          ++congestion_events_;
        }
      });
}

TranscodingService::~TranscodingService() {
  network_.feedback().Unsubscribe(subscription_);
}

void TranscodingService::OnShuttle(wli::Ship& ship,
                                   const wli::Shuttle& shuttle) {
  if (shuttle.payload.empty()) return;
  words_in_ += shuttle.payload.size();
  network_.demand().Record(node_, node::FirstLevelRole::kFusion, 1.0);

  // Publish the egress backlog on the per-session dimension; our own
  // subscription (and any other QoS manager) reacts to it.
  const std::uint64_t backlog = network_.fabric().QueuedBytesAt(node_);
  network_.feedback().Publish(wli::FeedbackSignal{
      wli::FeedbackDimension::kPerSession, node_, shuttle.header.flow_id,
      backlog > config_.congestion_backlog_bytes ? 1.0 : 0.0,
      network_.simulator().now()});
  if (backlog <= config_.congestion_backlog_bytes) quality_.OnSuccess();

  const double q = quality_.rate();
  const std::size_t keep = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(shuttle.payload.size())));
  std::vector<std::int64_t> transcoded(shuttle.payload.begin(),
                                       shuttle.payload.begin() + keep);
  words_out_ += transcoded.size();
  (void)ship.SendShuttle(wli::Shuttle::Data(node_, config_.sink,
                                            std::move(transcoded),
                                            shuttle.header.flow_id));
}

}  // namespace viator::services
