#include "services/supplementary.h"

namespace viator::services {

ContentBuffer::ContentBuffer(wli::WanderingNetwork& network, net::NodeId node,
                             const Config& config)
    : network_(network), node_(node), config_(config) {
  wli::Ship* ship = network_.ship(node);
  if (ship == nullptr) return;
  (void)ship->SwitchRole(node::FirstLevelRole::kReplication,
                         node::SwitchMechanism::kResidentSoftware);
  ship->SetRoleHandler(
      node::FirstLevelRole::kReplication,
      [this](wli::Ship& s, const wli::Shuttle& shuttle) {
        OnShuttle(s, shuttle);
      });
}

void ContentBuffer::OnShuttle(wli::Ship& ship, const wli::Shuttle& shuttle) {
  network_.demand().Record(node_, node::FirstLevelRole::kReplication, 1.0);
  if (shuttle.payload.empty() || shuttle.payload[0] != config_.match_tag) {
    // Non-matching content passes straight through to the sink.
    wli::Shuttle copy = shuttle;
    copy.header.source = node_;
    copy.header.destination = config_.sink;
    ++passed_through_;
    (void)ship.SendShuttle(std::move(copy));
    return;
  }
  wli::Shuttle held = shuttle;
  held.header.source = node_;
  held.header.destination = config_.sink;
  held_.push_back(std::move(held));
  ++buffered_total_;
  if (held_.size() == 1) {
    timeout_event_ =
        network_.simulator().ScheduleAfter(kTimeout, [this] { Release(); });
  }
  if (held_.size() >= kBatchSize) {
    timeout_event_.Cancel();
    Release();
  }
}

void ContentBuffer::Release() {
  if (held_.empty()) return;
  wli::Ship* ship = network_.ship(node_);
  if (ship == nullptr) return;
  std::vector<wli::Shuttle> batch = std::move(held_);
  held_.clear();
  ++batches_released_;
  for (wli::Shuttle& shuttle : batch) {
    (void)ship->SendShuttle(std::move(shuttle));
  }
}

}  // namespace viator::services
