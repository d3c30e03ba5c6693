#include "services/boosting.h"

#include <cmath>

#include "telemetry/telemetry.h"

namespace viator::services {

FecBooster::FecBooster(wli::WanderingNetwork& network, const Config& config)
    : network_(network), config_(config) {
  wli::Ship* egress = network_.ship(config_.egress);
  if (egress == nullptr) return;
  (void)egress->SwitchRole(node::FirstLevelRole::kDelegation,
                           node::SwitchMechanism::kResidentSoftware);
  egress->SetRoleHandler(
      node::FirstLevelRole::kDelegation,
      [this](wli::Ship& s, const wli::Shuttle& shuttle) {
        OnEgress(s, shuttle);
      });
}

Status FecBooster::SendData(std::uint64_t flow, std::int64_t word) {
  wli::Ship* ingress = network_.ship(config_.ingress);
  if (ingress == nullptr) return NotFound("no ingress ship");
  IngressBlock& block = ingress_blocks_[flow];
  block.words.push_back(word);
  if (block.words.size() < kBlockSize) return OkStatus();

  // Emit the block: k data shuttles + 1 parity shuttle.
  std::int64_t parity = 0;
  for (std::size_t i = 0; i < block.words.size(); ++i) {
    parity ^= block.words[i];
    (void)ingress->SendShuttle(wli::Shuttle::Data(
        config_.ingress, config_.egress,
        {kFecMarker, static_cast<std::int64_t>(block.block_id),
         static_cast<std::int64_t>(i), block.words[i]},
        flow));
  }
  (void)ingress->SendShuttle(wli::Shuttle::Data(
      config_.ingress, config_.egress,
      {kFecMarker, static_cast<std::int64_t>(block.block_id),
       static_cast<std::int64_t>(kBlockSize), parity},
      flow));
  ++parity_sent_;
  ++block.block_id;
  block.words.clear();
  return OkStatus();
}

void FecBooster::OnEgress(wli::Ship& ship, const wli::Shuttle& shuttle) {
  if (shuttle.payload.size() != 4 || shuttle.payload[0] != kFecMarker) return;
  const std::uint64_t flow = shuttle.header.flow_id;
  const auto block_id = static_cast<std::uint64_t>(shuttle.payload[1]);
  const auto index = static_cast<std::uint32_t>(shuttle.payload[2]);
  const std::int64_t word = shuttle.payload[3];

  telemetry::SpanScope span(network_.telemetry(), shuttle.trace,
                            config_.egress, "svc.boosting", "fec_egress");
  EgressBlock& block = egress_blocks_[{flow, block_id}];
  if (index == kBlockSize) {
    block.has_parity = true;
    block.parity = word;
  } else if (block.received.emplace(index, word).second) {
    // Data is transparent: forward immediately; parity exists only to
    // regenerate a missing shuttle.
    ++forwarded_;
    wli::Shuttle onward = wli::Shuttle::Data(
        config_.egress, config_.final_destination, {word}, flow);
    onward.trace = span.context();
    (void)ship.SendShuttle(std::move(onward));
  }

  // Exactly one data shuttle missing and the parity present: rebuild it.
  if (!block.flushed && block.has_parity &&
      block.received.size() == kBlockSize - 1) {
    std::int64_t missing = block.parity;
    std::uint32_t missing_index = 0;
    for (std::uint32_t i = 0; i < kBlockSize; ++i) {
      const auto it = block.received.find(i);
      if (it == block.received.end()) {
        missing_index = i;
      } else {
        missing ^= it->second;
      }
    }
    block.received[missing_index] = missing;
    block.flushed = true;
    ++recovered_;
    ++forwarded_;
    (void)ship.SendShuttle(wli::Shuttle::Data(config_.egress,
                                              config_.final_destination,
                                              {missing}, flow));
  }
}

ArqBooster::ArqBooster(wli::WanderingNetwork& network, const Config& config)
    : network_(network), config_(config) {
  wli::Ship* egress = network_.ship(config_.egress);
  if (egress != nullptr) {
    (void)egress->SwitchRole(node::FirstLevelRole::kDelegation,
                             node::SwitchMechanism::kResidentSoftware);
    egress->SetRoleHandler(
        node::FirstLevelRole::kDelegation,
        [this](wli::Ship& s, const wli::Shuttle& shuttle) {
          OnEgress(s, shuttle);
        });
  }
  wli::Ship* ingress = network_.ship(config_.ingress);
  if (ingress != nullptr) {
    (void)ingress->SwitchRole(node::FirstLevelRole::kNextStep,
                              node::SwitchMechanism::kResidentSoftware);
    ingress->SetRoleHandler(
        node::FirstLevelRole::kNextStep,
        [this](wli::Ship&, const wli::Shuttle& shuttle) {
          OnIngressAck(shuttle);
        });
  }
}

void ArqBooster::Transmit(std::uint64_t flow, std::uint64_t seq) {
  wli::Ship* ingress = network_.ship(config_.ingress);
  const auto it = pending_.find({flow, seq});
  if (ingress == nullptr || it == pending_.end() || it->second.acked) return;
  ++it->second.attempts;
  wli::Shuttle data = wli::Shuttle::Data(
      config_.ingress, config_.egress,
      {kArqData, static_cast<std::int64_t>(seq), it->second.word}, flow);
  data_bytes_sent_ += data.WireSize();
  (void)ingress->SendShuttle(std::move(data));
  ArmTimer(flow, seq);
}

void ArqBooster::ArmTimer(std::uint64_t flow, std::uint64_t seq) {
  network_.simulator().ScheduleAfter(
      kRetransmitTimeout,
      [this, flow, seq] {
        const auto it = pending_.find({flow, seq});
        if (it == pending_.end() || it->second.acked) return;
        if (it->second.attempts > kMaxRetries) {
          ++given_up_;
          pending_.erase(it);
          return;
        }
        ++retransmissions_;
        Transmit(flow, seq);
      });
}

Status ArqBooster::SendData(std::uint64_t flow, std::int64_t word) {
  if (network_.ship(config_.ingress) == nullptr) {
    return NotFound("no ingress ship");
  }
  const std::uint64_t seq = next_seq_[flow]++;
  pending_[{flow, seq}] = Pending{word, 0, false};
  Transmit(flow, seq);
  return OkStatus();
}

void ArqBooster::OnEgress(wli::Ship& ship, const wli::Shuttle& shuttle) {
  if (shuttle.payload.size() != 3 || shuttle.payload[0] != kArqData) return;
  const std::uint64_t flow = shuttle.header.flow_id;
  const auto seq = static_cast<std::uint64_t>(shuttle.payload[1]);
  telemetry::SpanScope span(network_.telemetry(), shuttle.trace,
                            config_.egress, "svc.boosting", "arq_egress");
  // ACK every copy (the ACK itself may be lost); forward only once.
  wli::Shuttle ack = wli::Shuttle::Data(
      config_.egress, config_.ingress,
      {kArqAck, static_cast<std::int64_t>(seq)}, flow);
  ack.trace = span.context();
  (void)ship.SendShuttle(std::move(ack));
  if (egress_seen_.insert({flow, seq}).second) {
    wli::Shuttle onward = wli::Shuttle::Data(
        config_.egress, config_.final_destination, {shuttle.payload[2]},
        flow);
    onward.trace = span.context();
    (void)ship.SendShuttle(std::move(onward));
  }
}

void ArqBooster::OnIngressAck(const wli::Shuttle& shuttle) {
  if (shuttle.payload.size() != 2 || shuttle.payload[0] != kArqAck) return;
  const auto it = pending_.find(
      {shuttle.header.flow_id, static_cast<std::uint64_t>(shuttle.payload[1])});
  if (it == pending_.end()) return;  // duplicate ACK for a settled seq
  pending_.erase(it);
  ++acked_;
}

CompressionBooster::CompressionBooster(wli::WanderingNetwork& network,
                                       const Config& config)
    : network_(network), config_(config) {
  wli::Ship* egress = network_.ship(config_.egress);
  if (egress == nullptr) return;
  (void)egress->SwitchRole(node::FirstLevelRole::kDelegation,
                           node::SwitchMechanism::kResidentSoftware);
  egress->SetRoleHandler(
      node::FirstLevelRole::kDelegation,
      [this](wli::Ship& s, const wli::Shuttle& shuttle) {
        OnEgress(s, shuttle);
      });
}

Status CompressionBooster::SendData(std::uint64_t flow,
                                    std::vector<std::int64_t> payload) {
  wli::Ship* ingress = network_.ship(config_.ingress);
  if (ingress == nullptr) return NotFound("no ingress ship");
  const std::size_t n = payload.size();
  const auto keep = static_cast<std::size_t>(
      std::ceil(kRatio * static_cast<double>(n)));
  // Model: the compressed image carries ceil(kRatio·n) words; the egress
  // re-expands to the original length (a real booster would decompress the
  // byte stream — the experiments only measure bytes over the segment).
  std::vector<std::int64_t> compressed = {kZipMarker,
                                          static_cast<std::int64_t>(n)};
  compressed.insert(compressed.end(), payload.begin(),
                    payload.begin() + keep);
  bytes_saved_ += (n - keep) * 8;
  return ingress->SendShuttle(wli::Shuttle::Data(
      config_.ingress, config_.egress, std::move(compressed), flow));
}

void CompressionBooster::OnEgress(wli::Ship& ship,
                                  const wli::Shuttle& shuttle) {
  if (shuttle.payload.size() < 2 || shuttle.payload[0] != kZipMarker) return;
  telemetry::SpanScope span(network_.telemetry(), shuttle.trace,
                            config_.egress, "svc.boosting", "unzip");
  const auto n = static_cast<std::size_t>(shuttle.payload[1]);
  std::vector<std::int64_t> expanded(shuttle.payload.begin() + 2,
                                     shuttle.payload.end());
  expanded.resize(n, 0);
  wli::Shuttle onward = wli::Shuttle::Data(
      config_.egress, config_.final_destination, std::move(expanded),
      shuttle.header.flow_id);
  onward.trace = span.context();
  (void)ship.SendShuttle(std::move(onward));
}

}  // namespace viator::services
