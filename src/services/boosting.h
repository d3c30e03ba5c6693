// Protocol boosters (§D adds Boosting to Kulkarni & Minden's classes; the
// author's MediaPEP project [15] is an "Internet Protocol Booster").
//
// FecBooster: a transparent forward-error-correction segment between an
// ingress and an egress ship bracketing a lossy path. The ingress groups a
// flow's shuttles into blocks of k and appends one XOR parity shuttle; the
// egress reconstructs a single missing shuttle per block and forwards
// everything to the final destination. Recovers delivery ratio at a
// bandwidth overhead of 1/k.
//
// CompressionBooster: shrinks payloads across a bottleneck segment by a
// modelled compression ratio and re-expands at egress.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "core/wandering_network.h"

namespace viator::services {

class FecBooster {
 public:
  struct Config {
    net::NodeId ingress = net::kInvalidNode;
    net::NodeId egress = net::kInvalidNode;
    net::NodeId final_destination = net::kInvalidNode;
  };

  /// Data shuttles per parity shuttle.
  static constexpr std::uint32_t kBlockSize = 4;

  FecBooster(wli::WanderingNetwork& network, const Config& config);

  /// Sends one flow word through the boosted segment (ingress side API).
  Status SendData(std::uint64_t flow, std::int64_t word);

  std::uint64_t recovered() const { return recovered_; }
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t parity_sent() const { return parity_sent_; }

 private:
  // Payload layout: {marker, block_id, index_in_block (kBlockSize = parity),
  // data word}.
  static constexpr std::int64_t kFecMarker = 0x0fec;

  void OnEgress(wli::Ship& ship, const wli::Shuttle& shuttle);

  struct EgressBlock {
    std::map<std::uint32_t, std::int64_t> received;  // index -> word
    bool has_parity = false;
    std::int64_t parity = 0;
    bool flushed = false;  // a recovery has been performed
  };
  struct IngressBlock {
    std::vector<std::int64_t> words;
    std::uint64_t block_id = 0;
  };

  wli::WanderingNetwork& network_;
  Config config_;
  std::map<std::uint64_t, IngressBlock> ingress_blocks_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, EgressBlock>
      egress_blocks_;
  std::uint64_t recovered_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t parity_sent_ = 0;
};

/// ARQ reliability booster: the retransmission counterpart of FecBooster.
/// The ingress numbers each flow word, keeps unacknowledged copies and
/// retransmits after a timeout (bounded retries); the egress forwards data
/// to the final destination and returns cumulative-free per-seq ACKs.
/// Against FEC: ARQ spends round trips (latency) instead of parity
/// bandwidth, and recovers bursts FEC cannot.
class ArqBooster {
 public:
  struct Config {
    net::NodeId ingress = net::kInvalidNode;
    net::NodeId egress = net::kInvalidNode;
    net::NodeId final_destination = net::kInvalidNode;
  };

  /// Retransmissions of one word before the ingress gives up on it.
  static constexpr std::uint32_t kMaxRetries = 4;

  ArqBooster(wli::WanderingNetwork& network, const Config& config);

  /// Sends one flow word through the boosted segment.
  Status SendData(std::uint64_t flow, std::int64_t word);

  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t acked() const { return acked_; }
  std::uint64_t given_up() const { return given_up_; }
  std::uint64_t data_bytes_sent() const { return data_bytes_sent_; }

 private:
  // Payload layouts: data {kArqData, seq, word}; ack {kArqAck, seq}.
  static constexpr std::int64_t kArqData = 0x0a1;
  static constexpr std::int64_t kArqAck = 0x0a2;
  static constexpr sim::Duration kRetransmitTimeout = 50 * sim::kMillisecond;

  void OnEgress(wli::Ship& ship, const wli::Shuttle& shuttle);
  void OnIngressAck(const wli::Shuttle& shuttle);
  void Transmit(std::uint64_t flow, std::uint64_t seq);
  void ArmTimer(std::uint64_t flow, std::uint64_t seq);

  struct Pending {
    std::int64_t word = 0;
    std::uint32_t attempts = 0;
    bool acked = false;
  };

  wli::WanderingNetwork& network_;
  Config config_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Pending> pending_;
  std::map<std::uint64_t, std::uint64_t> next_seq_;
  std::set<std::pair<std::uint64_t, std::uint64_t>> egress_seen_;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t given_up_ = 0;
  std::uint64_t data_bytes_sent_ = 0;
};

class CompressionBooster {
 public:
  struct Config {
    net::NodeId ingress = net::kInvalidNode;
    net::NodeId egress = net::kInvalidNode;
    net::NodeId final_destination = net::kInvalidNode;
  };

  /// Modelled compressed size / original size.
  static constexpr double kRatio = 0.5;

  CompressionBooster(wli::WanderingNetwork& network, const Config& config);

  /// Ingress-side API: sends a payload through the compressed segment.
  Status SendData(std::uint64_t flow, std::vector<std::int64_t> payload);

  std::uint64_t bytes_saved() const { return bytes_saved_; }

 private:
  static constexpr std::int64_t kZipMarker = 0x021b;

  void OnEgress(wli::Ship& ship, const wli::Shuttle& shuttle);

  wli::WanderingNetwork& network_;
  Config config_;
  std::uint64_t bytes_saved_ = 0;
};

}  // namespace viator::services
