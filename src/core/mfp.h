// Multidimensional Feedback Principle (MFP).
//
// §C enumerates feedback dimensions active networking opens up: per-node,
// per-configuration, per-packet, per-method, per-multicast-branch,
// per-message, per-interoperability-task, per-application, per-session,
// per-data-link — "the number of such interoperating feedback dimensions is
// virtually unlimited."
//
// FeedbackBus is the typed publish/subscribe fabric those regulation loops
// run over. Dimensions can be disabled individually (the E15 ablation knob);
// signals on disabled dimensions are counted but not delivered. AimdRate is
// the canonical consumer: an additive-increase/multiplicative-decrease
// regulator services use for congestion-adaptive behaviour.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "net/types.h"
#include "sim/time.h"

namespace viator::wli {

enum class FeedbackDimension : std::uint8_t {
  kPerNode = 0,
  kPerConfiguration,
  kPerPacket,
  kPerMethod,
  kPerMulticastBranch,
  kPerMessage,
  kPerInteropTask,
  kPerApplication,
  kPerSession,
  kPerDataLink,
  kDimensionCount,
};

std::string_view FeedbackDimensionName(FeedbackDimension dimension);

struct FeedbackSignal {
  FeedbackDimension dimension = FeedbackDimension::kPerNode;
  net::NodeId origin = net::kInvalidNode;
  std::uint64_t key = 0;    // flow id, branch id, session id, ...
  double value = 0.0;       // measurement (queue depth, loss, rate, ...)
  sim::TimePoint time = 0;
};

class FeedbackBus {
 public:
  using SubscriptionId = std::uint64_t;
  using Handler = std::function<void(const FeedbackSignal&)>;

  FeedbackBus() { enabled_.fill(true); }

  SubscriptionId Subscribe(FeedbackDimension dimension, Handler handler);
  void Unsubscribe(SubscriptionId id);

  /// Delivers to all subscribers of the signal's dimension (if enabled).
  void Publish(const FeedbackSignal& signal);

  /// Ablation control: a disabled dimension swallows its signals.
  void EnableDimension(FeedbackDimension dimension, bool enabled);
  bool IsEnabled(FeedbackDimension dimension) const;

  std::uint64_t published() const { return published_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t suppressed() const { return suppressed_; }

  /// Snapshot fields (the genesis feedback section): signal accounting.
  /// Subscriptions are runtime callbacks, re-registered by their owners.
  template <class A>
  void Visit(A& a) {
    a.U64(0x01, published_);
    a.U64(0x02, delivered_);
    a.U64(0x03, suppressed_);
  }

 private:
  struct Subscription {
    SubscriptionId id;
    FeedbackDimension dimension;
    Handler handler;
  };
  std::array<bool, static_cast<std::size_t>(
                       FeedbackDimension::kDimensionCount)>
      enabled_{};
  std::vector<Subscription> subscriptions_;
  SubscriptionId next_id_ = 1;
  std::uint64_t published_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t suppressed_ = 0;
};

/// AIMD rate regulator: the standard feedback consumer for congestion
/// control on any dimension (per-flow, per-branch, per-session...).
class AimdRate {
 public:
  AimdRate(double initial, double min_rate, double max_rate,
           double increase_step = 0.1, double decrease_factor = 0.5)
      : rate_(initial),
        min_(min_rate),
        max_(max_rate),
        step_(increase_step),
        beta_(decrease_factor) {}

  /// Positive feedback (delivery confirmed): additive increase.
  void OnSuccess();
  /// Negative feedback (loss/congestion): multiplicative decrease.
  void OnCongestion();

  double rate() const { return rate_; }

 private:
  double rate_;
  double min_;
  double max_;
  double step_;
  double beta_;
};

}  // namespace viator::wli
