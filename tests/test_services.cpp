// Tests for the functional-class services: fusion, fission, caching,
// delegation, transcoding, boosters, supplementary buffering and the
// security/management suite.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/passive.h"
#include "core/wandering_network.h"
#include "net/topology.h"
#include "services/boosting.h"
#include "services/caching.h"
#include "services/combining.h"
#include "services/delegation.h"
#include "services/fission.h"
#include "services/fusion.h"
#include "services/security_mgmt.h"
#include "services/supplementary.h"
#include "services/transcoding.h"
#include "sim/simulator.h"

namespace viator::services {
namespace {

struct ServiceFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Topology topology = net::MakeLine(5);
  wli::WnConfig config;
  std::unique_ptr<wli::WanderingNetwork> wn;

  void Build() {
    wn = std::make_unique<wli::WanderingNetwork>(simulator, topology, config,
                                                 77);
    wn->PopulateAllNodes();
  }
};

// ---- Fusion ----

TEST_F(ServiceFixture, FusionReducesBytes) {
  Build();
  FusionService::Config cfg;
  cfg.sink = 4;
  cfg.window = 4;
  FusionService fusion(*wn, 2, cfg);
  std::vector<std::int64_t> sink_payload;
  wn->ship(4)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    sink_payload = s.payload;
  });
  // 8 readings of 16 words each -> 2 aggregates of 4 words.
  for (int i = 1; i <= 8; ++i) {
    std::vector<std::int64_t> reading(16, i);
    ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, reading, 1)).ok());
  }
  simulator.RunAll();
  EXPECT_EQ(fusion.shuttles_in(), 8u);
  EXPECT_EQ(fusion.shuttles_out(), 2u);
  EXPECT_GT(fusion.ReductionFactor(), 2.0);
  // Last aggregate covers readings 5..8: count=64, sum=16*(5+6+7+8)=416.
  ASSERT_EQ(sink_payload.size(), 4u);
  EXPECT_EQ(sink_payload[0], 64);   // count
  EXPECT_EQ(sink_payload[1], 416);  // sum
  EXPECT_EQ(sink_payload[2], 5);    // min
  EXPECT_EQ(sink_payload[3], 8);    // max
}

TEST_F(ServiceFixture, FusionTracksFlowsIndependently) {
  Build();
  FusionService::Config cfg;
  cfg.sink = 4;
  cfg.window = 2;
  FusionService fusion(*wn, 2, cfg);
  int aggregates = 0;
  wn->ship(4)->SetDeliverySink(
      [&](wli::Ship&, const wli::Shuttle&) { ++aggregates; });
  // One shuttle in each of two flows: neither window filled.
  ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, {1}, /*flow=*/10)).ok());
  ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, {2}, /*flow=*/20)).ok());
  simulator.RunAll();
  EXPECT_EQ(aggregates, 0);
  // Second shuttle of flow 10 completes that window only.
  ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, {3}, 10)).ok());
  simulator.RunAll();
  EXPECT_EQ(aggregates, 1);
}

// ---- Fission vs passive unicast ----

TEST_F(ServiceFixture, FissionSavesUpstreamBandwidth) {
  Build();
  FissionService fission(*wn, 2);
  const std::uint64_t group = 9;
  for (net::NodeId sub : {3u, 4u}) fission.Subscribe(group, sub);
  int deliveries = 0;
  for (net::NodeId sub : {3u, 4u}) {
    wn->ship(sub)->SetDeliverySink(
        [&](wli::Ship&, const wli::Shuttle&) { ++deliveries; });
  }
  std::vector<std::int64_t> content(64, 1);
  ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, content, group)).ok());
  simulator.RunAll();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(fission.duplicated(), 2u);
  // Upstream links (0-1, 1-2) carried the content once.
  const auto& link_bytes = wn->fabric().link_bytes();
  EXPECT_EQ(link_bytes[0], link_bytes[1]);
  const auto multicast_upstream = link_bytes[0];

  // Passive comparison: unicast to both receivers doubles upstream load.
  sim::Simulator sim2;
  net::Topology topo2 = net::MakeLine(5);
  wli::WanderingNetwork wn2(sim2, topo2, config, 77);
  wn2.PopulateAllNodes();
  baselines::PassiveEndpoints passive(wn2);
  passive.UnicastToAll(0, {3, 4}, content, group);
  sim2.RunAll();
  EXPECT_GE(wn2.fabric().link_bytes()[0], 2 * multicast_upstream - 64);
}

TEST_F(ServiceFixture, FissionUnsubscribeStopsCopies) {
  Build();
  FissionService fission(*wn, 2);
  fission.Subscribe(1, 3);
  fission.Subscribe(1, 4);
  fission.Unsubscribe(1, 3);
  EXPECT_EQ(fission.SubscriberCount(1), 1u);
  ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, {5}, 1)).ok());
  simulator.RunAll();
  EXPECT_EQ(fission.duplicated(), 1u);
}

// ---- Caching ----

TEST_F(ServiceFixture, CacheMissThenHit) {
  Build();
  ContentOrigin origin(*wn, 4);
  CachingService cache(*wn, 2, 4, /*capacity=*/8);
  std::vector<sim::TimePoint> reply_times;
  wn->ship(0)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    if (!s.payload.empty() && s.payload[0] == kCacheOpData) {
      reply_times.push_back(simulator.now());
    }
  });
  auto get = [&](std::uint64_t content) {
    ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(
                                0, 2,
                                {kCacheOpGet,
                                 static_cast<std::int64_t>(content)},
                                content))
                    .ok());
    simulator.RunAll();
  };
  const sim::TimePoint t0 = simulator.now();
  get(42);
  const sim::TimePoint cold = reply_times.at(0) - t0;
  const sim::TimePoint t1 = simulator.now();
  get(42);
  const sim::TimePoint warm = reply_times.at(1) - t1;
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(origin.requests_served(), 1u);
  // Warm path avoids the cache->origin->cache leg entirely.
  EXPECT_LT(warm, cold / 2);
}

TEST_F(ServiceFixture, CacheEvictsLruUnderCapacity) {
  Build();
  ContentOrigin origin(*wn, 4);
  CachingService cache(*wn, 2, 4, /*capacity=*/2);
  auto get = [&](std::uint64_t content) {
    ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(
                                0, 2,
                                {kCacheOpGet,
                                 static_cast<std::int64_t>(content)},
                                content))
                    .ok());
    simulator.RunAll();
  };
  get(1);
  get(2);
  get(3);  // evicts 1
  get(1);  // miss again
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 0u);
  get(1);  // now hit
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(ServiceFixture, CacheServesCorrectBody) {
  Build();
  ContentOrigin origin(*wn, 4, /*object_words=*/16);
  CachingService cache(*wn, 2, 4);
  std::vector<std::int64_t> body;
  wn->ship(0)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    if (!s.payload.empty() && s.payload[0] == kCacheOpData) {
      body.assign(s.payload.begin() + 2, s.payload.end());
    }
  });
  ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, {kCacheOpGet, 7}, 7)).ok());
  simulator.RunAll();
  EXPECT_EQ(body, ContentOrigin::ObjectBody(7, 16));
}

// ---- Delegation ----

TEST_F(ServiceFixture, NomadicServiceFollowsUser) {
  Build();
  NomadicDelegation::Config cfg;
  cfg.max_distance_hops = 1;
  NomadicDelegation nomadic(*wn, /*initial_host=*/0, cfg);
  EXPECT_EQ(nomadic.host(), 0u);
  nomadic.UserMovedTo(1);  // distance 1: stays
  simulator.RunAll();
  EXPECT_EQ(nomadic.host(), 0u);
  nomadic.UserMovedTo(4);  // distance 4: migrates
  simulator.RunAll();
  EXPECT_EQ(nomadic.host(), 4u);
  EXPECT_EQ(nomadic.migrations(), 1u);
}

TEST_F(ServiceFixture, NomadicMigrationShortensRtt) {
  Build();
  NomadicDelegation::Config cfg;
  cfg.max_distance_hops = 0;  // always colocate
  NomadicDelegation nomadic(*wn, 0, cfg);
  sim::TimePoint reply_at = 0;
  sim::TimePoint sent_at = 0;
  wn->ship(4)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    if (!s.payload.empty() && s.payload[0] == kDelegationReply) {
      reply_at = simulator.now();
    }
  });
  // Far request (host at 0, user at 4).
  sent_at = simulator.now();
  ASSERT_TRUE(nomadic.SendRequest(4, 1).ok());
  simulator.RunAll();
  const auto far_rtt = reply_at - sent_at;
  // Move the user (and the service); RTT collapses.
  nomadic.UserMovedTo(4);
  simulator.RunAll();
  ASSERT_EQ(nomadic.host(), 4u);
  sent_at = simulator.now();
  ASSERT_TRUE(nomadic.SendRequest(4, 2).ok());
  simulator.RunAll();
  const auto near_rtt = reply_at - sent_at;
  EXPECT_LT(near_rtt, far_rtt / 2);
  EXPECT_EQ(nomadic.requests_answered(), 2u);
}

// ---- Transcoding ----

TEST_F(ServiceFixture, TranscoderDegradesUnderCongestion) {
  // Fast ingress, slow egress: backlog builds at the transcoder node.
  net::LinkConfig fast;
  net::LinkConfig slow;
  slow.bandwidth_bps = 64 * 1024;  // 8 KiB/s
  topology = net::Topology();
  topology.AddNodes(5);
  topology.AddLink(0, 1, fast);
  topology.AddLink(1, 2, fast);
  topology.AddLink(2, 3, slow);
  topology.AddLink(3, 4, slow);
  Build();
  TranscodingService::Config cfg;
  cfg.sink = 4;
  cfg.congestion_backlog_bytes = 2048;
  TranscodingService transcoder(*wn, 2, cfg);
  EXPECT_DOUBLE_EQ(transcoder.quality(), 1.0);
  for (int i = 0; i < 60; ++i) {
    std::vector<std::int64_t> media(64, i);
    ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, media, 5)).ok());
  }
  simulator.RunAll();
  EXPECT_GT(transcoder.congestion_events(), 0u);
  EXPECT_LT(transcoder.media_out_words(), transcoder.media_in_words());
}

TEST_F(ServiceFixture, TranscoderKeepsQualityWhenIdle) {
  Build();  // default fast links: no backlog
  TranscodingService::Config cfg;
  cfg.sink = 4;
  TranscodingService transcoder(*wn, 2, cfg);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        wn->Inject(wli::Shuttle::Data(0, 2, {1, 2, 3, 4}, 5)).ok());
    simulator.RunAll();
  }
  EXPECT_EQ(transcoder.congestion_events(), 0u);
  EXPECT_DOUBLE_EQ(transcoder.quality(), 1.0);
  EXPECT_EQ(transcoder.media_out_words(), transcoder.media_in_words());
}

// ---- FEC booster ----

TEST_F(ServiceFixture, FecRecoversSingleLossPerBlock) {
  // The booster brackets one lossy link (1-2); everything else is clean.
  net::LinkConfig clean;
  net::LinkConfig lossy;
  lossy.loss_probability = 0.12;
  topology = net::Topology();
  topology.AddNodes(5);
  topology.AddLink(0, 1, clean);
  topology.AddLink(1, 2, lossy);
  topology.AddLink(2, 3, clean);
  topology.AddLink(3, 4, clean);
  Build();
  FecBooster::Config cfg;
  cfg.ingress = 0;
  cfg.egress = 3;
  cfg.final_destination = 4;
  FecBooster booster(*wn, cfg);
  int delivered = 0;
  wn->ship(4)->SetDeliverySink(
      [&](wli::Ship&, const wli::Shuttle& s) {
        if (s.header.kind == wli::ShuttleKind::kData) ++delivered;
      });
  const int blocks = 50;
  const int words = blocks * static_cast<int>(FecBooster::kBlockSize);
  for (int i = 0; i < words; ++i) {
    ASSERT_TRUE(booster.SendData(1, i).ok());
  }
  simulator.RunAll();
  EXPECT_GT(booster.recovered(), 0u);
  EXPECT_EQ(booster.parity_sent(), static_cast<std::uint64_t>(blocks));
  // Raw delivery over the 12%-lossy link would be ~88%; single-parity FEC
  // recovers most single-loss blocks, pushing delivery above 93%.
  EXPECT_GT(delivered, static_cast<int>(words * 0.93));
}

TEST_F(ServiceFixture, FecNoLossMeansNoRecoveries) {
  Build();
  FecBooster::Config cfg;
  cfg.ingress = 0;
  cfg.egress = 3;
  cfg.final_destination = 4;
  FecBooster booster(*wn, cfg);
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(booster.SendData(1, i).ok());
  simulator.RunAll();
  EXPECT_EQ(booster.recovered(), 0u);
  EXPECT_EQ(booster.forwarded(), 16u);
}

// ---- Compression booster ----

TEST_F(ServiceFixture, CompressionShrinksSegmentBytes) {
  Build();
  CompressionBooster::Config cfg;
  cfg.ingress = 0;
  cfg.egress = 3;
  cfg.final_destination = 4;
  CompressionBooster booster(*wn, cfg);
  std::size_t delivered_words = 0;
  wn->ship(4)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    delivered_words = s.payload.size();
  });
  std::vector<std::int64_t> payload(100, 7);
  ASSERT_TRUE(booster.SendData(1, payload).ok());
  simulator.RunAll();
  EXPECT_EQ(delivered_words, 100u);  // re-expanded at egress
  const auto kept = static_cast<std::uint64_t>(
      std::ceil(CompressionBooster::kRatio * 100.0));
  EXPECT_EQ(booster.bytes_saved(), (100 - kept) * 8);  // 8 bytes a word
}

// ---- Combining (cross-flow multiplexing) ----

TEST_F(ServiceFixture, CombinerMuxesAndDemuxes) {
  Build();
  CombiningService::Config cfg;
  cfg.sink = 4;
  cfg.batch_size = 4;
  CombiningService combiner(*wn, 2, cfg);
  std::map<std::uint64_t, std::vector<std::int64_t>> restored;
  wn->ship(4)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    if (s.header.kind == wli::ShuttleKind::kData && !s.payload.empty() &&
        s.payload[0] != kMuxMarker) {
      restored[s.header.flow_id] = s.payload;
    }
  });
  // Four small shuttles from four different flows.
  for (std::uint64_t flow = 1; flow <= 4; ++flow) {
    ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(
                                0, 2, {static_cast<std::int64_t>(flow * 10)},
                                flow))
                    .ok());
  }
  simulator.RunAll();
  EXPECT_EQ(combiner.shuttles_in(), 4u);
  EXPECT_EQ(combiner.carriers_out(), 1u);
  EXPECT_EQ(combiner.demuxed(), 4u);
  ASSERT_EQ(restored.size(), 4u);
  for (std::uint64_t flow = 1; flow <= 4; ++flow) {
    EXPECT_EQ(restored[flow],
              (std::vector<std::int64_t>{static_cast<std::int64_t>(flow * 10)}));
  }
}

TEST_F(ServiceFixture, CombinerSavesHeaderBytes) {
  Build();
  CombiningService::Config cfg;
  cfg.sink = 4;
  cfg.batch_size = 8;
  CombiningService combiner(*wn, 2, cfg);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, {i}, i + 1)).ok());
  }
  simulator.RunAll();
  // 8 shuttles of 1 word: 8x40 B in; one carrier with 2+8x3 words out.
  EXPECT_GT(combiner.BytesSaved(), 0);
  EXPECT_EQ(combiner.carriers_out(), 1u);
}

TEST_F(ServiceFixture, CombinerWindowTimeoutFlushesPartialBatch) {
  Build();
  CombiningService::Config cfg;
  cfg.sink = 4;
  cfg.batch_size = 100;  // never reached by count
  cfg.window = 50 * sim::kMillisecond;
  CombiningService combiner(*wn, 2, cfg);
  int restored = 0;
  wn->ship(4)->SetDeliverySink([&](wli::Ship&, const wli::Shuttle& s) {
    if (s.header.kind == wli::ShuttleKind::kData && !s.payload.empty() &&
        s.payload[0] != kMuxMarker) {
      ++restored;
    }
  });
  ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, {7}, 1)).ok());
  ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, {8}, 2)).ok());
  simulator.RunUntil(sim::kSecond);
  EXPECT_EQ(combiner.carriers_out(), 1u);
  EXPECT_EQ(restored, 2);
}

TEST_F(ServiceFixture, DemuxerIgnoresMalformedCarriers) {
  Build();
  CombiningService::Config cfg;
  cfg.sink = 4;
  CombiningService combiner(*wn, 2, cfg);
  // A carrier claiming more entries than it holds: demux must stop cleanly.
  ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(
                              0, 4, {kMuxMarker, 5, /*flow*/ 1, /*len*/ 99},
                              kMuxMarker))
                  .ok());
  simulator.RunAll();
  EXPECT_EQ(combiner.demuxed(), 0u);
}

// ---- Supplementary: content buffer ----

TEST_F(ServiceFixture, ContentBufferBatchesMatching) {
  Build();
  ContentBuffer::Config cfg;
  cfg.sink = 4;
  cfg.match_tag = 55;
  ContentBuffer buffer(*wn, 2, cfg);
  int delivered = 0;
  wn->ship(4)->SetDeliverySink(
      [&](wli::Ship&, const wli::Shuttle&) { ++delivered; });
  // Injected together, the batch fills well inside kTimeout: it closes by
  // count.
  const auto batch = static_cast<int>(ContentBuffer::kBatchSize);
  for (int i = 0; i < batch; ++i) {
    ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, {55, i}, 1)).ok());
  }
  simulator.RunAll();
  EXPECT_EQ(buffer.batches_released(), 1u);
  EXPECT_EQ(delivered, batch);
}

TEST_F(ServiceFixture, ContentBufferTimeoutReleases) {
  Build();
  ContentBuffer::Config cfg;
  cfg.sink = 4;
  cfg.match_tag = 55;
  ContentBuffer buffer(*wn, 2, cfg);
  int delivered = 0;
  wn->ship(4)->SetDeliverySink(
      [&](wli::Ship&, const wli::Shuttle&) { ++delivered; });
  // One shuttle never fills a kBatchSize batch; kTimeout releases it.
  ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, {55, 1}, 1)).ok());
  simulator.RunUntil(sim::kSecond);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(buffer.batches_released(), 1u);
}

TEST_F(ServiceFixture, ContentBufferPassesNonMatching) {
  Build();
  ContentBuffer::Config cfg;
  cfg.sink = 4;
  cfg.match_tag = 55;
  ContentBuffer buffer(*wn, 2, cfg);
  int delivered = 0;
  wn->ship(4)->SetDeliverySink(
      [&](wli::Ship&, const wli::Shuttle&) { ++delivered; });
  ASSERT_TRUE(wn->Inject(wli::Shuttle::Data(0, 2, {99, 1}, 1)).ok());
  simulator.RunAll();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(buffer.passed_through(), 1u);
  EXPECT_EQ(buffer.buffered_total(), 0u);
}

// ---- Security / management ----

TEST_F(ServiceFixture, CapsuleAuthoritySignsAndChecks) {
  CapsuleAuthority authority(0xbeef);
  wli::Shuttle s;
  s.code_image = {std::byte{1}, std::byte{2}, std::byte{3}};
  EXPECT_FALSE(authority.Check(s));
  authority.Sign(s);
  EXPECT_TRUE(authority.Check(s));
  s.code_image.push_back(std::byte{4});  // tamper
  EXPECT_FALSE(authority.Check(s));
}

TEST_F(ServiceFixture, WorkloadMonitorPublishesPerNode) {
  Build();
  int signals = 0;
  wn->feedback().Subscribe(wli::FeedbackDimension::kPerNode,
                           [&](const wli::FeedbackSignal&) { ++signals; });
  WorkloadMonitor monitor(*wn, 100 * sim::kMillisecond);
  monitor.Start(sim::kSecond);
  simulator.RunUntil(sim::kSecond);
  EXPECT_GE(signals, 5 * 9);  // 5 ships x ~10 samples (allow slack)
  EXPECT_EQ(monitor.samples_published(), static_cast<std::uint64_t>(signals));
}

}  // namespace
}  // namespace viator::services
