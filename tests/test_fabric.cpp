// Tests for the fabric transmission model, mobility and failure injection.
#include <gtest/gtest.h>

#include <string>

#include "net/fabric.h"
#include "net/failure.h"
#include "net/mobility.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "telemetry/mem_counters.h"

namespace viator::net {
namespace {

struct FabricFixture : ::testing::Test {
  sim::Simulator simulator;
  sim::StatsRegistry stats;

  Frame MakeFrame(NodeId from, NodeId to, std::uint32_t size,
                  std::string tag = "") {
    Frame f;
    f.from = from;
    f.to = to;
    f.size_bytes = size;
    f.payload = tag;
    return f;
  }
};

TEST_F(FabricFixture, DeliversWithSerializationPlusLatency) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;            // 1 MB/s
  cfg.latency = 10 * sim::kMillisecond;
  Topology t = MakeLine(2, cfg);
  Fabric fabric(simulator, t, Rng(1), stats);

  sim::TimePoint delivered_at = 0;
  fabric.SetReceiveHandler(1, [&](const Frame&) {
    delivered_at = simulator.now();
  });
  ASSERT_TRUE(fabric.Send(MakeFrame(0, 1, 1000)).ok());
  simulator.RunAll();
  // 1000 B at 1 MB/s = 1 ms serialization + 10 ms propagation.
  EXPECT_EQ(delivered_at, 11 * sim::kMillisecond);
  EXPECT_EQ(fabric.frames_delivered(), 1u);
}

TEST_F(FabricFixture, BackToBackFramesQueue) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e6;
  cfg.latency = 0;
  Topology t = MakeLine(2, cfg);
  Fabric fabric(simulator, t, Rng(1), stats);

  std::vector<sim::TimePoint> deliveries;
  fabric.SetReceiveHandler(1, [&](const Frame&) {
    deliveries.push_back(simulator.now());
  });
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fabric.Send(MakeFrame(0, 1, 1000)).ok());
  }
  simulator.RunAll();
  ASSERT_EQ(deliveries.size(), 3u);
  // Serialized one after another: 1ms, 2ms, 3ms.
  EXPECT_EQ(deliveries[0], 1 * sim::kMillisecond);
  EXPECT_EQ(deliveries[1], 2 * sim::kMillisecond);
  EXPECT_EQ(deliveries[2], 3 * sim::kMillisecond);
}

TEST_F(FabricFixture, QueueOverflowDrops) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e3;  // very slow: 1 KB/s
  cfg.queue_capacity_bytes = 2500;
  Topology t = MakeLine(2, cfg);
  Fabric fabric(simulator, t, Rng(1), stats);
  int delivered = 0;
  fabric.SetReceiveHandler(1, [&](const Frame&) { ++delivered; });

  int accepted = 0;
  for (int i = 0; i < 5; ++i) {
    if (fabric.Send(MakeFrame(0, 1, 1000)).ok()) ++accepted;
  }
  EXPECT_EQ(accepted, 2);  // 2 * 1000 <= 2500 < 3 * 1000
  EXPECT_GE(fabric.frames_dropped(), 3u);
  simulator.RunAll();
  EXPECT_EQ(delivered, 2);
}

TEST_F(FabricFixture, NoLinkMeansDrop) {
  Topology t;
  t.AddNodes(2);  // no link
  Fabric fabric(simulator, t, Rng(1), stats);
  EXPECT_EQ(fabric.Send(MakeFrame(0, 1, 100)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(fabric.frames_dropped(), 1u);
}

TEST_F(FabricFixture, LossyLinkLosesAboutTheRightFraction) {
  LinkConfig cfg;
  cfg.loss_probability = 0.3;
  cfg.latency = 0;
  cfg.bandwidth_bps = 1e12;
  cfg.queue_capacity_bytes = 1 << 30;
  Topology t = MakeLine(2, cfg);
  Fabric fabric(simulator, t, Rng(42), stats);
  int delivered = 0;
  fabric.SetReceiveHandler(1, [&](const Frame&) { ++delivered; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    (void)fabric.Send(MakeFrame(0, 1, 10));
  }
  simulator.RunAll();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.7, 0.03);
}

TEST_F(FabricFixture, LinkDownMidFlightLosesFrame) {
  LinkConfig cfg;
  cfg.latency = 10 * sim::kMillisecond;
  Topology t = MakeLine(2, cfg);
  Fabric fabric(simulator, t, Rng(1), stats);
  int delivered = 0;
  fabric.SetReceiveHandler(1, [&](const Frame&) { ++delivered; });
  ASSERT_TRUE(fabric.Send(MakeFrame(0, 1, 100)).ok());
  simulator.ScheduleAt(5 * sim::kMillisecond,
                       [&] { t.SetLinkUp(0, false); });
  simulator.RunAll();
  EXPECT_EQ(delivered, 0);
}

TEST_F(FabricFixture, PayloadSurvivesTransit) {
  Topology t = MakeLine(2);
  Fabric fabric(simulator, t, Rng(1), stats);
  std::string received;
  fabric.SetReceiveHandler(1, [&](const Frame& f) {
    received = std::any_cast<std::string>(f.payload);
  });
  ASSERT_TRUE(fabric.Send(MakeFrame(0, 1, 64, "hello")).ok());
  simulator.RunAll();
  EXPECT_EQ(received, "hello");
}

TEST_F(FabricFixture, BroadcastReachesAllNeighbors) {
  Topology t = MakeStar(5);
  Fabric fabric(simulator, t, Rng(1), stats);
  int received = 0;
  for (NodeId n = 1; n < 5; ++n) {
    fabric.SetReceiveHandler(n, [&](const Frame&) { ++received; });
  }
  EXPECT_EQ(fabric.Broadcast(0, MakeFrame(kInvalidNode, kInvalidNode, 64)),
            4u);
  simulator.RunAll();
  EXPECT_EQ(received, 4);
}

TEST_F(FabricFixture, QueuedBytesVisible) {
  LinkConfig cfg;
  cfg.bandwidth_bps = 8e3;  // slow so bytes linger in the queue
  Topology t = MakeLine(2, cfg);
  Fabric fabric(simulator, t, Rng(1), stats);
  (void)fabric.Send(MakeFrame(0, 1, 500));
  EXPECT_EQ(fabric.QueuedBytesAt(0), 500u);
  EXPECT_EQ(fabric.QueuedBytesAt(1), 0u);
  simulator.RunAll();
  EXPECT_EQ(fabric.QueuedBytesAt(0), 0u);
}

TEST_F(FabricFixture, LinkBytesAccountPerLink) {
  Topology t = MakeLine(3);
  Fabric fabric(simulator, t, Rng(1), stats);
  fabric.SetReceiveHandler(1, [](const Frame&) {});
  (void)fabric.Send(MakeFrame(0, 1, 100));
  (void)fabric.Send(MakeFrame(1, 2, 200));
  simulator.RunAll();
  EXPECT_EQ(fabric.link_bytes()[0], 100u);
  EXPECT_EQ(fabric.link_bytes()[1], 200u);
  EXPECT_EQ(fabric.bytes_sent(), 300u);
}

TEST_F(FabricFixture, ChargesLinkStateToTheFabricDomain) {
  // The first frame reserves the per-link state for every link the
  // topology has, in one charge to mem.fabric; link_bytes() still grows
  // only to the links used, because its size is snapshotted.
  namespace mem = telemetry::mem;
  const auto fabric_domain = [] {
    return mem::Aggregate()[static_cast<std::size_t>(mem::Domain::kFabric)];
  };
  mem::ResetAll();
  mem::SetEnabled(true);
  {
    Topology t = MakeLine(5);  // links 0..3
    Fabric fabric(simulator, t, Rng(1), stats);
    EXPECT_EQ(fabric_domain().live_bytes, 0);
    (void)fabric.Send(MakeFrame(0, 1, 100));
    EXPECT_EQ(fabric.link_bytes().size(), 1u);
    // Per link: two 16-byte directions and an 8-byte byte count.
    EXPECT_EQ(fabric_domain().live_bytes, 4 * 40);
    (void)fabric.Send(MakeFrame(3, 4, 100));
    EXPECT_EQ(fabric.link_bytes().size(), 4u);
    EXPECT_EQ(fabric_domain().allocs, 1u);
    // A link added later grows the arrays past the reservation.
    const LinkId late = t.AddLink(0, 4);
    (void)fabric.Send(MakeFrame(4, 0, 100));
    EXPECT_EQ(fabric.link_bytes().size(), late + 1u);
    EXPECT_GT(fabric_domain().live_bytes, 4 * 40);
    simulator.RunAll();
    EXPECT_EQ(fabric.link_bytes()[late], 100u);
  }
  EXPECT_EQ(fabric_domain().live_bytes, 0);  // the fabric's destructor
  mem::SetEnabled(false);
  mem::ResetAll();
}

// ---- Mobility ----

TEST(Mobility, NodesStayInBounds) {
  RandomWaypointMobility::Config cfg;
  cfg.width_m = 100;
  cfg.height_m = 50;
  RandomWaypointMobility mob(20, cfg, Rng(3));
  for (int step = 0; step < 200; ++step) {
    mob.Step(1.0);
    for (const auto& p : mob.positions()) {
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 100.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 50.0);
    }
  }
}

TEST(Mobility, NodesActuallyMove) {
  RandomWaypointMobility::Config cfg;
  cfg.min_speed_mps = 5.0;
  cfg.max_speed_mps = 10.0;
  cfg.pause_s = 0.0;
  RandomWaypointMobility mob(5, cfg, Rng(4));
  const auto before = mob.positions();
  mob.Step(10.0);
  const auto& after = mob.positions();
  double moved = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    moved += Distance(before[i], after[i]);
  }
  EXPECT_GT(moved, 1.0);
}

TEST(Mobility, PinnedNodeStaysPut) {
  RandomWaypointMobility mob(3, {}, Rng(5));
  mob.Pin(0);
  const auto before = mob.positions()[0];
  mob.Step(30.0);
  EXPECT_DOUBLE_EQ(mob.positions()[0].x, before.x);
  EXPECT_DOUBLE_EQ(mob.positions()[0].y, before.y);
}

TEST(Mobility, AdhocManagerTogglesLinks) {
  sim::Simulator simulator;
  Topology topology;
  topology.AddNodes(10);
  RandomWaypointMobility::Config cfg;
  cfg.width_m = 300;
  cfg.height_m = 300;
  cfg.min_speed_mps = 20.0;
  cfg.max_speed_mps = 40.0;
  cfg.pause_s = 0.0;
  RandomWaypointMobility mob(10, cfg, Rng(6));
  AdhocManager manager(simulator, topology, std::move(mob), 120.0,
                       sim::kSecond, LinkConfig{});
  manager.Start(30 * sim::kSecond);
  simulator.RunUntil(30 * sim::kSecond);
  // Fast nodes in a small arena must cause link churn.
  EXPECT_GT(manager.link_transitions(), 0u);
}

// ---- Failure injection ----

TEST(Failure, DeterministicLinkOutage) {
  sim::Simulator simulator;
  Topology t = MakeLine(2);
  FailureInjector injector(simulator, t, Rng(1));
  injector.FailLink(0, 10 * sim::kMillisecond, 20 * sim::kMillisecond);
  simulator.RunUntil(15 * sim::kMillisecond);
  EXPECT_FALSE(t.IsLinkUp(0));
  simulator.RunUntil(40 * sim::kMillisecond);
  EXPECT_TRUE(t.IsLinkUp(0));
  EXPECT_EQ(injector.failures_injected(), 1u);
}

TEST(Failure, NodeOutageAndObserver) {
  sim::Simulator simulator;
  Topology t = MakeLine(3);
  FailureInjector injector(simulator, t, Rng(1));
  std::vector<std::string> events;
  injector.set_observer([&](const char* kind, std::uint32_t id, bool up) {
    events.push_back(std::string(kind) + ":" + std::to_string(id) + ":" +
                     (up ? "up" : "down"));
  });
  injector.FailNode(1, 5, 10);
  simulator.RunAll();
  EXPECT_TRUE(t.IsNodeUp(1));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "node:1:down");
  EXPECT_EQ(events[1], "node:1:up");
}

TEST(Failure, RandomProcessInjectsAndRepairs) {
  sim::Simulator simulator;
  Topology t = MakeRing(8);
  FailureInjector injector(simulator, t, Rng(77));
  injector.StartRandomLinkFailures(2 * sim::kSecond, sim::kSecond,
                                   20 * sim::kSecond);
  simulator.RunUntil(20 * sim::kSecond);
  EXPECT_GT(injector.failures_injected(), 0u);
  // Eventually everything repairs (no failure scheduled past the horizon).
  simulator.RunAll();
  for (LinkId l = 0; l < t.link_count(); ++l) EXPECT_TRUE(t.IsLinkUp(l));
}

}  // namespace
}  // namespace viator::net
