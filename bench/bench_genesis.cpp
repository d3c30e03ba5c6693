// Network Genesis — snapshot/restore throughput and delta sizing.
//
// For growing grid sizes, drive a seeded shuttle workload to quiescence,
// then measure: full capture wall time + snapshot size, restore wall time
// into a fresh network, and the incremental delta size after a short
// perturbation (a few more workload steps). Restores are verified by
// comparing the recaptured section digests against the original full
// snapshot — a benchmark that silently restores garbage reports nothing.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>

#include "base/strings.h"
#include "core/wandering_network.h"
#include "genesis/manager.h"
#include "genesis/snapshot.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "telemetry/bench_report.h"

using namespace viator;

namespace {

struct Harness {
  sim::Simulator simulator;
  net::Topology topology;
  wli::WnConfig config;
  std::unique_ptr<wli::WanderingNetwork> network;

  Harness(int side, std::uint64_t seed, bool populate) {
    if (populate) topology = net::MakeGrid(side, side);
    network = std::make_unique<wli::WanderingNetwork>(simulator, topology,
                                                      config, seed);
    if (populate) network->PopulateAllNodes();
  }

  void Drive(int begin, int end) {
    const std::size_t n = topology.node_count();
    for (int i = begin; i < end; ++i) {
      const auto src =
          static_cast<net::NodeId>(network->rng().UniformInt(0, n - 1));
      auto dst = static_cast<net::NodeId>(network->rng().UniformInt(0, n - 1));
      if (dst == src) dst = static_cast<net::NodeId>((dst + 1) % n);
      (void)network->Inject(wli::Shuttle::Data(
          src, dst, {static_cast<std::int64_t>(i), 3, 5}, i + 1));
      simulator.RunAll();
      if (i % 8 == 7) {
        network->Pulse();
        simulator.RunAll();
      }
    }
  }
};

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool SameSections(const std::vector<std::byte>& a,
                  const std::vector<std::byte>& b) {
  auto pa = genesis::ParseSnapshot(a);
  auto pb = genesis::ParseSnapshot(b);
  if (!pa.ok() || !pb.ok()) return false;
  if (pa->sections.size() != pb->sections.size()) return false;
  for (std::size_t i = 0; i < pa->sections.size(); ++i) {
    if (pa->sections[i].id != pb->sections[i].id ||
        pa->sections[i].digest != pb->sections[i].digest) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  std::printf("Network Genesis — snapshot/restore throughput (seeded grid"
              " workload, %d reps per row)\n\n", 5);

  constexpr int kReps = 5;
  constexpr int kWarmSteps = 96;   // workload before the full capture
  constexpr int kDeltaSteps = 16;  // perturbation before the delta capture

  TablePrinter table({"grid", "ships", "full KB", "capture ms", "restore ms",
                      "delta KB", "delta/full"});
  telemetry::BenchReport report("genesis");

  for (const int side : {4, 6, 8}) {
    double capture_ms = 0, restore_ms = 0;
    std::size_t full_bytes = 0, delta_bytes = 0;
    std::size_t ships = 0;
    bool verified = true;

    for (int rep = 0; rep < kReps; ++rep) {
      const std::uint64_t seed = 0x6e5 + 1000 * side + rep;
      Harness source(side, seed, true);
      source.Drive(0, kWarmSteps);
      ships = source.topology.node_count();

      genesis::GenesisManager manager(*source.network);
      auto t0 = std::chrono::steady_clock::now();
      auto full = manager.CaptureFull();
      capture_ms += MillisSince(t0);
      if (!full.ok()) {
        std::fprintf(stderr, "capture: %s\n", full.status().ToString().c_str());
        return 1;
      }
      full_bytes = full->size();

      Harness target(side, seed, false);
      genesis::GenesisManager restorer(*target.network);
      t0 = std::chrono::steady_clock::now();
      if (Status s = restorer.RestoreFull(*full); !s.ok()) {
        std::fprintf(stderr, "restore: %s\n", s.ToString().c_str());
        return 1;
      }
      restore_ms += MillisSince(t0);

      auto recaptured = restorer.CaptureFull();
      verified = verified && recaptured.ok() &&
                 SameSections(*full, *recaptured);

      source.Drive(kWarmSteps, kWarmSteps + kDeltaSteps);
      auto delta = manager.CaptureDelta();
      if (!delta.ok()) {
        std::fprintf(stderr, "delta: %s\n", delta.status().ToString().c_str());
        return 1;
      }
      delta_bytes = delta->size();
    }

    if (!verified) {
      std::fprintf(stderr, "restore verification failed for %dx%d\n", side,
                   side);
      return 1;
    }
    table.AddRow(
        {std::to_string(side) + "x" + std::to_string(side),
         std::to_string(ships),
         FormatDouble(static_cast<double>(full_bytes) / 1024.0, 1),
         FormatDouble(capture_ms / kReps, 2),
         FormatDouble(restore_ms / kReps, 2),
         FormatDouble(static_cast<double>(delta_bytes) / 1024.0, 1),
         FormatDouble(static_cast<double>(delta_bytes) /
                          static_cast<double>(full_bytes),
                      2)});
    const std::string suffix = std::string("_")
                                   .append(std::to_string(side))
                                   .append("x")
                                   .append(std::to_string(side));
    report.Set("full_kib" + suffix,
               static_cast<double>(full_bytes) / 1024.0);
    report.Set("capture_ms" + suffix, capture_ms / kReps);
    report.Set("restore_ms" + suffix, restore_ms / kReps);
  }
  table.Print(std::cout);
  (void)report.Write();

  std::printf("\nexpected shape: capture and restore scale roughly linearly"
              " with ship count; deltas after a short perturbation stay well"
              " under the full snapshot because unchanged sections (topology,"
              " repository, placements) are elided. every restore is verified"
              " against the source snapshot's section digests.\n");
  return 0;
}
