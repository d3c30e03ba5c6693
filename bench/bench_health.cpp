// Self-Referential Health Plane — probe overhead and coverage.
//
// For growing grid sizes, drive the same seeded shuttle workload twice —
// probes off, then probes on (one round per workload step) — and measure
// the wall-clock overhead the health plane adds plus what it buys: probes
// emitted/absorbed, per-hop samples collected and ships scored. The two
// runs must make identical simulation decisions (the determinism-neutrality
// property); the bench verifies that by comparing delivered-shuttle
// counters and aborts if they diverge — an overhead number measured against
// a different workload means nothing.
//
// BENCH_health.json keeps the deterministic coverage counters (gated in CI
// against bench/baselines/BENCH_health.json by `wnhealth bench`) alongside
// wall-clock metrics whose names carry "wall" so the gate ignores them.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>

#include "base/strings.h"
#include "core/wandering_network.h"
#include "health/probe.h"
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
  std::unique_ptr<health::ProbePlane> plane;

  Harness(int side, std::uint64_t seed, bool probes) {
    topology = net::MakeGrid(side, side);
    network = std::make_unique<wli::WanderingNetwork>(simulator, topology,
                                                      config, seed);
    network->PopulateAllNodes();
    health::HealthConfig hconfig;
    hconfig.enable_probes = probes;
    hconfig.collector = 0;
    plane = std::make_unique<health::ProbePlane>(*network, hconfig, seed);
  }

  void Drive(int steps) {
    const std::size_t n = topology.node_count();
    for (int i = 0; i < steps; ++i) {
      const auto src =
          static_cast<net::NodeId>(network->rng().UniformInt(0, n - 1));
      auto dst = static_cast<net::NodeId>(network->rng().UniformInt(0, n - 1));
      if (dst == src) dst = static_cast<net::NodeId>((dst + 1) % n);
      (void)network->Inject(wli::Shuttle::Data(
          src, dst, {static_cast<std::int64_t>(i), 3, 5}, i + 1));
      simulator.RunAll();
      plane->RunRound();  // no-op when probes are off
      simulator.RunAll();
      if (i % 8 == 7) {
        network->Pulse();
        simulator.RunAll();
      }
    }
    plane->Evaluate();
  }

  std::uint64_t Delivered() const {
    std::uint64_t total = 0;
    const_cast<wli::WanderingNetwork&>(*network).ForEachShip(
        [&total](wli::Ship& ship) { total += ship.shuttles_consumed(); });
    return total;
  }
};

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  constexpr int kReps = 3;
  constexpr int kSteps = 256;

  std::printf("Self-Referential Health Plane — probe overhead (seeded grid"
              " workload, %d steps, %d reps per row)\n\n", kSteps, kReps);

  TablePrinter table({"grid", "ships", "off ms", "on ms", "overhead",
                      "probes", "hops", "absorbed%"});
  telemetry::BenchReport report("health");

  for (const int side : {3, 4, 6}) {
    double off_ms = 0, on_ms = 0;
    std::uint64_t emitted = 0, absorbed = 0, hops = 0;

    for (int rep = 0; rep < kReps; ++rep) {
      const std::uint64_t seed = 0x4ea17 + 1000 * side + rep;

      Harness off(side, seed, false);
      auto t0 = std::chrono::steady_clock::now();
      off.Drive(kSteps);
      off_ms += MillisSince(t0);

      Harness on(side, seed, true);
      t0 = std::chrono::steady_clock::now();
      on.Drive(kSteps);
      on_ms += MillisSince(t0);

      // Determinism-neutrality check: the probe-on run must have made the
      // exact same workload decisions, or the overhead numbers are noise.
      if (on.Delivered() != off.Delivered()) {
        std::fprintf(stderr,
                     "neutrality violated for %dx%d rep %d: %llu vs %llu"
                     " shuttles delivered\n",
                     side, side, rep,
                     static_cast<unsigned long long>(on.Delivered()),
                     static_cast<unsigned long long>(off.Delivered()));
        return 1;
      }
      emitted = on.plane->probes_emitted();
      absorbed = on.plane->probes_absorbed();
      hops = on.plane->BuildReport().summary.hops_observed;
    }

    const double overhead =
        off_ms > 0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;
    table.AddRow(
        {std::to_string(side) + "x" + std::to_string(side),
         std::to_string(side * side),
         FormatDouble(off_ms / kReps, 2), FormatDouble(on_ms / kReps, 2),
         FormatDouble(overhead, 1) + "%", std::to_string(emitted),
         std::to_string(hops),
         FormatDouble(emitted > 0 ? 100.0 * static_cast<double>(absorbed) /
                                        static_cast<double>(emitted)
                                  : 0.0,
                      1)});

    const std::string suffix = std::string("_")
                                   .append(std::to_string(side))
                                   .append("x")
                                   .append(std::to_string(side));
    // Deterministic coverage counters — these gate in CI.
    report.Set("probes_emitted" + suffix, static_cast<double>(emitted));
    report.Set("probes_absorbed" + suffix, static_cast<double>(absorbed));
    report.Set("hops_observed" + suffix, static_cast<double>(hops));
    // Wall-clock metrics — "wall" in the name keeps the gate away.
    report.Set("off_wall_ms" + suffix, off_ms / kReps);
    report.Set("on_wall_ms" + suffix, on_ms / kReps);
    report.Set("overhead_wall_pct" + suffix, overhead);
  }
  table.Print(std::cout);
  (void)report.Write();

  std::printf("\nexpected shape: probe rounds add a small constant cost per"
              " step (a handful of zero-byte frames wandering the grid);"
              " delivered-shuttle counts are bit-identical between the two"
              " runs because probes skip the loss draw, the router and every"
              " ship counter. coverage counters are deterministic and gate"
              " against bench/baselines/BENCH_health.json.\n");
  return 0;
}
