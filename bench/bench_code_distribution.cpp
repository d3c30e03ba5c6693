// E11 — §B code distribution: "a code distribution mechanism ensures that
// shuttle processing routines are automatically and dynamically transferred
// to the ships where they are required" (the ANTS demand-loading scheme).
//
// Reproduction: (a) cold vs warm execution latency (the cold path pays a
// code-request round trip to the origin), (b) code-cache hit ratio vs cache
// size under a Zipf program population.
#include <cstdio>
#include <iostream>

#include "base/strings.h"
#include "core/wandering_network.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "telemetry/bench_report.h"
#include "vm/assembler.h"

using namespace viator;

int main() {
  std::printf("E11 / demand code distribution\n\n");
  telemetry::BenchReport report("code_distribution");

  // (a) Cold vs warm path over increasing distance to the origin.
  {
    TablePrinter table({"hops to origin", "cold latency", "warm latency",
                        "cold/warm"});
    for (std::size_t hops : {1u, 2u, 4u, 6u}) {
      sim::Simulator simulator;
      net::LinkConfig link;
      link.latency = 5 * sim::kMillisecond;
      net::Topology topology = net::MakeLine(hops + 1, link);
      wli::WnConfig config;
      wli::WanderingNetwork wn(simulator, topology, config, 3);
      wn.PopulateAllNodes();
      auto program = vm::Assemble("routine", "push 1\nsys emit\nhalt\n");
      (void)wn.PublishProgram(*program, 0);  // origin at node 0

      const net::NodeId executor = static_cast<net::NodeId>(hops);
      auto measure = [&]() {
        std::uint64_t executions = wn.ship(executor)->code_executions();
        const sim::TimePoint start = simulator.now();
        wli::Shuttle s = wli::Shuttle::Data(executor, executor, {1}, 1);
        s.code_digest = program->digest();
        (void)wn.Inject(std::move(s));
        simulator.RunAll();
        (void)executions;
        return simulator.now() - start;
      };
      const auto cold = measure();
      const auto warm = measure();
      table.AddRow({std::to_string(hops), FormatNanos(cold),
                    FormatNanos(warm),
                    cold > 0 && warm > 0
                        ? FormatDouble(static_cast<double>(cold) /
                                           static_cast<double>(warm),
                                       1) + "x"
                        : "inf (warm is local)"});
    }
    std::printf("(a) execution latency: first use (cold, fetches code from"
                " origin) vs second use (warm, cache hit)\n");
    table.Print(std::cout);
  }

  // (b) Cache hit ratio vs cache size under Zipf-popular programs.
  {
    TablePrinter table({"cache size", "programs cached", "hit ratio",
                        "code-fetch shuttles"});
    // Build a population of 40 distinct programs of ~identical size.
    std::vector<vm::Program> population;
    for (int i = 0; i < 40; ++i) {
      auto program = vm::Assemble(
          std::string("p").append(std::to_string(i)),
          "push " + std::to_string(i) + "\nsys emit\nhalt\n");
      population.push_back(*program);
    }
    const std::size_t each = population[0].WireSize() + 16;
    for (std::size_t capacity_programs : {4u, 8u, 16u, 40u}) {
      sim::Simulator simulator;
      net::Topology topology = net::MakeLine(3);
      wli::WnConfig config;
      config.quota.code_cache_bytes = capacity_programs * each;
      wli::WanderingNetwork wn(simulator, topology, config, 11);
      wn.PopulateAllNodes();
      for (const auto& program : population) {
        (void)wn.PublishProgram(program, 0);
      }
      Rng rng(capacity_programs);
      constexpr int kShuttles = 500;
      for (int i = 0; i < kShuttles; ++i) {
        const auto& program = population[rng.Zipf(population.size(), 1.0)];
        wli::Shuttle s = wli::Shuttle::Data(1, 2, {i}, i);
        s.code_digest = program.digest();
        (void)wn.Inject(std::move(s));
        simulator.RunAll();
      }
      auto& cache = wn.ship(2)->os().code_cache();
      const double hit_ratio =
          static_cast<double>(cache.hits()) /
          static_cast<double>(cache.hits() + cache.misses());
      table.AddRow({std::to_string(capacity_programs) + " programs",
                    std::to_string(cache.entry_count()),
                    FormatDouble(hit_ratio * 100, 1) + "%",
                    std::to_string(wn.ship(2)->code_misses())});
      report.Set("hit_ratio_cap" + std::to_string(capacity_programs),
                 hit_ratio);
    }
    std::printf("\n(b) per-ship code cache under 500 Zipf(1.0) shuttles"
                " over 40 programs\n");
    table.Print(std::cout);
  }

  std::printf("\nexpected shape: cold/warm gap grows with origin distance"
              " (one request-reply RTT); hit ratio climbs with cache size"
              " and saturates at 100%% when every program fits.\n");
  (void)report.Write();
  return 0;
}
