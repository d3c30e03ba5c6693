// E5 — Figure 4: vertical (intra-node) network wandering — virtual overlay
// networks spawned over the same physical infrastructure (clustering +
// spawning), including the "QoS oriented network topology on demand".
//
// Reproduction: (a) class activity on a grid drives the vertical wanderer
// to spawn per-class overlays; (b) a QoS latency-bound sweep shows which
// virtual links topology-on-demand admits; (c) overlay self-repair after a
// physical failure.
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
  std::printf("E5 / Figure 4 — vertical wandering: overlay spawning and"
              " QoS topology-on-demand\n\n");
  telemetry::BenchReport report("fig4_vertical_wandering");

  // (a) Activity-driven overlay spawning.
  {
    sim::Simulator simulator;
    net::Topology topology = net::MakeGrid(3, 3);
    wli::WnConfig config;
    config.vertical.spawn_threshold = 4.0;
    wli::WanderingNetwork wn(simulator, topology, config, 17);
    wn.PopulateAllNodes();

    auto program = vm::Assemble("work", "push 1\nsys emit\nhalt\n");
    (void)wn.PublishProgram(*program, 0);
    // Shuttle-borne work on two disjoint node groups, creating intra-node
    // class activity (the clustering precondition of Figure 4).
    for (net::NodeId dst : {1u, 2u, 4u, 5u}) {
      for (int i = 0; i < 3; ++i) {
        wli::Shuttle s = wli::Shuttle::Data(0, dst, {1}, 1);
        s.code_digest = program->digest();
        (void)wn.Inject(std::move(s));
      }
    }
    simulator.RunAll();
    wn.Pulse();

    TablePrinter table({"overlay (class)", "members", "virtual links",
                        "avg stretch"});
    for (const auto& [id, overlay] : wn.overlays().overlays()) {
      table.AddRow({overlay.name, std::to_string(overlay.members.size()),
                    std::to_string(overlay.links.size()),
                    FormatDouble(wn.overlays().AverageStretch(id), 2)});
    }
    std::printf("(a) overlays spawned from intra-node class activity"
                " (%llu spawned)\n",
                static_cast<unsigned long long>(
                    wn.overlays().spawned_total()));
    table.Print(std::cout);
  }

  // (b) QoS topology-on-demand: latency-bound sweep on a ring.
  {
    sim::Simulator simulator;
    net::LinkConfig link;
    link.latency = 10 * sim::kMillisecond;
    net::Topology topology = net::MakeRing(8, link);
    wli::WnConfig config;
    wli::WanderingNetwork wn(simulator, topology, config, 3);
    wn.PopulateAllNodes();

    TablePrinter table({"latency bound", "virtual links", "result"});
    const std::vector<net::NodeId> members = {0, 2, 4, 6};
    for (sim::Duration bound :
         {sim::Duration{0}, 60 * sim::kMillisecond, 25 * sim::kMillisecond,
          15 * sim::kMillisecond}) {
      auto id = wn.overlays().Spawn("qos", members, bound);
      if (id.ok()) {
        table.AddRow({bound == 0 ? "best effort" : FormatNanos(bound),
                      std::to_string(wn.overlays().Find(*id)->links.size()),
                      "connected"});
        (void)wn.overlays().Remove(*id);
      } else {
        table.AddRow({FormatNanos(bound), "-",
                      "rejected: " + std::string(StatusCodeName(
                                         id.status().code()))});
      }
    }
    std::printf("\n(b) QoS topology-on-demand over an 8-ring"
                " (10 ms links), members {0,2,4,6}\n");
    table.Print(std::cout);
  }

  // (c) Overlay self-repair after physical failure.
  {
    sim::Simulator simulator;
    net::Topology topology = net::MakeGrid(4, 4);
    wli::WnConfig config;
    wli::WanderingNetwork wn(simulator, topology, config, 5);
    wn.PopulateAllNodes();
    auto id = wn.overlays().Spawn("repairable", {1, 9, 15});
    const double stretch_before = wn.overlays().AverageStretch(*id);
    topology.SetNodeUp(5, false);  // node on the pinned 1-9 path
    const std::size_t repinned = wn.overlays().RefreshPaths();
    const double stretch_after = wn.overlays().AverageStretch(*id);
    TablePrinter table({"stage", "avg stretch", "links re-pinned"});
    table.AddRow({"before node-5 failure", FormatDouble(stretch_before, 2),
                  "-"});
    table.AddRow({"after refresh", FormatDouble(stretch_after, 2),
                  std::to_string(repinned)});
    std::printf("\n(c) overlay self-repair on a 4x4 grid\n");
    table.Print(std::cout);
    report.Set("stretch_before_failure", stretch_before);
    report.Set("stretch_after_refresh", stretch_after);
    report.Set("links_repinned", static_cast<double>(repinned));
  }

  std::printf("\nexpected shape: overlays appear where activity clusters;"
              " tighter QoS bounds admit fewer virtual links until the"
              " overlay disconnects; failures re-pin paths at a small"
              " stretch increase.\n");
  (void)report.Write();
  return 0;
}
