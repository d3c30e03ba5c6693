// E16 — substrate micro-benchmarks (google-benchmark): the costs every
// macro experiment is built on. Event queue operations, VM dispatch,
// hashing, the TLV genome codec, fact-store operations and shortest paths.
// Plus the sharded tier: a thread sweep of the multi-core window executor
// over a 256x256 grid, recording events/sec and speedup (wall metrics, never
// gated) alongside the deterministic event/handoff/window counters that the
// CI bench gate pins against bench/baselines/BENCH_micro_substrate.json.
// Plus the dispatch tier: 10k+ ships on a 104x104 grid draining column
// flows with the route cache off vs on — equal deterministic counters prove
// the cache decision-identical while VIATOR_REQUIRE_SPEEDUP enforces its
// 2x dispatch-throughput win.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "base/hash.h"
#include "base/rng.h"
#include "base/tlv.h"
#include "core/facts.h"
#include "core/genetic_transcoder.h"
#include "core/ship.h"
#include "core/wandering_network.h"
#include "net/topology.h"
#include "plane_harness.h"
#include "shard/plan.h"
#include "shard/sharded_network.h"
#include "sim/simulator.h"
#include "vm/assembler.h"
#include "vm/interpreter.h"
#include "vm/verifier.h"

namespace {

using namespace viator;

void BM_EventScheduleDispatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    for (std::size_t i = 0; i < batch; ++i) {
      simulator.ScheduleAt(i, [] {});
    }
    benchmark::DoNotOptimize(simulator.RunAll());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventScheduleDispatch)->Arg(64)->Arg(1024)->Arg(16384);

void BM_VmArithmeticLoop(benchmark::State& state) {
  auto program = vm::Assemble("loop", R"(
  push 1000
  store 0
loop:
  load 0
  jz done
  load 0
  push -1
  add
  store 0
  jmp loop
done:
  halt
)");
  (void)vm::Verify(*program);
  vm::Environment env;
  vm::Interpreter interpreter;
  for (auto _ : state) {
    auto result = interpreter.Run(*program, env, 1 << 20);
    benchmark::DoNotOptimize(result.fuel_used);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          6003);  // instructions per run
}
BENCHMARK(BM_VmArithmeticLoop);

void BM_VmVerify(benchmark::State& state) {
  auto program = vm::Assemble("verify-me", R"(
  push 10
  store 0
loop:
  load 0
  jz done
  load 0
  push -1
  add
  store 0
  sys random
  pop
  jmp loop
done:
  halt
)");
  for (auto _ : state) {
    auto info = vm::Verify(*program);
    benchmark::DoNotOptimize(info.ok());
  }
}
BENCHMARK(BM_VmVerify);

void BM_Fnv1aHash(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> data(size, std::byte{0x5a});
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashBytes(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Fnv1aHash)->Arg(64)->Arg(1024)->Arg(65536);

void BM_GenomeEncodeDecode(benchmark::State& state) {
  wli::ShipBlueprint blueprint;
  blueprint.role = node::FirstLevelRole::kFusion;
  for (int i = 0; i < 8; ++i) {
    blueprint.facts.push_back({static_cast<wli::FactKey>(i), i * 10, 1.5});
    blueprint.resident_programs.push_back(0x1000 + i);
  }
  wli::NetFunction fn;
  fn.id = 1;
  fn.name = "bench-fn";
  fn.fact_keys = {1, 2, 3};
  blueprint.functions.push_back(fn);
  for (auto _ : state) {
    const auto genome = wli::EncodeBlueprint(blueprint);
    auto decoded = wli::DecodeBlueprint(genome);
    benchmark::DoNotOptimize(decoded.ok());
  }
}
BENCHMARK(BM_GenomeEncodeDecode);

void BM_FactStoreTouch(benchmark::State& state) {
  wli::FactStore store;
  Rng rng(1);
  sim::TimePoint now = 0;
  for (auto _ : state) {
    store.Touch(rng.UniformInt(0, 1023), 1, 1.0, now);
    now += 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FactStoreTouch);

void BM_FactStoreSweep(benchmark::State& state) {
  const auto population = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    wli::FactStoreConfig cfg;
    cfg.capacity = population * 2;
    wli::FactStore store(cfg);
    for (std::size_t i = 0; i < population; ++i) {
      store.Touch(i, 1, 1.0, 0);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(store.Sweep(60 * sim::kSecond));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(population));
}
BENCHMARK(BM_FactStoreSweep)->Arg(256)->Arg(4096);

void BM_ShortestPathGrid(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  net::Topology topology = net::MakeGrid(side, side);
  const auto last = static_cast<net::NodeId>(side * side - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology.ShortestPath(0, last));
  }
}
BENCHMARK(BM_ShortestPathGrid)->Arg(8)->Arg(16)->Arg(32);

void BM_ZipfDraw(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Zipf(1000, 1.1));
  }
}
BENCHMARK(BM_ZipfDraw);

/// Console output as usual, plus every run's adjusted real time captured
/// into BENCH_micro_substrate.json for the CI perf trajectory.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(telemetry::BenchReport& report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      report_.Set(run.benchmark_name() + ".real_ns",
                  run.GetAdjustedRealTime());
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        report_.Set(run.benchmark_name() + ".items_per_s",
                    items->second.value);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  telemetry::BenchReport& report_;
};

// ---- Sharded tier -----------------------------------------------------------

struct ShardedRun {
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t handoffs = 0;
};

/// One sharded run: 4 row-band shards of a side x side grid, a fixed shuttle
/// load, a fixed window count (so the event totals are exactly reproducible
/// for the gate), hashing off (the raw-speed setting). Only the window loop
/// is timed — world construction is setup, not simulation.
ShardedRun RunShardedTier(std::size_t side, std::size_t threads,
                          std::size_t windows, std::uint64_t load) {
  shard::ShardedConfig config;
  config.shard_count = 4;
  config.threads = threads;
  config.hash_every = 0;
  config.assignment = shard::GridRowBands(side, side, 4);
  net::Topology grid = net::MakeGrid(side, side);
  shard::ShardedNetwork world(grid, config);
  const std::uint64_t nodes = side * side;
  const std::uint64_t band_rows = side / 4;
  for (std::uint64_t i = 0; i < load; ++i) {
    // Start a few rows above a band boundary, near the boundary's exit
    // gateway (the lowest-id cross link, column 0), and aim a few rows below
    // it: short routes that finish inside the sweep, most crossing a shard
    // boundary so the handoff/merge path is genuinely loaded.
    const std::uint64_t band = i % 3;
    const std::uint64_t row =
        (band + 1) * band_rows - 1 - ((i * 2654435761ULL) % 4);
    const std::uint64_t col = (i * 40503ULL + 7) % 8;
    const std::uint64_t src = row * side + col;
    const std::uint64_t dst = (src + side * 4 + (i % 8)) % nodes;
    (void)world.Inject(src, dst, {static_cast<std::int64_t>(i)}, i);
  }
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t events = world.RunWindows(windows);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ShardedRun run;
  run.seconds = std::chrono::duration<double>(elapsed).count();
  run.events = events;
  run.handoffs = world.stats().CounterValue("shard.handoffs");
  return run;
}

/// Thread sweep 1/2/4/8. Returns false when the sweep violates its own
/// contract: the deterministic counters must be identical for every thread
/// count, and (only when VIATOR_REQUIRE_SPEEDUP is set on a >=4-core
/// machine) 4 threads must clear 2x the single-thread event rate.
bool RunShardedSweep(telemetry::BenchReport& report) {
  // Per-hop routing cost scales with active shuttles, so the sweep keeps the
  // 256x256 grid (the scale claim) but bounds the shuttle load and window
  // count to stay CI-sized.
  constexpr std::size_t side = 256;
  constexpr std::size_t windows = 12;
  constexpr std::uint64_t load = 8192;
  report.Set("sharded.grid_side", static_cast<double>(side));
  report.Set("sharded.shards", 4.0);
  report.Set("sharded.windows", static_cast<double>(windows));
  report.Set("sharded.load", static_cast<double>(load));

  bool ok = true;
  double serial_rate = 0.0;
  double quad_rate = 0.0;
  ShardedRun reference;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const ShardedRun run = RunShardedTier(side, threads, windows, load);
    const double rate = run.seconds > 0.0
                            ? static_cast<double>(run.events) / run.seconds
                            : 0.0;
    std::printf("sharded t=%zu: %llu events in %.3fs (%.0f events/s)\n",
                threads, static_cast<unsigned long long>(run.events),
                run.seconds, rate);
    report.Set("sharded.events_per_sec.t" + std::to_string(threads), rate);
    if (threads == 1) {
      serial_rate = rate;
      reference = run;
      // The gate-able counters: bit-identical on every machine and thread
      // count, so any drift is a real behavior change.
      report.Set("sharded.events", static_cast<double>(run.events));
      report.Set("sharded.handoffs", static_cast<double>(run.handoffs));
    } else if (run.events != reference.events ||
               run.handoffs != reference.handoffs) {
      std::fprintf(stderr,
                   "sharded sweep: t=%zu diverged from t=1 "
                   "(events %llu vs %llu, handoffs %llu vs %llu)\n",
                   threads, static_cast<unsigned long long>(run.events),
                   static_cast<unsigned long long>(reference.events),
                   static_cast<unsigned long long>(run.handoffs),
                   static_cast<unsigned long long>(reference.handoffs));
      ok = false;
    }
    if (threads == 4) quad_rate = rate;
  }
  const double speedup = serial_rate > 0.0 ? quad_rate / serial_rate : 0.0;
  report.Set("sharded.speedup.t4", speedup);
  std::printf("sharded speedup t4/t1: %.2fx\n", speedup);
  if (std::getenv("VIATOR_REQUIRE_SPEEDUP") != nullptr &&
      std::thread::hardware_concurrency() >= 4 && speedup < 2.0) {
    std::fprintf(stderr,
                 "sharded sweep: speedup %.2fx below the required 2.0x\n",
                 speedup);
    ok = false;
  }
  return ok;
}

// ---- Dispatch tier ----------------------------------------------------------

struct DispatchRun {
  double seconds = 0.0;
  std::uint64_t events = 0;     // simulator dispatches during the drain
  std::uint64_t delivered = 0;  // shuttles consumed at their destinations
  std::uint64_t hits = 0;       // route-cache hits (cached leg only)
  std::uint64_t misses = 0;     // route-cache row fills (cached leg only)
};

/// One dispatch run over the harness's dispatch-tier world. Only the drain
/// is timed — world construction and injection are setup, not dispatch.
DispatchRun RunDispatchTier(const bench::DispatchShape& shape, bool cache_on) {
  bench::DispatchWorld world(shape, cache_on);
  world.InjectColumnFlows();

  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t events = world.simulator.RunAll();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  DispatchRun run;
  run.seconds = std::chrono::duration<double>(elapsed).count();
  run.events = events;
  world.network.ForEachShip([&run](wli::Ship& ship) {
    run.delivered += ship.shuttles_consumed();
  });
  run.hits = world.grid.route_cache_stats().hits;
  run.misses = world.grid.route_cache_stats().misses;
  return run;
}

/// Cache-off vs cache-on legs over the same seeded 10k-ship world. Equal
/// event and delivery counts prove the route cache decision-identical to
/// BFS-per-hop at scale; the wall rates measure its win. The deterministic
/// counters land in the committed baseline; rates and the speedup carry
/// gate-exempt names ("per_sec", "speedup"). With VIATOR_REQUIRE_SPEEDUP set
/// the cached leg must clear 2x the uncached event rate.
bool RunDispatchSweep(telemetry::BenchReport& report) {
  const bench::DispatchShape shape = bench::DispatchShape::FromEnv();
  report.Set("dispatch.grid_side", static_cast<double>(shape.side));
  report.Set("dispatch.ships", static_cast<double>(shape.side * shape.side));
  report.Set("dispatch.flows", static_cast<double>(shape.flows));
  report.Set("dispatch.rounds", static_cast<double>(shape.rounds));

  const DispatchRun uncached = RunDispatchTier(shape, false);
  const DispatchRun cached = RunDispatchTier(shape, true);
  const auto rate = [](const DispatchRun& run) {
    return run.seconds > 0.0 ? static_cast<double>(run.events) / run.seconds
                             : 0.0;
  };
  const double uncached_rate = rate(uncached);
  const double cached_rate = rate(cached);
  const double speedup =
      uncached_rate > 0.0 ? cached_rate / uncached_rate : 0.0;
  std::printf("dispatch cache=off: %llu events in %.3fs (%.0f events/s)\n",
              static_cast<unsigned long long>(uncached.events),
              uncached.seconds, uncached_rate);
  std::printf(
      "dispatch cache=on:  %llu events in %.3fs (%.0f events/s, "
      "%llu hits / %llu fills)\n",
      static_cast<unsigned long long>(cached.events), cached.seconds,
      cached_rate, static_cast<unsigned long long>(cached.hits),
      static_cast<unsigned long long>(cached.misses));
  std::printf("dispatch speedup cached/uncached: %.2fx\n", speedup);

  report.Set("dispatch.events", static_cast<double>(cached.events));
  report.Set("dispatch.delivered", static_cast<double>(cached.delivered));
  report.Set("dispatch.cache_hits", static_cast<double>(cached.hits));
  report.Set("dispatch.cache_misses", static_cast<double>(cached.misses));
  report.Set("dispatch.events_per_sec.cached", cached_rate);
  report.Set("dispatch.events_per_sec.uncached", uncached_rate);
  report.Set("dispatch.speedup", speedup);

  bool ok = true;
  if (uncached.events != cached.events ||
      uncached.delivered != cached.delivered) {
    std::fprintf(stderr,
                 "dispatch tier: cache changed behavior (events %llu vs "
                 "%llu, delivered %llu vs %llu)\n",
                 static_cast<unsigned long long>(uncached.events),
                 static_cast<unsigned long long>(cached.events),
                 static_cast<unsigned long long>(uncached.delivered),
                 static_cast<unsigned long long>(cached.delivered));
    ok = false;
  }
  const std::uint64_t injected = shape.flows * shape.rounds;
  if (cached.delivered < injected) {
    std::fprintf(stderr,
                 "dispatch tier: only %llu of %llu shuttles delivered\n",
                 static_cast<unsigned long long>(cached.delivered),
                 static_cast<unsigned long long>(injected));
    ok = false;
  }
  if (std::getenv("VIATOR_REQUIRE_SPEEDUP") != nullptr && speedup < 2.0) {
    std::fprintf(stderr,
                 "dispatch tier: speedup %.2fx below the required 2.0x\n",
                 speedup);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  telemetry::BenchReport report("micro_substrate");
  JsonCaptureReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const bool sharded_ok = RunShardedSweep(report);
  const bool dispatch_ok = RunDispatchSweep(report);
  (void)report.Write();
  return (sharded_ok && dispatch_ok) ? 0 : 1;
}
