// wnreplay — Wandering Flight Recorder tool: record, time-travel, bisect.
//
//   wnreplay record <out.wnj> [--seed N] [--rows N] [--cols N] [--steps N]
//                   [--perturb STEP] [--trace]
//                                        run the seeded scenario start to
//                                        finish and save the flight file
//                                        (scenario config + decision journal)
//   wnreplay inspect <file.wnj>          print the journal summary (records,
//                                        digest, steps, final state hash)
//   wnreplay seek  <file.wnj> <step>     re-record, travel to the step via
//                                        checkpoint restore + re-execution
//                                        and verify the state hash against
//                                        the recorded run (exit 4 on
//                                        mismatch — the travel left the
//                                        recorded timeline)
//   wnreplay step  <file.wnj> <step> <n> single-step: seek, then dispatch n
//                                        events one at a time, printing the
//                                        virtual time of each
//   wnreplay watch <file.wnj> <spec>     re-execute until a metric crosses
//                                        the predicate; spec grammar is
//                                        counter:name>=42 / gauge:name<=0.5
//                                        (ops >=, <=, ==, !=); exit 3 when
//                                        it never fires
//   wnreplay diff  <a.wnj> <b.wnj>       compare two journals: exit 0 when
//                                        identical, 3 with the first
//                                        divergent step when they differ
//   wnreplay bisect <a.wnj> <b.wnj>      checkpoint-assisted bisection: find
//                                        the exact first divergent decision
//                                        (exit 3 when the runs are
//                                        identical, nothing to bisect)
//
// Exit codes are CI-stable: 0 ok/identical/found, 1 I/O error, 2 usage,
// 3 differ/no-hit, 4 replay gate mismatch.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "replay/auditor.h"
#include "replay/controller.h"
#include "replay/journal.h"
#include "replay/scenario.h"

namespace {

using namespace viator;  // tool code; the library never does this

int Usage() {
  std::cerr
      << "usage: wnreplay record <out.wnj> [--seed N] [--rows N] [--cols N]"
         " [--steps N] [--perturb STEP] [--trace]\n"
         "       wnreplay inspect <file.wnj>\n"
         "       wnreplay seek   <file.wnj> <step>\n"
         "       wnreplay step   <file.wnj> <step> <n>\n"
         "       wnreplay watch  <file.wnj> <spec>\n"
         "       wnreplay diff   <a.wnj> <b.wnj>\n"
         "       wnreplay bisect <a.wnj> <b.wnj>\n";
  return 2;
}

using replay::FlightFile;

bool WriteFlightFile(const std::string& path, const FlightFile& file) {
  const std::vector<std::byte> bytes = file.Save();
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "wnreplay: cannot open " << path << " for writing\n";
    return false;
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::optional<FlightFile> ReadFlightFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "wnreplay: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  auto file = FlightFile::Load(
      {reinterpret_cast<const std::byte*>(raw.data()), raw.size()});
  if (!file.ok()) {
    std::cerr << "wnreplay: " << path << " is not a valid flight file: "
              << file.status().message() << "\n";
    return std::nullopt;
  }
  return *std::move(file);
}

int RunRecord(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string out_path = argv[0];
  replay::ScenarioConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::optional<std::uint64_t> {
      if (i + 1 >= argc) return std::nullopt;
      return std::strtoull(argv[++i], nullptr, 0);
    };
    if (arg == "--trace") {
      config.tracing = true;
    } else if (arg == "--seed") {
      if (auto v = next()) config.seed = *v; else return Usage();
    } else if (arg == "--rows") {
      if (auto v = next()) config.rows = *v; else return Usage();
    } else if (arg == "--cols") {
      if (auto v = next()) config.cols = *v; else return Usage();
    } else if (arg == "--steps") {
      if (auto v = next()) config.steps = *v; else return Usage();
    } else if (arg == "--perturb") {
      if (auto v = next()) config.perturb_step = *v; else return Usage();
    } else {
      return Usage();
    }
  }
  replay::ReplayWorld world(config);
  world.RunToStep(config.steps);
  if (!WriteFlightFile(out_path, {config, world.journal()})) return 1;
  std::cout << "recorded " << config.steps << " steps, "
            << world.journal().total_records() << " decisions, digest 0x"
            << std::hex << world.journal().rolling_digest() << std::dec
            << " -> " << out_path << "\n";
  return 0;
}

int RunInspect(const std::string& path) {
  const auto file = ReadFlightFile(path);
  if (!file) return 1;
  const auto& journal = file->journal;
  std::cout << "scenario: seed=" << file->config.seed << " grid="
            << file->config.rows << "x" << file->config.cols << " steps="
            << file->config.steps << " perturb=" << file->config.perturb_step
            << "\n"
            << "journal: " << journal.total_records() << " decisions ("
            << journal.size() << " in ring, " << journal.dropped_records()
            << " dropped), digest 0x" << std::hex << journal.rolling_digest()
            << std::dec << "\n"
            << "windows: " << journal.window_hashes().size() << " step hashes";
  if (!journal.window_hashes().empty()) {
    std::cout << ", final 0x" << std::hex
              << journal.window_hashes().back().second << std::dec;
  }
  std::cout << "\n";
  return 0;
}

/// Re-records the scenario and positions the cursor; shared by seek/step.
std::optional<replay::ReplayController> SeekCursor(const FlightFile& file,
                                                   std::size_t step) {
  replay::ReplayController controller(file.config);
  controller.RecordFull();
  if (auto status = controller.SeekToStep(step); !status.ok()) {
    std::cerr << "wnreplay: seek failed: " << status.message() << "\n";
    return std::nullopt;
  }
  return controller;
}

int RunSeek(const std::string& path, std::size_t step) {
  const auto file = ReadFlightFile(path);
  if (!file) return 1;
  auto controller = SeekCursor(*file, step);
  if (!controller) return 1;
  const std::uint64_t hash = controller->cursor()->StateHash();
  // Gate 1: the re-execution matches its own recording.
  if (auto status = controller->VerifySeek(); !status.ok()) {
    std::cerr << "wnreplay: " << status.message() << "\n";
    return 4;
  }
  // Gate 2: it also matches the hash the flight file recorded — the travel
  // landed on the original run's timeline, not merely a self-consistent one.
  for (const auto& [window, recorded] : file->journal.window_hashes()) {
    if (window == step && recorded != hash) {
      std::cerr << "wnreplay: state hash 0x" << std::hex << hash
                << " diverges from recorded 0x" << recorded << std::dec
                << " at step " << step << "\n";
      return 4;
    }
  }
  std::cout << "step " << step << " t=" << controller->cursor()->simulator().now()
            << " state 0x" << std::hex << hash << std::dec << " (verified)\n";
  return 0;
}

int RunStep(const std::string& path, std::size_t step, std::size_t count) {
  const auto file = ReadFlightFile(path);
  if (!file) return 1;
  auto controller = SeekCursor(*file, step);
  if (!controller) return 1;
  for (std::size_t i = 0; i < count; ++i) {
    const auto when = controller->StepDispatch();
    if (!when) {
      std::cout << "scenario exhausted after " << i << " dispatches\n";
      return 0;
    }
    std::cout << "dispatch " << (i + 1) << " t=" << *when << " step="
              << controller->cursor()->step() << "\n";
  }
  return 0;
}

int RunWatch(const std::string& path, const std::string& spec) {
  const auto file = ReadFlightFile(path);
  if (!file) return 1;
  const auto watch = replay::Watchpoint::Parse(spec);
  if (!watch.ok()) {
    std::cerr << "wnreplay: " << watch.status().message() << "\n";
    return 2;
  }
  auto controller = SeekCursor(*file, 0);
  if (!controller) return 1;
  const auto hit = controller->RunUntilWatch(*watch);
  if (!hit.ok()) {
    std::cout << "watchpoint never fired: " << spec << "\n";
    return 3;
  }
  std::cout << "watchpoint hit at step " << hit->step << " t=" << hit->time
            << " value=" << hit->observed << "\n";
  return 0;
}

int RunDiff(const std::string& path_a, const std::string& path_b) {
  const auto a = ReadFlightFile(path_a);
  const auto b = ReadFlightFile(path_b);
  if (!a || !b) return 1;
  const auto report =
      replay::DivergenceAuditor::Compare(a->journal, b->journal);
  std::cout << report.summary << "\n";
  return report.diverged ? 3 : 0;
}

int RunBisect(const std::string& path_a, const std::string& path_b) {
  const auto a = ReadFlightFile(path_a);
  const auto b = ReadFlightFile(path_b);
  if (!a || !b) return 1;
  replay::ReplayController controller_a(a->config);
  replay::ReplayController controller_b(b->config);
  controller_a.RecordFull();
  controller_b.RecordFull();
  // The re-recordings must reproduce the flight files before bisection means
  // anything.
  const bool reproduced =
      a->journal.rolling_digest() ==
          controller_a.recorded().journal().rolling_digest() &&
      b->journal.rolling_digest() ==
          controller_b.recorded().journal().rolling_digest();
  if (!reproduced) {
    std::cerr << "wnreplay: re-recording diverged from the flight file"
                 " (non-reproducible build?)\n";
    return 4;
  }
  const auto report =
      replay::DivergenceAuditor::Bisect(controller_a, controller_b);
  if (!report.ok()) {
    std::cerr << "wnreplay: bisect failed: " << report.status().message()
              << "\n";
    return 1;
  }
  std::cout << report->summary << "\n";
  return report->diverged ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "record") return RunRecord(argc - 2, argv + 2);
  if (command == "inspect" && argc == 3) return RunInspect(argv[2]);
  if (command == "seek" && argc == 4) {
    return RunSeek(argv[2], std::strtoull(argv[3], nullptr, 0));
  }
  if (command == "step" && argc == 5) {
    return RunStep(argv[2], std::strtoull(argv[3], nullptr, 0),
                   std::strtoull(argv[4], nullptr, 0));
  }
  if (command == "watch" && argc == 4) return RunWatch(argv[2], argv[3]);
  if (command == "diff" && argc == 4) return RunDiff(argv[2], argv[3]);
  if (command == "bisect" && argc == 4) return RunBisect(argv[2], argv[3]);
  return Usage();
}
