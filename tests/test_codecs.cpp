// The object codecs outside snapshot sections: ship genomes, knowledge
// quanta, WanderScript program images, scenario configs, decision journals
// and .wnj flight files. Their bytes travel between ships and into files
// other builds read, so they are pinned by a golden of sizes and digests,
// and their decoders refuse what the snapshot loader refuses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "base/hash.h"
#include "base/rng.h"
#include "base/tlv.h"
#include "core/genetic_transcoder.h"
#include "core/knowledge.h"
#include "replay/journal.h"
#include "replay/scenario.h"
#include "vm/program.h"

namespace viator {
namespace {

wli::ShipBlueprint SampleBlueprint() {
  wli::ShipBlueprint bp;
  bp.ship_class = node::ShipClass::kClient;
  bp.role = node::FirstLevelRole::kDelegation;
  bp.next_step = node::FirstLevelRole::kReplication;
  bp.resident_programs = {0x1111, 0xfeedface00000001ULL};
  bp.facts = {{7, -3, 0.25}, {8, std::numeric_limits<std::int64_t>::max(),
                              2.5}};
  bp.modules = {{1, node::SecondLevelClass::kBoosting, 4096, 3.5, 0xabc},
                {2, node::SecondLevelClass::kTranscoding, 12, 1.0, 0}};
  wli::NetFunction filter;
  filter.id = 0x51;
  filter.name = "edge-filter";
  filter.role = node::FirstLevelRole::kFusion;
  filter.cls = node::SecondLevelClass::kFiltering;
  filter.program_digest = 0x9999;
  filter.fact_keys = {7, 8};
  wli::NetFunction relay;
  relay.id = 0x52;
  relay.name = "relay";
  relay.role = node::FirstLevelRole::kDelegation;
  bp.functions = {filter, relay};
  bp.genome_version = 3;
  return bp;
}

wli::KnowledgeQuantum SampleQuantum() {
  wli::KnowledgeQuantum kq;
  kq.function.id = 0x77;
  kq.function.name = "merge";
  kq.function.role = node::FirstLevelRole::kFusion;
  kq.function.cls = node::SecondLevelClass::kCombining;
  kq.function.program_digest = 0xfeed;
  kq.function.fact_keys = {10, 20, 30};
  kq.facts = {{10, 111, 2.0}, {20, -222, 3.5}, {30, 0, 0.125}};
  kq.version = 4;
  return kq;
}

vm::Program SampleProgram() {
  return vm::Program("consts",
                     {{vm::Opcode::kPush, -7},
                      {vm::Opcode::kPushC, 0},
                      {vm::Opcode::kPushC, 1},
                      {vm::Opcode::kAdd, 0},
                      {vm::Opcode::kPushC, 2},
                      {vm::Opcode::kHalt, 0}},
                     {-1, std::numeric_limits<std::int64_t>::min(),
                      static_cast<std::int64_t>(0xf00df00df00df00dULL)});
}

replay::ScenarioConfig OtherConfig() {
  replay::ScenarioConfig config;
  config.seed = 0xf11e;
  config.rows = 2;
  config.cols = 5;
  config.steps = 40;
  config.injections_per_step = 3;
  config.pulse_every = 5;
  config.checkpoint_every = 10;
  config.hash_every = 2;
  config.perturb_step = 11;
  config.tracing = true;
  config.journal = false;
  config.journal_config.capacity = 123;
  return config;
}

/// A journal whose ring (8 records) has wrapped, with window hashes.
replay::DecisionJournal WrappedJournal() {
  replay::DecisionJournal journal({.capacity = 8});
  for (std::uint64_t i = 0; i < 12; ++i) {
    journal.RecordDraw(replay::kStreamShipBase + i % 3, i * 0x9e3779b9ULL);
    if (i % 4 == 3) journal.RecordWindowHash(i / 4, ~i, i * 10);
  }
  journal.RecordDispatch(42, 7);
  journal.RecordShardHash(2, 1, 0xdead);
  journal.RecordNote("marker");
  return journal;
}

replay::FlightFile SampleFlightFile() {
  return {OtherConfig(), WrappedJournal()};
}

wli::NetFunction RandomFunction(Rng& rng) {
  wli::NetFunction fn;
  fn.id = rng.Next();
  for (std::size_t i = rng.Index(12); i > 0; --i) {
    fn.name += static_cast<char>('a' + rng.Index(26));
  }
  fn.role = static_cast<node::FirstLevelRole>(
      rng.Index(static_cast<std::size_t>(node::FirstLevelRole::kRoleCount)));
  fn.cls = static_cast<node::SecondLevelClass>(
      rng.Index(static_cast<std::size_t>(node::SecondLevelClass::kClassCount)));
  fn.program_digest = rng.Index(2) == 0 ? 0 : rng.Next();
  for (std::size_t i = rng.Index(4); i > 0; --i) {
    fn.fact_keys.push_back(rng.Next());
  }
  return fn;
}

wli::FactSnapshot RandomFact(Rng& rng) {
  return {rng.Next(), static_cast<std::int64_t>(rng.Next()),
          rng.Uniform(-4.0, 4.0)};
}

wli::ShipBlueprint RandomBlueprint(Rng& rng) {
  wli::ShipBlueprint bp;
  bp.ship_class = static_cast<node::ShipClass>(rng.Index(3));
  bp.role = static_cast<node::FirstLevelRole>(
      rng.Index(static_cast<std::size_t>(node::FirstLevelRole::kRoleCount)));
  bp.next_step = static_cast<node::FirstLevelRole>(
      rng.Index(static_cast<std::size_t>(node::FirstLevelRole::kRoleCount)));
  bp.genome_version = static_cast<std::uint32_t>(rng.Next());
  for (std::size_t i = rng.Index(4); i > 0; --i) {
    bp.resident_programs.push_back(rng.Next());
  }
  for (std::size_t i = rng.Index(4); i > 0; --i) {
    bp.facts.push_back(RandomFact(rng));
  }
  for (std::size_t i = rng.Index(3); i > 0; --i) {
    bp.modules.push_back(
        {static_cast<std::uint32_t>(rng.Next()),
         static_cast<node::SecondLevelClass>(rng.Index(
             static_cast<std::size_t>(node::SecondLevelClass::kClassCount))),
         static_cast<std::uint32_t>(rng.Next()), rng.Uniform(0.5, 8.0),
         rng.Next()});
  }
  for (std::size_t i = rng.Index(3); i > 0; --i) {
    bp.functions.push_back(RandomFunction(rng));
  }
  return bp;
}

wli::KnowledgeQuantum RandomQuantum(Rng& rng) {
  wli::KnowledgeQuantum kq;
  kq.function = RandomFunction(rng);
  kq.version = static_cast<std::uint32_t>(rng.Next());
  for (std::size_t i = rng.Index(5); i > 0; --i) {
    kq.facts.push_back(RandomFact(rng));
  }
  return kq;
}

/// "<format> <size> <fnv>" for one encoding.
std::string Line(const std::string& format,
                 const std::vector<std::byte>& bytes) {
  return format + ' ' + std::to_string(bytes.size()) + ' ' +
         DigestToHex(HashBytes(bytes)) + '\n';
}

TEST(CodecGolden, BytesArePinned) {
  std::string table;
  table += Line("blueprint", wli::EncodeBlueprint(SampleBlueprint()));
  table += Line("blueprint-empty", wli::EncodeBlueprint({}));
  table += Line("quantum", wli::EncodeKnowledgeQuantum(SampleQuantum()));
  table += Line("program", SampleProgram().Serialize());
  table += Line("scenario-default", replay::ScenarioConfig{}.Save());
  table += Line("scenario", OtherConfig().Save());
  table += Line("journal", WrappedJournal().Save());
  table += Line("journal-empty", replay::DecisionJournal{}.Save());
  table += Line("flight-file", SampleFlightFile().Save());
  // 200 random blueprints and 200 random quanta, concatenated.
  Rng rng(2020);
  std::vector<std::byte> blueprints, quanta;
  for (int i = 0; i < 200; ++i) {
    const auto genome = wli::EncodeBlueprint(RandomBlueprint(rng));
    blueprints.insert(blueprints.end(), genome.begin(), genome.end());
    const auto kq = wli::EncodeKnowledgeQuantum(RandomQuantum(rng));
    quanta.insert(quanta.end(), kq.begin(), kq.end());
  }
  table += Line("blueprints-x200", blueprints);
  table += Line("quanta-x200", quanta);

  const std::string path = std::string(VIATOR_GOLDEN_DIR) + "/codec_bytes.txt";
  if (std::getenv("VIATOR_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path) << table;  // deliberate golden refresh
  }
  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing tests/golden/codec_bytes.txt";
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(table, expected.str());
}

// ---- Strict decoders --------------------------------------------------------

/// `stream` with the payload of its first top-level `tag` record resized to
/// `width` bytes, re-sealed with a fresh trailer.
std::vector<std::byte> Rewidth(std::span<const std::byte> stream, TlvTag tag,
                               std::size_t width) {
  TlvReader reader(stream);
  EXPECT_TRUE(reader.Verify().ok());
  TlvWriter out;
  bool done = false;
  while (reader.HasNext()) {
    const auto record = reader.Next();
    if (!record.ok()) {
      ADD_FAILURE() << record.status().ToString();
      break;
    }
    if (!done && record->tag == tag) {
      std::vector<std::byte> payload(width);
      std::copy_n(record->payload.begin(),
                  std::min(width, record->payload.size()), payload.begin());
      out.PutBytes(tag, payload);
      done = true;
    } else {
      out.PutBytes(record->tag, record->payload);
    }
  }
  EXPECT_TRUE(done) << "no record tagged " << tag;
  return out.Finish();
}

void ExpectInvalid(const Status& status, const char* what) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << what << ": " << status.ToString();
}

TEST(StrictDecoders, WrongWidthRecordsAreRefused) {
  // Each stream carries a valid trailer, so only the field check stands
  // between a wrong-width record and a value read as 0 (an 8-byte role, a
  // 4-byte constant).
  ExpectInvalid(
      wli::DecodeBlueprint(
          Rewidth(wli::EncodeBlueprint(SampleBlueprint()), 0x31, 8))
          .status(),
      "blueprint role");
  ExpectInvalid(wli::DecodeKnowledgeQuantum(
                    Rewidth(wli::EncodeKnowledgeQuantum(SampleQuantum()),
                            0x22, 4))
                    .status(),
                "quantum fact weight");
  ExpectInvalid(
      vm::Program::Deserialize(Rewidth(SampleProgram().Serialize(), 3, 4))
          .status(),
      "program constant");
  ExpectInvalid(
      replay::ScenarioConfig::Load(Rewidth(OtherConfig().Save(), 4, 4))
          .status(),
      "scenario steps");
  replay::DecisionJournal journal = WrappedJournal();
  ExpectInvalid(journal.Load(Rewidth(journal.Save(), 3, 4)),
                "journal rolling digest");

  // A flight file whose nested scenario holds the wrong-width record.
  TlvWriter flight;
  flight.PutString(1, replay::FlightFile::kMagic);
  flight.PutBytes(2, Rewidth(OtherConfig().Save(), 4, 4));
  flight.PutBytes(3, WrappedJournal().Save());
  ExpectInvalid(replay::FlightFile::Load(flight.Finish()).status(),
                "flight-file scenario steps");
}

TEST(StrictDecoders, NestedAndEnumFieldsAreChecked) {
  // A module gene's class out of range, a function's role inside a genome
  // out of range, and a program's code blob that is not whole instructions.
  wli::ShipBlueprint bad_module = SampleBlueprint();
  bad_module.modules[1].accelerates = node::SecondLevelClass::kClassCount;
  ExpectInvalid(wli::DecodeBlueprint(wli::EncodeBlueprint(bad_module)).status(),
                "module class");
  wli::ShipBlueprint bad_function = SampleBlueprint();
  bad_function.functions[0].role = node::FirstLevelRole::kRoleCount;
  ExpectInvalid(
      wli::DecodeBlueprint(wli::EncodeBlueprint(bad_function)).status(),
      "function role");
  ExpectInvalid(
      vm::Program::Deserialize(Rewidth(SampleProgram().Serialize(), 2, 7))
          .status(),
      "code blob");
}

TEST(StrictDecoders, FailedJournalLoadChangesNothing) {
  replay::DecisionJournal journal = WrappedJournal();
  const std::vector<std::byte> before = journal.Save();
  // A wrong-width record, a ring of two records in a capacity of one, a
  // truncated records blob and bytes without a trailer.
  TlvWriter overfull;
  overfull.PutU64(1, 1);
  overfull.PutU64(2, 5);
  overfull.PutU64(3, 0);
  overfull.PutBytes(4, std::vector<std::byte>(80));
  const std::vector<std::byte> loads[] = {
      Rewidth(before, 3, 4),
      overfull.Finish(),
      Rewidth(before, 4, 39),
      std::vector<std::byte>(13, std::byte{0xab}),
  };
  for (const auto& bytes : loads) {
    EXPECT_FALSE(journal.Load(bytes).ok());
    EXPECT_EQ(journal.Save(), before);
  }
}

TEST(StrictDecoders, FlatGroupsDoNotBorrowTheNextGroupsFields) {
  // A quantum's facts are flat (key 0x20, value 0x21, weight 0x22) groups.
  // A fact without its weight keeps the default weight rather than take
  // the next fact's, and the next fact still decodes.
  const wli::KnowledgeQuantum kq = SampleQuantum();
  const std::vector<std::byte> bytes = wli::EncodeKnowledgeQuantum(kq);
  TlvReader reader(bytes);
  TlvWriter out;
  bool dropped = false;
  while (reader.HasNext()) {
    const auto record = reader.Next();
    ASSERT_TRUE(record.ok());
    if (!dropped && record->tag == 0x22) {
      dropped = true;
    } else {
      out.PutBytes(record->tag, record->payload);
    }
  }
  ASSERT_TRUE(dropped);
  const auto decoded = wli::DecodeKnowledgeQuantum(out.Finish());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->facts.size(), kq.facts.size());
  EXPECT_EQ(decoded->facts[0].key, kq.facts[0].key);
  EXPECT_EQ(decoded->facts[0].weight, wli::FactSnapshot{}.weight);
  EXPECT_EQ(decoded->facts[1].weight, kq.facts[1].weight);
}

TEST(StrictDecoders, ScenarioSizesAreBounded) {
  // A scenario's grid and journal ring are allocated when its world is
  // built, so a load refuses sizes outside their bounds: a flight file
  // asking for a ring of 2^62 records used to load, and seeking in it
  // aborted on the allocation.
  using replay::ScenarioConfig;
  const auto load = [](std::size_t rows, std::size_t cols,
                       std::size_t capacity) {
    ScenarioConfig config;
    config.rows = rows;
    config.cols = cols;
    config.journal_config.capacity = capacity;
    return ScenarioConfig::Load(config.Save()).status();
  };
  constexpr std::size_t kNodes = ScenarioConfig::kMaxNodes;
  constexpr std::size_t kCapacity = ScenarioConfig::kMaxJournalCapacity;
  EXPECT_TRUE(load(1024, kNodes / 1024, kCapacity).ok());
  EXPECT_TRUE(load(1, 2, 1).ok());
  ExpectInvalid(load(3, 3, 0), "capacity 0");
  ExpectInvalid(load(3, 3, kCapacity + 1), "capacity past the bound");
  ExpectInvalid(load(3, 3, std::size_t{1} << 62), "capacity 2^62");
  ExpectInvalid(load(1025, kNodes / 1024, 8), "one row past the bound");
  ExpectInvalid(load(kNodes + 1, 1, 8), "a single column past the bound");
  ExpectInvalid(load(std::size_t{1} << 32, std::size_t{1} << 32, 8),
                "rows x cols wraps to 0");
  ExpectInvalid(load(1, 1, 8), "one node");

  ScenarioConfig huge;
  huge.journal_config.capacity = std::size_t{1} << 62;
  ExpectInvalid(
      replay::FlightFile::Load(
          replay::FlightFile{huge, replay::DecisionJournal()}.Save())
          .status(),
      "flight file with a ring of 2^62 records");
}

TEST(FlightFile, RoundTripsAndRefusesIncompleteFiles) {
  const std::vector<std::byte> bytes = SampleFlightFile().Save();
  const auto file = replay::FlightFile::Load(bytes);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->config.Save(), OtherConfig().Save());
  EXPECT_EQ(file->journal.Save(), WrappedJournal().Save());
  EXPECT_EQ(file->Save(), bytes);

  // Without the magic, the scenario or the journal, or with another magic.
  const auto without = [&bytes](TlvTag tag) {
    TlvReader reader(bytes);
    TlvWriter out;
    while (reader.HasNext()) {
      const auto record = reader.Next();
      if (record.ok() && record->tag != tag) {
        out.PutBytes(record->tag, record->payload);
      }
    }
    return out.Finish();
  };
  for (const TlvTag tag : {1, 2, 3}) {
    ExpectInvalid(replay::FlightFile::Load(without(tag)).status(),
                  "missing record");
  }
  ExpectInvalid(replay::FlightFile::Load(Rewidth(bytes, 1, 3)).status(),
                "magic");
  // Truncation is caught by the trailer.
  ExpectInvalid(replay::FlightFile::Load(
                    std::span(bytes).first(bytes.size() - 1))
                    .status(),
                "truncated");
}

}  // namespace
}  // namespace viator
