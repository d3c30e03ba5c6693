// Unit tests for the base library: status/result, hashing, RNG, TLV codec
// and string/table helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <string>

#include "base/flat_map.h"
#include "base/hash.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/strings.h"
#include "base/tlv.h"

namespace viator {
namespace {

// ---- Status / Result ----

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing thing");
}

TEST(Status, EqualityComparesCodeOnly) {
  EXPECT_EQ(NotFound("a"), NotFound("b"));
  EXPECT_FALSE(NotFound("a") == InvalidArgument("a"));
}

TEST(Status, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(InvalidArgument("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  auto owned = std::move(r).value();
  EXPECT_EQ(*owned, 5);
  Result<std::unique_ptr<int>> d(std::make_unique<int>(6));
  auto deref = *std::move(d);
  EXPECT_EQ(*deref, 6);
}

TEST(Result, DereferencingAnRvalueMovesTheValue) {
  struct Counted {
    explicit Counted(int* counter) : copies(counter) {}
    Counted(const Counted& other) : copies(other.copies) { ++*copies; }
    Counted(Counted&&) = default;
    int* copies;
  };
  int copies = 0;
  Result<Counted> r{Counted(&copies)};
  const Counted& seen = *r;  // an lvalue still only reads
  EXPECT_EQ(seen.copies, &copies);
  Counted moved = *std::move(r);
  EXPECT_EQ(moved.copies, &copies);
  EXPECT_EQ(copies, 0);
  Counted copied = *r;  // an lvalue copies as before
  EXPECT_EQ(copied.copies, &copies);
  EXPECT_EQ(copies, 1);
}

// ---- Hashing ----

TEST(Hash, DeterministicAndContentSensitive) {
  EXPECT_EQ(HashString("viator"), HashString("viator"));
  EXPECT_NE(HashString("viator"), HashString("viatob"));
  EXPECT_NE(HashString(""), HashString("a"));
}

TEST(Hash, EmptyInputIsOffsetBasis) {
  EXPECT_EQ(HashBytes({}), kFnvOffsetBasis);
}

TEST(Hash, CombineChains) {
  const auto full = HashString("hello world");
  auto partial = HashCombine(kFnvOffsetBasis,
                             std::as_bytes(std::span("hello ", 6)));
  partial = HashCombine(partial, std::as_bytes(std::span("world", 5)));
  EXPECT_EQ(full, partial);
}

TEST(Hash, HexIsFixedWidth) {
  EXPECT_EQ(DigestToHex(0).size(), 16u);
  EXPECT_EQ(DigestToHex(0), "0000000000000000");
  EXPECT_EQ(DigestToHex(0xdeadbeefULL), "00000000deadbeef");
}

TEST(Hash, KeyedTagDependsOnKey) {
  const auto data = std::as_bytes(std::span("payload", 7));
  EXPECT_NE(KeyedTag(1, data), KeyedTag(2, data));
  EXPECT_EQ(KeyedTag(1, data), KeyedTag(1, data));
}

TEST(Hash, KeyedTagDiffersFromPlainHash) {
  const auto data = std::as_bytes(std::span("payload", 7));
  EXPECT_NE(KeyedTag(0x1234, data), HashBytes(data));
}

// ---- RNG ----

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(7);
  Rng child = parent.Fork();
  // Child and parent streams should not track each other.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.Next() == child.Next();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(3);
  EXPECT_EQ(rng.UniformInt(5, 5), 5u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliEdges) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.Pareto(2.0, 1.5), 1.5);
}

TEST(Rng, ZipfFavorsLowRanks) {
  Rng rng(23);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Zipf(10, 1.0)];
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(Rng, ZipfStaysInRange) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Zipf(7, 0.8), 7u);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(31);
  const auto perm = rng.Permutation(50);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

// ---- TLV ----

/// A record's payload as the `width`-byte little-endian word TlvWriter put.
std::uint64_t Word(const TlvRecord& record, std::size_t width) {
  EXPECT_EQ(record.payload.size(), width) << "record " << record.tag;
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < std::min(width, record.payload.size()); ++i) {
    value |= static_cast<std::uint64_t>(record.payload[i]) << (8 * i);
  }
  return value;
}

TEST(Tlv, RoundTripsScalars) {
  TlvWriter w;
  w.PutU64(1, 0xabcdef0123456789ULL);
  w.PutU32(2, 77);
  w.PutU64(3, std::bit_cast<std::uint64_t>(3.25));
  w.PutString(4, "genome");
  const auto bytes = w.Finish();

  TlvReader r(bytes);
  ASSERT_TRUE(r.Verify().ok());
  auto rec = r.Next();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->tag, 1);
  EXPECT_EQ(Word(*rec, 8), 0xabcdef0123456789ULL);
  rec = r.Next();
  EXPECT_EQ(Word(*rec, 4), 77u);
  rec = r.Next();
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(Word(*rec, 8)), 3.25);
  rec = r.Next();
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(rec->payload.data()),
                        rec->payload.size()),
            "genome");
  EXPECT_FALSE(r.HasNext());
}

TEST(Tlv, DetectsCorruption) {
  TlvWriter w;
  w.PutString(1, "important data");
  auto bytes = w.Finish();
  bytes[8] ^= std::byte{0xff};
  TlvReader r(bytes);
  EXPECT_FALSE(r.Verify().ok());
}

TEST(Tlv, DetectsTruncation) {
  TlvWriter w;
  w.PutU64(1, 5);
  auto bytes = w.Finish();
  bytes.resize(bytes.size() - 3);
  TlvReader r(bytes);
  EXPECT_FALSE(r.Verify().ok());
}

TEST(Tlv, EmptyStreamFailsVerify) {
  TlvReader r({});
  EXPECT_FALSE(r.Verify().ok());
}

TEST(Tlv, NestedStreams) {
  TlvWriter inner;
  inner.PutU32(10, 123);
  const auto inner_bytes = inner.Finish();

  TlvWriter outer;
  outer.PutBytes(20, inner_bytes);
  const auto outer_bytes = outer.Finish();

  TlvReader r(outer_bytes);
  ASSERT_TRUE(r.Verify().ok());
  auto rec = r.Next();
  ASSERT_TRUE(rec.ok());
  TlvReader nested(rec->payload);
  ASSERT_TRUE(nested.Verify().ok());
  auto inner_rec = nested.Next();
  ASSERT_TRUE(inner_rec.ok());
  EXPECT_EQ(Word(*inner_rec, 4), 123u);
}

TEST(Tlv, RewindRestartsIteration) {
  TlvWriter w;
  w.PutU32(1, 1);
  w.PutU32(2, 2);
  const auto bytes = w.Finish();
  TlvReader r(bytes);
  ASSERT_TRUE(r.Next().ok());
  ASSERT_TRUE(r.Next().ok());
  EXPECT_FALSE(r.HasNext());
  r.Rewind();
  EXPECT_TRUE(r.HasNext());
}

// ---- Nested-record bounds and checksum coverage ----

namespace {

// Hand-crafts a raw record header (2-byte tag, 4-byte length, little endian)
// so tests can build frames the writer refuses to produce.
void AppendRawHeader(std::vector<std::byte>& out, TlvTag tag,
                     std::uint32_t length) {
  out.push_back(static_cast<std::byte>(tag & 0xff));
  out.push_back(static_cast<std::byte>(tag >> 8));
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((length >> (8 * i)) & 0xff));
  }
}

}  // namespace

TEST(TlvNested, InnerCorruptionIsCaughtByInnerChecksum) {
  TlvWriter inner;
  inner.PutString(1, "nested genome");
  auto inner_bytes = inner.Finish();
  inner_bytes[9] ^= std::byte{0x01};  // corrupt before embedding

  TlvWriter outer;
  outer.PutBytes(2, inner_bytes);
  const auto outer_bytes = outer.Finish();

  // The outer checksum covers the (already corrupt) embedded bytes, so only
  // the inner stream's own trailer can catch the damage.
  TlvReader r(outer_bytes);
  ASSERT_TRUE(r.Verify().ok());
  auto rec = r.Next();
  ASSERT_TRUE(rec.ok());
  TlvReader nested(rec->payload);
  EXPECT_FALSE(nested.Verify().ok());
}

TEST(TlvNested, InnerTruncationIsCaughtByInnerChecksum) {
  TlvWriter inner;
  inner.PutU64(1, 42);
  auto inner_bytes = inner.Finish();
  inner_bytes.resize(inner_bytes.size() - 5);

  TlvWriter outer;
  outer.PutBytes(2, inner_bytes);
  const auto outer_bytes = outer.Finish();

  TlvReader r(outer_bytes);
  ASSERT_TRUE(r.Verify().ok());
  auto rec = r.Next();
  ASSERT_TRUE(rec.ok());
  TlvReader nested(rec->payload);
  EXPECT_FALSE(nested.Verify().ok());
}

TEST(TlvNested, DeepNestingRoundTrips) {
  TlvWriter leaf;
  leaf.PutU32(1, 0xbeef);
  auto bytes = leaf.Finish();
  for (int depth = 0; depth < 8; ++depth) {
    TlvWriter wrap;
    wrap.PutBytes(static_cast<TlvTag>(100 + depth), bytes);
    bytes = wrap.Finish();
  }

  std::span<const std::byte> view = bytes;
  std::vector<std::vector<std::byte>> keep_alive;  // spans borrow from these
  for (int depth = 7; depth >= 0; --depth) {
    TlvReader r(view);
    ASSERT_TRUE(r.Verify().ok()) << "depth " << depth;
    auto rec = r.Next();
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->tag, static_cast<TlvTag>(100 + depth));
    keep_alive.emplace_back(rec->payload.begin(), rec->payload.end());
    view = keep_alive.back();
  }
  TlvReader r(view);
  ASSERT_TRUE(r.Verify().ok());
  auto rec = r.Next();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(Word(*rec, 4), 0xbeefu);
}

TEST(TlvNested, LengthBeyondBufferIsRejected) {
  // A record claiming 100 payload bytes with only 4 present must fail both
  // verification and iteration — never read out of bounds.
  std::vector<std::byte> bytes;
  AppendRawHeader(bytes, 7, 100);
  for (int i = 0; i < 4; ++i) bytes.push_back(std::byte{0xaa});
  TlvReader r(bytes);
  EXPECT_FALSE(r.Verify().ok());
  EXPECT_FALSE(r.Next().ok());
}

TEST(TlvNested, MaximalLengthFieldIsRejected) {
  std::vector<std::byte> bytes;
  AppendRawHeader(bytes, 7, 0xffffffffu);
  bytes.push_back(std::byte{0x00});
  TlvReader r(bytes);
  EXPECT_FALSE(r.Verify().ok());
  EXPECT_FALSE(r.Next().ok());
}

TEST(TlvNested, BytesAfterChecksumTrailerAreRejected) {
  TlvWriter w;
  w.PutU32(1, 9);
  auto bytes = w.Finish();
  bytes.push_back(std::byte{0x00});
  TlvReader r(bytes);
  EXPECT_FALSE(r.Verify().ok());
}

TEST(TlvNested, MalformedChecksumTrailerLengthIsRejected) {
  // A trailer whose declared length is not 8 is malformed even if the bytes
  // that follow happen to be in bounds.
  std::vector<std::byte> bytes;
  AppendRawHeader(bytes, kTlvChecksumTag, 4);
  for (int i = 0; i < 4; ++i) bytes.push_back(std::byte{0x00});
  TlvReader r(bytes);
  EXPECT_FALSE(r.Verify().ok());
}

TEST(TlvNested, EmptyNestedPayloadFailsInnerVerify) {
  TlvWriter outer;
  outer.PutBytes(3, {});
  const auto bytes = outer.Finish();
  TlvReader r(bytes);
  ASSERT_TRUE(r.Verify().ok());
  auto rec = r.Next();
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->payload.empty());
  TlvReader nested(rec->payload);
  EXPECT_FALSE(nested.Verify().ok());  // no trailer in an empty stream
}

// ---- Sealed records ----

namespace {

constexpr TlvTag kSealed = 5;

/// A stream holding two sealed bodies between plain records.
std::vector<std::byte> SealedFixture() {
  TlvWriter first;
  first.PutString(1, "first body");
  first.PutU64(2, 7);
  TlvWriter second;
  second.PutU32(1, 99);
  TlvWriter outer;
  outer.PutU64(1, 42);
  outer.PutSealed(kSealed, first.Finish());
  outer.PutString(2, "between");
  outer.PutSealed(kSealed, second.Finish());
  return outer.Finish();
}

/// What a reader of such a stream checks: the sealed verify, then each
/// sealed body's own.
Status VerifyWithBodies(std::span<const std::byte> stream) {
  TlvReader reader(stream);
  if (Status s = reader.Verify(kSealed); !s.ok()) return s;
  while (reader.HasNext()) {
    auto rec = reader.Next();
    if (!rec.ok()) return rec.status();
    if (rec->tag != kSealed) continue;
    if (Status s = TlvReader(rec->payload).Verify(); !s.ok()) return s;
  }
  return OkStatus();
}

}  // namespace

TEST(TlvSealed, StreamWithoutSealedRecordsKeepsItsChecksum) {
  // Pinned bytes: the sealed rule leaves every other stream (genomes,
  // programs, journals) and its digest as they were.
  TlvWriter w;
  w.PutU64(1, 0xabcdef0123456789ULL);
  w.PutString(2, "genome");
  const auto bytes = w.Finish();
  ASSERT_EQ(bytes.size(), 40u);
  std::uint64_t trailer = 0;
  for (int i = 0; i < 8; ++i) {
    trailer |= std::to_integer<std::uint64_t>(bytes[32 + i]) << (8 * i);
  }
  EXPECT_EQ(trailer, 0xeacb20014e6fbb91ULL);
  EXPECT_EQ(HashBytes(bytes), 0x2e0613fba18f9602ULL);
  EXPECT_EQ(TlvStreamDigest(bytes), 0x2e0613fba18f9602ULL);
  EXPECT_TRUE(TlvReader(bytes).Verify().ok());
  EXPECT_TRUE(TlvReader(bytes).Verify(kSealed).ok());  // none to skip
}

TEST(TlvSealed, BodiesVerifyOnTheirOwnAndDigestsReadOffTrailers) {
  const auto bytes = SealedFixture();
  EXPECT_TRUE(VerifyWithBodies(bytes).ok());
  // The plain verify hashes the bodies too, so the trailer does not match.
  EXPECT_FALSE(TlvReader(bytes).Verify().ok());
  TlvReader reader(bytes);
  std::size_t bodies = 0;
  while (reader.HasNext()) {
    auto rec = reader.Next();
    ASSERT_TRUE(rec.ok());
    if (rec->tag != kSealed) continue;
    EXPECT_EQ(TlvStreamDigest(rec->payload), HashBytes(rec->payload));
    ++bodies;
  }
  EXPECT_EQ(bodies, 2u);
  // Bytes that do not end in a trailer are hashed in full.
  const std::vector<std::byte> raw = {std::byte{1}, std::byte{2}};
  EXPECT_EQ(TlvStreamDigest(raw), HashBytes(raw));
}

TEST(TlvSealed, EveryBitFlipIsCaught) {
  const auto bytes = SealedFixture();
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto corrupt = bytes;
    corrupt[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_FALSE(VerifyWithBodies(corrupt).ok()) << "bit " << bit;
  }
}

TEST(TlvSealed, TruncationInsideASealedBodyIsRefused) {
  const auto bytes = SealedFixture();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(VerifyWithBodies(std::span(bytes).first(len)).ok())
        << "truncated to " << len;
  }
  // A body cut short before it was sealed: the enclosing stream verifies,
  // the body does not.
  TlvWriter body;
  body.PutString(1, "a body cut short");
  auto cut = body.Finish();
  cut.resize(cut.size() - 3);
  TlvWriter outer;
  outer.PutSealed(kSealed, cut);
  const auto stream = outer.Finish();
  EXPECT_TRUE(TlvReader(stream).Verify(kSealed).ok());
  EXPECT_FALSE(VerifyWithBodies(stream).ok());
  // A sealed record too short to end in a trailer is malformed.
  TlvWriter tiny;
  tiny.PutSealed(kSealed, std::span(cut).first(4));
  EXPECT_FALSE(TlvReader(tiny.Finish()).Verify(kSealed).ok());
}

// Property sweep: serialize/parse round trip across sizes.
class TlvRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TlvRoundTrip, ManyRecords) {
  const int n = GetParam();
  TlvWriter w;
  for (int i = 0; i < n; ++i) {
    w.PutU64(static_cast<TlvTag>(i % 100), static_cast<std::uint64_t>(i));
  }
  const auto bytes = w.Finish();
  TlvReader r(bytes);
  ASSERT_TRUE(r.Verify().ok());
  int count = 0;
  while (r.HasNext()) {
    auto rec = r.Next();
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(Word(*rec, 8), static_cast<std::uint64_t>(count));
    ++count;
  }
  EXPECT_EQ(count, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlvRoundTrip,
                         ::testing::Values(0, 1, 2, 17, 100, 1000));

// ---- Strings ----

TEST(Strings, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.50 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00 MiB");
}

TEST(Strings, FormatNanos) {
  EXPECT_EQ(FormatNanos(500), "500 ns");
  EXPECT_EQ(FormatNanos(1500), "1.50 us");
  EXPECT_EQ(FormatNanos(2500000), "2.50 ms");
  EXPECT_EQ(FormatNanos(1250000000ULL), "1.250 s");
}

TEST(Strings, TablePrinterAlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22222"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

// ---- Escaping (trace log and exporters) ----

TEST(Escaping, JsonStyleEscapesQuotesAndControls) {
  const std::string raw = "a\"b\\c\nd\re\tf\x01g";
  EXPECT_EQ(Escaped(raw, EscapeStyle::kJson),
            "a\\\"b\\\\c\\nd\\re\\tf\\u0001g");
}

TEST(Escaping, PrometheusHelpEscapesOnlyBackslashAndNewline) {
  const std::string raw = "a\"b\\c\nd\te";
  EXPECT_EQ(Escaped(raw, EscapeStyle::kPrometheusHelp),
            "a\"b\\\\c\\nd\te");
}

TEST(Escaping, PrometheusLabelEscapesQuoteBackslashNewline) {
  const std::string raw = "a\"b\\c\nd\te";
  EXPECT_EQ(Escaped(raw, EscapeStyle::kPrometheusLabel),
            "a\\\"b\\\\c\\nd\te");
}

TEST(Escaping, AppendFormAppendsInPlace) {
  std::string out = "prefix:";
  AppendEscaped(out, "x\ny", EscapeStyle::kJson);
  EXPECT_EQ(out, "prefix:x\\ny");
}

TEST(Escaping, PassThroughForPlainText) {
  for (const auto style :
       {EscapeStyle::kJson, EscapeStyle::kPrometheusHelp,
        EscapeStyle::kPrometheusLabel}) {
    EXPECT_EQ(Escaped("plain_text-123", style), "plain_text-123");
  }
}

// ---- FlatMap / FlatNameMap -------------------------------------------------

TEST(FlatMap, InsertFindEraseKeepKeyOrder) {
  base::FlatMap<int, std::string> m;
  m[30] = "c";
  m[10] = "a";
  m[20] = "b";
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(20), m.end());
  EXPECT_EQ(m.find(20)->second, "b");
  EXPECT_EQ(m.find(99), m.end());
  // Iteration is ascending-key, exactly like std::map.
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{10, 20, 30}));
  // erase(key) and erase(iterator) with the std::map contract.
  EXPECT_EQ(m.erase(20), 1u);
  EXPECT_EQ(m.erase(20), 0u);
  auto it = m.erase(m.find(10));
  ASSERT_NE(it, m.end());
  EXPECT_EQ(it->first, 30);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, OperatorBracketDefaultConstructsOnce) {
  base::FlatMap<int, int> m;
  EXPECT_EQ(m[5], 0);
  m[5] = 7;
  EXPECT_EQ(m[5], 7);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, EraseIteratorLoopMatchesStdMapIdiom) {
  base::FlatMap<int, int> m;
  for (int i = 0; i < 10; ++i) m[i] = i;
  for (auto it = m.begin(); it != m.end();) {
    if (it->first % 2 == 0) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
  std::vector<int> keys;
  for (const auto& [k, v] : m) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(FlatNameMap, LexicographicIterationAndStableAddresses) {
  base::FlatNameMap<int> m;
  int* b = &m.GetOrCreate("bravo");
  int* a = &m.GetOrCreate("alpha");
  *b = 2;
  *a = 1;
  // Growth must not move values: the addresses handed out stay live.
  for (int i = 0; i < 100; ++i) m.GetOrCreate("filler" + std::to_string(i));
  EXPECT_EQ(&m.GetOrCreate("alpha"), a);
  EXPECT_EQ(&m.GetOrCreate("bravo"), b);
  EXPECT_EQ(*a, 1);
  // Iteration yields names in lexicographic order via structured bindings.
  std::string previous;
  for (const auto& [name, value] : m) {
    EXPECT_LT(previous, name);
    previous = name;
  }
  EXPECT_EQ(m.size(), 102u);
  EXPECT_TRUE(m.contains("alpha"));
  EXPECT_FALSE(m.contains("zulu"));
  EXPECT_EQ(m.at("bravo"), 2);
  ASSERT_NE(m.find("bravo"), m.end());
  EXPECT_EQ(m.find("bravo")->second, 2);
  EXPECT_EQ(m.Find("zulu"), nullptr);
}

}  // namespace
}  // namespace viator
