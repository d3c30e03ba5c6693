#include "replay/journal.h"

#include "core/wandering_network.h"

namespace viator::replay {

namespace {

void AppendWord(std::vector<std::byte>& out, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((word >> (8 * i)) & 0xFF));
  }
}

std::uint64_t Word(std::span<const std::byte> bytes, std::size_t at) {
  std::uint64_t word = 0;
  for (int i = 0; i < 8; ++i) {
    word |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
  }
  return word;
}

}  // namespace

std::string StreamName(std::uint32_t stream) {
  if (stream == kStreamNetwork) return "network";
  if (stream == kStreamFabric) return "fabric";
  return "ship " + std::to_string(stream - kStreamShipBase);
}

DecisionJournal::DecisionJournal(JournalConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  ring_.reserve(config_.capacity);
  SyncMemBytes();
}

void DecisionJournal::SyncMemBytes() {
  mem_bytes_.Set(ring_.capacity() * sizeof(JournalRecord) +
                 window_hashes_.capacity() *
                     sizeof(std::pair<std::uint64_t, std::uint64_t>));
}

void DecisionJournal::Attach(wli::WanderingNetwork& network) {
  network_ = &network;
  network.rng().SetDrawHook(&DrawTrampoline, this, kStreamNetwork);
  network.fabric().rng().SetDrawHook(&DrawTrampoline, this, kStreamFabric);
  network.ForEachShip([this](wli::Ship& ship) {
    ship.rng().SetDrawHook(&DrawTrampoline, this,
                           kStreamShipBase + ship.id());
  });
  network.simulator().SetDispatchHook(&DispatchTrampoline, this);
}

void DecisionJournal::Detach() {
  if (network_ == nullptr) return;
  network_->rng().ClearDrawHook();
  network_->fabric().rng().ClearDrawHook();
  network_->ForEachShip([](wli::Ship& ship) { ship.rng().ClearDrawHook(); });
  network_->simulator().SetDispatchHook(nullptr, nullptr);
  network_ = nullptr;
}

void DecisionJournal::RecordDraw(std::uint32_t stream, std::uint64_t value) {
  const sim::TimePoint now =
      network_ != nullptr ? network_->simulator().now() : 0;
  Append(RecordKind::kRngDraw, stream, now, value);
}

void DecisionJournal::RecordDispatch(sim::TimePoint when, std::uint64_t seq) {
  Append(RecordKind::kDispatch, 0, when, seq);
}

void DecisionJournal::RecordNote(std::string_view text) {
  Hasher hasher;
  hasher.Mix(text);
  const sim::TimePoint now =
      network_ != nullptr ? network_->simulator().now() : 0;
  Append(RecordKind::kNote, 0, now, hasher.digest());
}

std::uint64_t DecisionJournal::CaptureWindowHash(std::uint64_t window) {
  if (network_ == nullptr) return 0;
  Hasher hasher;
  network_->MixDigest(hasher);
  const std::uint64_t hash = hasher.digest();
  RecordWindowHash(window, hash, network_->simulator().now());
  return hash;
}

void DecisionJournal::RecordWindowHash(std::uint64_t window,
                                       std::uint64_t state_hash,
                                       sim::TimePoint time) {
  Append(RecordKind::kWindowHash, static_cast<std::uint32_t>(window), time,
         state_hash);
  const std::size_t before = window_hashes_.capacity();
  window_hashes_.emplace_back(window, state_hash);
  if (window_hashes_.capacity() != before) SyncMemBytes();
}

void DecisionJournal::RecordShardHash(std::uint64_t window,
                                      std::uint32_t shard,
                                      std::uint64_t shard_hash) {
  Append(RecordKind::kShardHash, shard, static_cast<sim::TimePoint>(window),
         shard_hash);
}

const JournalRecord& DecisionJournal::at(std::size_t index) const {
  return ring_[(head_ + index) % ring_.size()];
}

void DecisionJournal::Append(RecordKind kind, std::uint32_t stream,
                             sim::TimePoint time, std::uint64_t a) {
  rolling_digest_ =
      HashCombineWord(rolling_digest_, static_cast<std::uint64_t>(kind));
  rolling_digest_ = HashCombineWord(rolling_digest_, stream);
  rolling_digest_ =
      HashCombineWord(rolling_digest_, static_cast<std::uint64_t>(time));
  rolling_digest_ = HashCombineWord(rolling_digest_, a);
  JournalRecord record{kind, stream, time, a, rolling_digest_};
  if (ring_.size() < config_.capacity) {
    ring_.push_back(record);
  } else {
    ring_[head_] = record;
    head_ = (head_ + 1) % config_.capacity;
  }
  ++total_records_;
}

void DecisionJournal::DrawTrampoline(void* ctx, std::uint32_t stream,
                                     std::uint64_t value) {
  static_cast<DecisionJournal*>(ctx)->RecordDraw(stream, value);
}

void DecisionJournal::DispatchTrampoline(void* ctx, sim::TimePoint when,
                                         std::uint64_t seq) {
  static_cast<DecisionJournal*>(ctx)->RecordDispatch(when, seq);
}

std::vector<std::byte> DecisionJournal::PackRecords(
    const DecisionJournal& journal) {
  std::vector<std::byte> records;
  records.reserve(journal.ring_.size() * 40);
  for (std::size_t i = 0; i < journal.ring_.size(); ++i) {
    const JournalRecord& record = journal.at(i);
    AppendWord(records, static_cast<std::uint64_t>(record.kind));
    AppendWord(records, record.stream);
    AppendWord(records, static_cast<std::uint64_t>(record.time));
    AppendWord(records, record.a);
    AppendWord(records, record.digest);
  }
  return records;
}

std::vector<std::byte> DecisionJournal::PackWindows(
    const WindowHashes& windows) {
  std::vector<std::byte> bytes;
  bytes.reserve(windows.size() * 16);
  for (const auto& [window, hash] : windows) {
    AppendWord(bytes, window);
    AppendWord(bytes, hash);
  }
  return bytes;
}

Status DecisionJournal::UnpackRecords(std::span<const std::byte> bytes,
                                      std::vector<JournalRecord>& ring) {
  if (bytes.size() % 40 != 0) {
    return InvalidArgument("journal records blob truncated");
  }
  for (std::size_t at = 0; at < bytes.size(); at += 40) {
    JournalRecord entry;
    entry.kind = static_cast<RecordKind>(Word(bytes, at));
    entry.stream = static_cast<std::uint32_t>(Word(bytes, at + 8));
    entry.time = static_cast<sim::TimePoint>(Word(bytes, at + 16));
    entry.a = Word(bytes, at + 24);
    entry.digest = Word(bytes, at + 32);
    ring.push_back(entry);
  }
  return OkStatus();
}

Status DecisionJournal::UnpackWindows(std::span<const std::byte> bytes,
                                      WindowHashes& windows) {
  if (bytes.size() % 16 != 0) {
    return InvalidArgument("journal window blob truncated");
  }
  for (std::size_t at = 0; at < bytes.size(); at += 16) {
    windows.emplace_back(Word(bytes, at), Word(bytes, at + 8));
  }
  return OkStatus();
}

Status DecisionJournal::Adopt(std::uint64_t capacity, std::uint64_t total,
                              std::uint64_t digest,
                              std::vector<JournalRecord> ring,
                              WindowHashes windows) {
  if (capacity == 0 || ring.size() > capacity || total < ring.size()) {
    return InvalidArgument("journal payload inconsistent");
  }
  config_.capacity = static_cast<std::size_t>(capacity);
  ring_ = std::move(ring);
  head_ = 0;
  total_records_ = total;
  rolling_digest_ = digest;
  window_hashes_ = std::move(windows);
  SyncMemBytes();
  return OkStatus();
}

}  // namespace viator::replay
