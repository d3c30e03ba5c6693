// Wandering Flight Recorder — the always-on decision journal.
//
// A DecisionJournal is a bounded ring of compact records capturing every
// nondeterminism-relevant point of a run: raw RNG draws (labelled by stream:
// 0 = network orchestrator, 1 = fabric loss process, 2+node = ship-local),
// simulator dispatch order (time, seq) and per-step rolling state hashes
// (WanderingNetwork::MixDigest: every field of the decision-state snapshot
// sections). Recording is append-plus-hash only — the hooks never draw from
// any RNG and never touch simulation state, so a journaled run makes
// bit-identical decisions to an unjournaled one (replay neutrality).
//
// The ring bounds memory for arbitrarily long runs; the per-step window
// hashes are kept separately and unbounded (one 16-byte entry per step), so
// divergence bisection still works after the ring has wrapped. The journal
// serializes through the TLV layer and rides in genesis snapshots as an
// extra section (JournalSection), which is what lets time-travel replay
// resume the record stream from any checkpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/archive.h"
#include "base/hash.h"
#include "base/status.h"
#include "genesis/snapshotable.h"
#include "sim/time.h"
#include "telemetry/mem_counters.h"

namespace viator::wli {
class WanderingNetwork;
}

namespace viator::replay {

/// RNG stream labels (the `stream` field of draw records).
inline constexpr std::uint32_t kStreamNetwork = 0;
inline constexpr std::uint32_t kStreamFabric = 1;
/// Ship streams are kStreamShipBase + node id.
inline constexpr std::uint32_t kStreamShipBase = 2;

/// Human name for a stream label ("network", "fabric", "ship 3").
std::string StreamName(std::uint32_t stream);

enum class RecordKind : std::uint8_t {
  kRngDraw = 1,     // a = drawn value
  kDispatch = 2,    // a = event seq
  kWindowHash = 3,  // stream = window index (steps), a = state hash
  kNote = 4,        // a = FNV-1a hash of the note text
  kShardHash = 5,   // stream = shard id, time = window index, a = shard hash
};

/// One journal entry. `digest` is the rolling journal digest *after* this
/// record — two journals with equal digests at a record agree on the entire
/// decision history up to it.
struct JournalRecord {
  RecordKind kind = RecordKind::kNote;
  std::uint32_t stream = 0;
  sim::TimePoint time = 0;
  std::uint64_t a = 0;
  std::uint64_t digest = 0;

  bool SameDecision(const JournalRecord& other) const {
    return kind == other.kind && stream == other.stream &&
           time == other.time && a == other.a;
  }
};

struct JournalConfig {
  /// Ring capacity in records; the oldest records are overwritten past it.
  std::size_t capacity = 1 << 16;
};

class DecisionJournal {
 public:
  explicit DecisionJournal(JournalConfig config = {});

  /// Installs the draw hooks (network/fabric/ship RNG streams) and the
  /// simulator dispatch hook on `network`. Call again after a genesis
  /// restore — restored ships are fresh objects with unhooked RNGs.
  void Attach(wli::WanderingNetwork& network);

  /// Removes every hook installed by Attach().
  void Detach();

  // ---- Recording (called by the hooks; also usable directly) ----

  void RecordDraw(std::uint32_t stream, std::uint64_t value);
  void RecordDispatch(sim::TimePoint when, std::uint64_t seq);
  void RecordNote(std::string_view text);

  /// Hashes the attached network's full state (MixDigest) and appends a
  /// window-hash record for step `window`. Returns the state hash.
  std::uint64_t CaptureWindowHash(std::uint64_t window);

  /// Appends an externally computed per-step/window state hash. This is how
  /// the sharded simulation core (src/shard) feeds its merged per-window
  /// hashes into an *unattached* journal: the sharding layer owns the merge
  /// order, the journal owns the bisectable hash timeline. `time` stamps the
  /// record (window-end virtual time); the hash also lands in
  /// window_hashes(), so DivergenceAuditor::Compare works unchanged.
  void RecordWindowHash(std::uint64_t window, std::uint64_t state_hash,
                        sim::TimePoint time = 0);

  /// Appends one shard's window-local state hash (ring only — the merged
  /// hash recorded by RecordWindowHash is the bisection timeline; per-shard
  /// hashes are the refinement that names the diverging shard).
  void RecordShardHash(std::uint64_t window, std::uint32_t shard,
                       std::uint64_t shard_hash);

  // ---- Inspection ----

  /// Records currently in the ring, oldest first.
  std::size_t size() const { return ring_.size(); }
  const JournalRecord& at(std::size_t index) const;

  /// Total records ever appended (including those the ring has dropped).
  std::uint64_t total_records() const { return total_records_; }
  std::uint64_t dropped_records() const {
    return total_records_ - ring_.size();
  }

  /// Rolling FNV-1a digest over every record ever appended.
  std::uint64_t rolling_digest() const { return rolling_digest_; }

  /// Per-step state hashes: (window index, hash), append-ordered. Unbounded
  /// — survives ring wrap, which is what bisection searches over.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>>& window_hashes()
      const {
    return window_hashes_;
  }

  std::size_t capacity() const { return config_.capacity; }
  bool attached() const { return network_ != nullptr; }

  // ---- Serialization (TLV; also the genesis section payload) ----

  std::vector<std::byte> Save() const { return SaveFields(*this); }
  /// A payload that fails to load leaves the journal as it was.
  Status Load(std::span<const std::byte> payload) {
    return LoadFields(payload, *this);
  }

  /// Capacity, record count and rolling digest, then the ring (oldest
  /// first) and the window hashes, each packed into one blob of 8-byte
  /// little-endian words.
  template <class A>
  void Visit(A& a) {
    std::uint64_t capacity = config_.capacity;
    std::uint64_t total = A::kLoading ? 0 : total_records_;
    std::uint64_t digest = A::kLoading ? kFnvOffsetBasis : rolling_digest_;
    a.U64(1, capacity);
    a.U64(2, total);
    a.U64(3, digest);
    if constexpr (A::kLoading) {
      std::vector<JournalRecord> ring;
      WindowHashes windows;
      a.Payloads(4, [&ring](std::span<const std::byte> bytes) {
        return UnpackRecords(bytes, ring);
      });
      a.Payloads(5, [&windows](std::span<const std::byte> bytes) {
        return UnpackWindows(bytes, windows);
      });
      if (a.ok()) {
        a.Check(Adopt(capacity, total, digest, std::move(ring),
                      std::move(windows)));
      }
    } else {
      a.Blobs(4, std::span(this, 1), PackRecords);
      a.Blobs(5, std::span(&window_hashes_, 1), PackWindows);
    }
  }

 private:
  using WindowHashes = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  static std::vector<std::byte> PackRecords(const DecisionJournal& journal);
  static std::vector<std::byte> PackWindows(const WindowHashes& windows);
  static Status UnpackRecords(std::span<const std::byte> bytes,
                              std::vector<JournalRecord>& ring);
  static Status UnpackWindows(std::span<const std::byte> bytes,
                              WindowHashes& windows);
  // Replaces the journal's contents with a loaded payload's, if consistent.
  Status Adopt(std::uint64_t capacity, std::uint64_t total,
               std::uint64_t digest, std::vector<JournalRecord> ring,
               WindowHashes windows);

  void Append(RecordKind kind, std::uint32_t stream, sim::TimePoint time,
              std::uint64_t a);

  // Re-mirrors the ring + window-hash capacities into the kJournalRing
  // domain. O(1): capacities only change at construction, window-hash
  // growth and Load().
  void SyncMemBytes();

  static void DrawTrampoline(void* ctx, std::uint32_t stream,
                             std::uint64_t value);
  static void DispatchTrampoline(void* ctx, sim::TimePoint when,
                                 std::uint64_t seq);

  JournalConfig config_;
  wli::WanderingNetwork* network_ = nullptr;

  std::vector<JournalRecord> ring_;  // ring buffer, head_ = oldest
  std::size_t head_ = 0;
  std::uint64_t total_records_ = 0;
  std::uint64_t rolling_digest_ = kFnvOffsetBasis;
  WindowHashes window_hashes_;
  telemetry::mem::ChargedBytes<telemetry::mem::Domain::kJournalRing>
      mem_bytes_;
};

/// Rides the journal in genesis snapshots (extra section), so a restored
/// checkpoint resumes the decision history exactly where it was captured.
using JournalSection =
    genesis::SnapshotAdapter<DecisionJournal, 6, "decision-journal">;

}  // namespace viator::replay
