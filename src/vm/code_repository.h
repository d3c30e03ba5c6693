// Content-addressed program storage and the per-ship code cache.
//
// The network-wide CodeRepository is the authoritative store (an origin a
// code-shuttle can always be fetched from); each ship keeps a bounded
// CodeCache in front of it. Demand loading follows the ANTS scheme: a
// shuttle references its processing routine by digest; on a cache miss the
// ship requests the program from the previous hop / origin and queues the
// shuttle until code arrives. The transfer itself is performed by the core
// layer (code-request / code-reply shuttles); these classes provide the
// storage semantics and hit/miss accounting that experiment E11 reports.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "vm/program.h"
#include "vm/verifier.h"

namespace viator::vm {

/// Authoritative digest → program store. Install verifies the program first:
/// the repository never serves unverifiable code.
class CodeRepository {
 public:
  /// Verifies and stores `program`. Idempotent for identical content.
  Result<Digest> Install(Program program);

  /// Looks a program up by digest.
  const Program* Find(Digest digest) const;

  /// All stored digests in ascending order (deterministic enumeration for
  /// snapshot serialization).
  std::vector<Digest> Digests() const;

  /// Snapshot fields (inside the genesis repository section): every stored
  /// program image, in ascending digest order. A load verifies and installs
  /// each image.
  template <class A>
  void Visit(A& a) {
    if constexpr (A::kLoading) {
      a.Payloads(0x01, [this](std::span<const std::byte> image) -> Status {
        auto program = Program::Deserialize(image);
        if (!program.ok()) return program.status();
        return Install(*std::move(program)).status();
      });
    } else {
      a.Images(0x01, Digests(), [this](Digest digest) -> const Program& {
        return *Find(digest);
      });
    }
  }

  std::size_t size() const { return programs_.size(); }

 private:
  std::unordered_map<Digest, Program> programs_;
};

/// Bounded LRU cache of programs resident on one ship. Capacity is counted
/// in serialized bytes, mirroring the NodeOS memory quota for code.
class CodeCache {
 public:
  explicit CodeCache(std::size_t capacity_bytes = 64 * 1024)
      : capacity_(capacity_bytes) {}

  /// Inserts (or refreshes) a program, evicting LRU entries to fit. Programs
  /// larger than the whole cache are rejected with kResourceExhausted.
  Status Put(const Program& program);

  /// Cache lookup; bumps recency and the hit/miss counters.
  const Program* Get(Digest digest);

  /// Lookup without recency/stat side effects.
  bool Contains(Digest digest) const;

  /// Snapshot fields (inlined in a ship's genesis record, tags 0x17-0x19):
  /// the resident program images most recent first, then hit/miss
  /// accounting. A load Put()s the images least recent first, so recency
  /// order and byte usage come back as captured.
  template <class A>
  void Visit(A& a) {
    if constexpr (A::kLoading) {
      std::vector<Program> most_recent_first;
      a.Payloads(0x17, [&](std::span<const std::byte> image) -> Status {
        auto program = Program::Deserialize(image);
        if (!program.ok()) return program.status();
        most_recent_first.push_back(*std::move(program));
        return OkStatus();
      });
      for (auto it = most_recent_first.rbegin();
           it != most_recent_first.rend() && a.ok(); ++it) {
        a.Check(Put(*it));
      }
    } else {
      a.Images(0x17, lru_, [this](Digest digest) -> const Program& {
        return entries_.at(digest).program;
      });
    }
    a.U64(0x18, hits_);
    a.U64(0x19, misses_);
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t entry_count() const { return entries_.size(); }

 private:
  struct Entry {
    Program program;
    std::size_t bytes;
    std::list<Digest>::iterator lru_it;
  };

  std::size_t capacity_;
  std::size_t bytes_used_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::list<Digest> lru_;  // front = most recent
  std::unordered_map<Digest, Entry> entries_;
};

}  // namespace viator::vm
