// Content hashing for the Viator code-distribution and genome subsystems.
//
// WanderScript programs, genomes and knowledge quanta are content-addressed:
// a 64-bit FNV-1a digest identifies immutable byte strings. FNV-1a is not
// cryptographic — capsule *authorization* additionally uses a keyed tag (see
// services/security) — but it is deterministic, fast, and collision-safe
// enough for a simulator's content store.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace viator {

/// 64-bit content digest (FNV-1a).
using Digest = std::uint64_t;

inline constexpr Digest kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr Digest kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over raw bytes.
Digest HashBytes(std::span<const std::byte> bytes);

/// FNV-1a over a string.
Digest HashString(std::string_view text);

/// Incrementally extend a digest with more bytes (chainable).
Digest HashCombine(Digest seed, std::span<const std::byte> bytes);

/// Extend a digest with a single 64-bit word (for hashing structured data).
Digest HashCombineWord(Digest seed, std::uint64_t word);

/// Hex rendering of a digest, e.g. "4f8a...", for traces and tables.
std::string DigestToHex(Digest digest);

/// A keyed (non-cryptographic) authentication tag: digest over key || data ||
/// key. Stands in for an HMAC in the capsule-authorization path; the security
/// *protocol* shape (shared key, tag verify, reject on mismatch) is what the
/// experiments exercise.
Digest KeyedTag(std::uint64_t key, std::span<const std::byte> data);

/// Incremental structured hasher for rolling state digests (the flight
/// recorder's window hashes, base/archive.h's HashArchive). State is mixed
/// word by word; the order of Mix calls is part of the digest, so callers
/// must enumerate state in a deterministic order.
///
/// One word costs one multiply and one xor-shift. Both steps are bijections
/// of the running digest, so changing any single word always changes the
/// 64-bit result; the shift folds high bits into the low ones that
/// truncated (e.g. 52-bit) digests keep. Byte streams (HashBytes,
/// HashCombineWord, content digests) stay byte-wise FNV-1a.
class Hasher {
 public:
  void Mix(std::uint64_t word) {
    digest_ = (digest_ ^ word) * kFnvPrime;
    digest_ ^= digest_ >> 32;
  }
  void Mix(std::string_view text) {
    Mix(static_cast<std::uint64_t>(text.size()));
    digest_ = HashCombine(
        digest_, std::as_bytes(std::span(text.data(), text.size())));
  }
  void MixDouble(double value) { Mix(std::bit_cast<std::uint64_t>(value)); }
  void MixBytes(std::span<const std::byte> bytes) {
    Mix(static_cast<std::uint64_t>(bytes.size()));
    digest_ = HashCombine(digest_, bytes);
  }

  Digest digest() const { return digest_; }

 private:
  Digest digest_ = kFnvOffsetBasis;
};

}  // namespace viator
