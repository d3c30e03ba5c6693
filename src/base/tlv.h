// Tag-length-value codec used for "genetic transcoding".
//
// Every byte format of the system is a stream of TLV records: a 16-bit tag,
// a 32-bit length and the payload bytes, with a trailing FNV-1a checksum
// over the whole stream. Records may nest (a record payload can itself be a
// TLV stream), which gives genomes and snapshot sections their
// hierarchical structure without a schema compiler. Formats are written and
// read as field lists through base/archive.h, which checks each record's
// width; TlvWriter and TlvReader are the raw codec underneath it.
//
// A container of large finished streams (snapshot sections, shard
// snapshots) embeds them as *sealed* records instead (the archive's Sealed
// field): the container's trailer covers a sealed record's header and the
// body's own checksum word, not the body, whose own trailer already covers
// it. Every byte then sits under exactly one checksum, and the chain of
// trailers still binds each body to its container. In a stream without
// sealed records the trailer covers every byte before it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "base/status.h"

namespace viator {

/// Record tag. Semantics are owned by the caller; tags 0xFF00+ are reserved
/// for the codec itself (0xFFFF = checksum trailer).
using TlvTag = std::uint16_t;

inline constexpr TlvTag kTlvChecksumTag = 0xFFFF;

/// Bytes of the checksum trailer record that ends every finished stream:
/// its header (tag, length) and the 8-byte FNV-1a of the bytes before it.
inline constexpr std::size_t kTlvTrailerSize = 6 + 8;

/// HashBytes(stream) of a finished stream without sealed records, in O(1):
/// the trailer holds the FNV-1a of everything before it, so only the
/// trailer itself is hashed. Exact whenever the trailer is (a stream
/// Finish() returned or Verify() accepted); a stream that does not end in a
/// trailer is hashed in full.
Digest TlvStreamDigest(std::span<const std::byte> stream);

/// Serializes TLV records into a byte buffer. Finish() appends the checksum
/// trailer and returns the completed buffer; the writer may then be reused.
class TlvWriter {
 public:
  void PutBytes(TlvTag tag, std::span<const std::byte> bytes);
  void PutString(TlvTag tag, std::string_view text);
  void PutU64(TlvTag tag, std::uint64_t value);
  void PutU32(TlvTag tag, std::uint32_t value);

  /// Opens a nested record written in place: the records put until the
  /// matching EndNested(mark) become its payload, closed with their own
  /// checksum trailer, byte-identical to PutBytes of a separately finished
  /// writer's stream but without the second buffer. Nests to any depth.
  std::size_t BeginNested(TlvTag tag);
  void EndNested(std::size_t mark);

  /// Embeds a finished stream (what Finish() returned) as a sealed record:
  /// this stream's trailer covers the record's header and the body's last
  /// 8 bytes (its checksum word), not the rest of the body. Read the
  /// enclosing stream with TlvReader::Verify(tag) and verify each body on
  /// its own. Top-level records only: not between BeginNested and EndNested.
  void PutSealed(TlvTag tag, std::span<const std::byte> stream);

  /// A sealed record written in place, as BeginNested/EndNested write a
  /// nested one: EndSealed closes the body with its own trailer and returns
  /// the finished body (valid until the next write). Top level only, as for
  /// PutSealed; nested records inside the body are fine.
  std::size_t BeginSealed(TlvTag tag) { return BeginNested(tag); }
  std::span<const std::byte> EndSealed(std::size_t mark);

  /// Appends the checksum trailer and returns the buffer, resetting state.
  std::vector<std::byte> Finish();

  /// Bytes accumulated so far (excluding the trailer).
  std::size_t size() const { return buffer_.size(); }

  /// Drops the records written since size() was `size`.
  void Truncate(std::size_t size);

  /// Reserves room for `bytes` more bytes, for a caller that knows the size.
  void Reserve(std::size_t bytes) { buffer_.reserve(buffer_.size() + bytes); }

 private:
  void PutHeader(TlvTag tag, std::uint32_t length);
  std::vector<std::byte> buffer_;
  // [begin, end) of every sealed body, in order: Finish() hashes only
  // their last 8 bytes.
  std::vector<std::pair<std::size_t, std::size_t>> sealed_;
};

/// A decoded record view into the reader's underlying buffer. Its fields
/// are read through base/archive.h, which checks their widths.
struct TlvRecord {
  TlvTag tag = 0;
  std::span<const std::byte> payload;
};

/// A stream whose framing and checksum trailer Check() verified. Only
/// Check() makes one, so a consumer that takes it (LoadArchive) reads the
/// bytes without checking them again. A view, valid while the bytes are; a
/// default-constructed one is empty.
class VerifiedTlv {
 public:
  VerifiedTlv() = default;
  /// Verifies `stream` as TlvReader::Verify() does and hands it back.
  static Result<VerifiedTlv> Check(std::span<const std::byte> stream);
  std::span<const std::byte> bytes() const { return bytes_; }

 private:
  explicit VerifiedTlv(std::span<const std::byte> bytes) : bytes_(bytes) {}
  std::span<const std::byte> bytes_;
};

/// Sequential reader over a TLV stream. Verify() checks the trailer checksum;
/// Next() yields records in order.
class TlvReader {
 public:
  explicit TlvReader(std::span<const std::byte> stream) : stream_(stream) {}

  /// Validates framing and the checksum trailer without consuming records.
  /// Records tagged `sealed` are read as PutSealed wrote them: the trailer
  /// covers their header and checksum word, and their bodies are left to
  /// the caller to verify.
  Status Verify(std::optional<TlvTag> sealed = std::nullopt) const;

  /// True while records (other than the trailer) remain.
  bool HasNext() const;

  /// Next record. Fails with kInvalidArgument on truncated input.
  Result<TlvRecord> Next();

  /// Restart iteration from the beginning.
  void Rewind() { cursor_ = 0; }

 private:
  std::span<const std::byte> stream_;
  std::size_t cursor_ = 0;
};

}  // namespace viator
