// Tag-length-value codec used for "genetic transcoding".
//
// Ship genomes, knowledge quanta and shuttle payload sections are serialized
// as TLV records: a 16-bit tag, a 32-bit length and the payload bytes, with a
// trailing FNV-1a checksum over the whole stream. Records may nest (a record
// payload can itself be a TLV stream), which gives the genome its
// hierarchical structure without a schema compiler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace viator {

/// Record tag. Semantics are owned by the caller; tags 0xFF00+ are reserved
/// for the codec itself (0xFFFF = checksum trailer).
using TlvTag = std::uint16_t;

inline constexpr TlvTag kTlvChecksumTag = 0xFFFF;

/// Serializes TLV records into a byte buffer. Finish() appends the checksum
/// trailer and returns the completed buffer; the writer may then be reused.
class TlvWriter {
 public:
  void PutBytes(TlvTag tag, std::span<const std::byte> bytes);
  void PutString(TlvTag tag, std::string_view text);
  void PutU64(TlvTag tag, std::uint64_t value);
  void PutU32(TlvTag tag, std::uint32_t value);
  void PutDouble(TlvTag tag, double value);
  /// Embeds a complete (already-finished or raw) TLV stream as one record.
  void PutNested(TlvTag tag, std::span<const std::byte> stream);

  /// Opens a nested record written in place: the records put until the
  /// matching EndNested(mark) become its payload, closed with their own
  /// checksum trailer, byte-identical to PutNested of a separately finished
  /// writer but without the second buffer. Nests to any depth.
  std::size_t BeginNested(TlvTag tag);
  void EndNested(std::size_t mark);

  /// Appends the checksum trailer and returns the buffer, resetting state.
  std::vector<std::byte> Finish();

  /// Bytes accumulated so far (excluding the trailer).
  std::size_t size() const { return buffer_.size(); }

 private:
  void PutHeader(TlvTag tag, std::uint32_t length);
  std::vector<std::byte> buffer_;
};

/// A decoded record view into the reader's underlying buffer.
struct TlvRecord {
  TlvTag tag = 0;
  std::span<const std::byte> payload;

  std::uint64_t AsU64() const;
  std::uint32_t AsU32() const;
  double AsDouble() const;
  std::string AsString() const;
};

/// Sequential reader over a TLV stream. Verify() checks the trailer checksum;
/// Next() yields records in order.
class TlvReader {
 public:
  explicit TlvReader(std::span<const std::byte> stream) : stream_(stream) {}

  /// Validates framing and the checksum trailer without consuming records.
  Status Verify() const;

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
