#include "base/tlv.h"

#include <cstring>

#include "base/hash.h"

namespace viator {
namespace {

void AppendLe(std::vector<std::byte>& out, std::uint64_t value, int bytes) {
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(bytes));
  for (int i = 0; i < bytes; ++i) {
    out[at + i] = static_cast<std::byte>((value >> (8 * i)) & 0xff);
  }
}

std::uint64_t ReadLe(std::span<const std::byte> in, std::size_t at, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
  }
  return v;
}

constexpr std::size_t kHeaderSize = 2 + 4;  // tag + length

}  // namespace

void TlvWriter::PutHeader(TlvTag tag, std::uint32_t length) {
  AppendLe(buffer_, tag, 2);
  AppendLe(buffer_, length, 4);
}

void TlvWriter::PutBytes(TlvTag tag, std::span<const std::byte> bytes) {
  PutHeader(tag, static_cast<std::uint32_t>(bytes.size()));
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void TlvWriter::PutString(TlvTag tag, std::string_view text) {
  PutBytes(tag, std::as_bytes(std::span(text.data(), text.size())));
}

void TlvWriter::PutU64(TlvTag tag, std::uint64_t value) {
  PutHeader(tag, 8);
  AppendLe(buffer_, value, 8);
}

void TlvWriter::PutU32(TlvTag tag, std::uint32_t value) {
  PutHeader(tag, 4);
  AppendLe(buffer_, value, 4);
}

void TlvWriter::PutDouble(TlvTag tag, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(tag, bits);
}

void TlvWriter::PutNested(TlvTag tag, std::span<const std::byte> stream) {
  PutBytes(tag, stream);
}

std::size_t TlvWriter::BeginNested(TlvTag tag) {
  const std::size_t mark = buffer_.size();
  PutHeader(tag, 0);  // length patched by EndNested
  return mark;
}

void TlvWriter::EndNested(std::size_t mark) {
  const std::size_t start = mark + kHeaderSize;
  const Digest checksum =
      HashBytes(std::span(buffer_).subspan(start, buffer_.size() - start));
  PutHeader(kTlvChecksumTag, 8);
  AppendLe(buffer_, checksum, 8);
  const auto length = static_cast<std::uint32_t>(buffer_.size() - start);
  for (int i = 0; i < 4; ++i) {
    buffer_[mark + 2 + i] = static_cast<std::byte>((length >> (8 * i)) & 0xff);
  }
}

std::vector<std::byte> TlvWriter::Finish() {
  const Digest checksum = HashBytes(buffer_);
  PutHeader(kTlvChecksumTag, 8);
  AppendLe(buffer_, checksum, 8);
  std::vector<std::byte> out;
  out.swap(buffer_);
  return out;
}

std::uint64_t TlvRecord::AsU64() const {
  if (payload.size() != 8) return 0;
  return ReadLe(payload, 0, 8);
}

std::uint32_t TlvRecord::AsU32() const {
  if (payload.size() != 4) return 0;
  return static_cast<std::uint32_t>(ReadLe(payload, 0, 4));
}

double TlvRecord::AsDouble() const {
  const std::uint64_t bits = AsU64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string TlvRecord::AsString() const {
  return std::string(reinterpret_cast<const char*>(payload.data()),
                     payload.size());
}

Status TlvReader::Verify() const {
  std::size_t at = 0;
  while (at + kHeaderSize <= stream_.size()) {
    const TlvTag tag = static_cast<TlvTag>(ReadLe(stream_, at, 2));
    const std::uint64_t len = ReadLe(stream_, at + 2, 4);
    if (at + kHeaderSize + len > stream_.size()) {
      return InvalidArgument("truncated TLV record");
    }
    if (tag == kTlvChecksumTag) {
      if (len != 8) return InvalidArgument("malformed checksum trailer");
      const Digest stored = ReadLe(stream_, at + kHeaderSize, 8);
      const Digest actual = HashBytes(stream_.subspan(0, at));
      if (stored != actual) return InvalidArgument("TLV checksum mismatch");
      if (at + kHeaderSize + 8 != stream_.size()) {
        return InvalidArgument("bytes after checksum trailer");
      }
      return OkStatus();
    }
    at += kHeaderSize + len;
  }
  return InvalidArgument("missing checksum trailer");
}

bool TlvReader::HasNext() const {
  if (cursor_ + kHeaderSize > stream_.size()) return false;
  const TlvTag tag = static_cast<TlvTag>(ReadLe(stream_, cursor_, 2));
  return tag != kTlvChecksumTag;
}

Result<TlvRecord> TlvReader::Next() {
  if (cursor_ + kHeaderSize > stream_.size()) {
    return Status(InvalidArgument("read past end of TLV stream"));
  }
  const TlvTag tag = static_cast<TlvTag>(ReadLe(stream_, cursor_, 2));
  const std::uint64_t len = ReadLe(stream_, cursor_ + 2, 4);
  if (cursor_ + kHeaderSize + len > stream_.size()) {
    return Status(InvalidArgument("truncated TLV record"));
  }
  TlvRecord rec;
  rec.tag = tag;
  rec.payload = stream_.subspan(cursor_ + kHeaderSize, len);
  cursor_ += kHeaderSize + len;
  return rec;
}

}  // namespace viator
