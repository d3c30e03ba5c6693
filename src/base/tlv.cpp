#include "base/tlv.h"

#include <algorithm>

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

Digest TlvStreamDigest(std::span<const std::byte> stream) {
  if (stream.size() < kTlvTrailerSize) return HashBytes(stream);
  const std::size_t at = stream.size() - kTlvTrailerSize;
  if (ReadLe(stream, at, 2) != kTlvChecksumTag ||
      ReadLe(stream, at + 2, 4) != 8) {
    return HashBytes(stream);
  }
  return HashCombine(ReadLe(stream, at + kHeaderSize, 8), stream.subspan(at));
}

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

void TlvWriter::PutSealed(TlvTag tag, std::span<const std::byte> stream) {
  PutBytes(tag, stream);
  sealed_.emplace_back(buffer_.size() - stream.size(), buffer_.size());
}

std::span<const std::byte> TlvWriter::EndSealed(std::size_t mark) {
  EndNested(mark);
  sealed_.emplace_back(mark + kHeaderSize, buffer_.size());
  return std::span<const std::byte>(buffer_).subspan(mark + kHeaderSize);
}

void TlvWriter::Truncate(std::size_t size) {
  buffer_.resize(size);
  while (!sealed_.empty() && sealed_.back().second > size) sealed_.pop_back();
}

std::vector<std::byte> TlvWriter::Finish() {
  const std::span<const std::byte> bytes(buffer_);
  Digest checksum = kFnvOffsetBasis;
  std::size_t at = 0;
  for (const auto& [begin, end] : sealed_) {
    const std::span<const std::byte> body = bytes.subspan(begin, end - begin);
    checksum = HashCombine(checksum, bytes.subspan(at, begin - at));
    checksum = HashCombine(checksum,
                           body.last(std::min<std::size_t>(8, body.size())));
    at = end;
  }
  checksum = HashCombine(checksum, bytes.subspan(at));
  sealed_.clear();
  PutHeader(kTlvChecksumTag, 8);
  AppendLe(buffer_, checksum, 8);
  std::vector<std::byte> out;
  out.swap(buffer_);
  return out;
}

Status TlvReader::Verify(std::optional<TlvTag> sealed) const {
  Digest actual = kFnvOffsetBasis;
  std::size_t hashed = 0;  // stream_[0, hashed) is folded into `actual`
  std::size_t at = 0;
  while (at + kHeaderSize <= stream_.size()) {
    const TlvTag tag = static_cast<TlvTag>(ReadLe(stream_, at, 2));
    const std::uint64_t len = ReadLe(stream_, at + 2, 4);
    if (at + kHeaderSize + len > stream_.size()) {
      return InvalidArgument("truncated TLV record");
    }
    const std::size_t end = at + kHeaderSize + len;
    if (tag == kTlvChecksumTag) {
      if (len != 8) return InvalidArgument("malformed checksum trailer");
      const Digest stored = ReadLe(stream_, at + kHeaderSize, 8);
      actual = HashCombine(actual, stream_.subspan(hashed, at - hashed));
      if (stored != actual) return InvalidArgument("TLV checksum mismatch");
      if (end != stream_.size()) {
        return InvalidArgument("bytes after checksum trailer");
      }
      return OkStatus();
    }
    if (sealed && tag == *sealed) {
      // A finished stream ends in a trailer; its last 8 bytes are covered
      // here, the rest by that trailer.
      if (len < kTlvTrailerSize) {
        return InvalidArgument("malformed sealed record");
      }
      actual = HashCombine(actual,
                           stream_.subspan(hashed, at + kHeaderSize - hashed));
      actual = HashCombine(actual, stream_.subspan(end - 8, 8));
      hashed = end;
    }
    at = end;
  }
  return InvalidArgument("missing checksum trailer");
}

Result<VerifiedTlv> VerifiedTlv::Check(std::span<const std::byte> stream) {
  if (Status status = TlvReader(stream).Verify(); !status.ok()) return status;
  return VerifiedTlv(stream);
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
