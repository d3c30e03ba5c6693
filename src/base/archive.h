// One field list, three walks: the archives a stateful class's Visit runs.
//
// A class that rides in a genesis snapshot, or has a byte format of its own
// (ship genomes, knowledge quanta, program images, journals, flight files,
// snapshot containers, sharded checkpoints), declares its state once, as an
// ordered field list:
//
//   template <class A>
//   void Visit(A& a) {
//     a.U64(kTagHits, hits_);
//     a.Each(kTagEntry, entries_, [](auto& r, auto& key, auto& value) {
//       r.U64(0x01, key);
//       r.F64(0x02, value);
//     });
//   }
//
// Three archives run over that one list:
//  - SaveArchive writes each field as a TLV record (base/tlv.h): scalars as
//    fixed-width records, records and sequences as nested TLV streams with
//    their own checksum trailer, written in place in one buffer.
//  - LoadArchive reads the fields back in the same order in one forward
//    pass over the stream, without allocating per record. A field whose tag
//    is absent keeps its current value ("absent tag -> default"); records
//    with tags the list does not name are skipped ("unknown tag -> skip");
//    a scalar whose payload width does not match its type, an enum out of
//    range or a truncated record is an InvalidArgument. The first error
//    sticks; later fields are then no-ops.
//  - HashArchive folds every field into a Hasher (base/hash.h): the
//    flight recorder's state digest therefore covers exactly what a
//    snapshot saves. Sequences mix their length first; objects stored by
//    their own codec (programs) mix their content digest. An object that
//    caches the digest of its own fields (a ship, the topology) is mixed as
//    that one word, so a digest re-walks only what changed since the last
//    one (see HashArchive::Cached).
//
// Wire types are explicit per field: U64 (any integer, signed ones
// sign-extended), U32, F64, Bool (a U32 0/1), Str, Enum (a U32 checked
// against its count on load). Repeated integers are U64 records, repeated
// bools U32 records. Save and hash archives only read, so a const object is
// walked through Walk() (and container elements reach field lists as
// mutable references in every archive). Loads need `if constexpr
// (A::kLoading)` only where restoring is more than assignment (rebuilds,
// validation, creation order).
//
// Framings that carry finished streams whole (a snapshot container's
// section payloads, a sharded checkpoint's shard containers) hold each in a
// Sealed field, a sealed record (base/tlv.h). A save embeds the body and
// returns it, so its digest can be read off its trailer. A load verifies
// the enclosing stream once (LoadArchive(stream, tag)) and hands each body,
// unchecked, to the caller, who verifies it once. Such framings repeat a
// Flat group per body. A Flat group's fields (there, or a quantum's facts)
// are sought only up to the next group: none takes the next one's field.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "base/status.h"
#include "base/tlv.h"

namespace viator {

namespace archive_internal {

template <class T>
std::uint64_t Word(const T& value) {
  if constexpr (std::is_signed_v<T>) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(value));
  } else {
    return static_cast<std::uint64_t>(value);
  }
}

template <class C>
concept MapLike = requires { typename C::mapped_type; };

// What a load builds per record: a (key, value) pair with a mutable key for
// maps, the element type otherwise.
template <class C>
struct Element {
  using type = typename C::value_type;
};
template <MapLike C>
struct Element<C> {
  using type = std::pair<typename C::key_type, typename C::mapped_type>;
};

template <class T, class A>
concept Visitable = requires(T& t, A& a) { t.Visit(a); };

// Applies a field list to one container element: map entries as (key,
// value), everything else as the element itself.
template <class Fields, class A, class E>
void VisitEntry(Fields& fields, A& a, E& entry) {
  if constexpr (requires { fields(a, entry.first, entry.second); }) {
    fields(a, entry.first, entry.second);
  } else {
    fields(a, entry);
  }
}

}  // namespace archive_internal

/// The walk the save and hash archives share. Fields reduce to what a Sink
/// provides: Word(tag, word, width), Text(tag, text), Bytes(tag, bytes),
/// Open(tag)/Close(mark) around a nested record, and Count(n) ahead of a
/// sequence. A sink may also hide any field method to treat it apart.
template <class Sink>
class WriteArchive {
 public:
  static constexpr bool kLoading = false;

  template <class T>
  void U64(TlvTag tag, const T& value) {
    sink().Word(tag, archive_internal::Word(value), 8);
  }
  template <class T>
  void U32(TlvTag tag, const T& value) {
    sink().Word(tag, static_cast<std::uint32_t>(value), 4);
  }
  void F64(TlvTag tag, double value) {
    sink().Word(tag, std::bit_cast<std::uint64_t>(value), 8);
  }
  void Bool(TlvTag tag, bool value) { sink().U32(tag, value ? 1u : 0u); }
  void Str(TlvTag tag, std::string_view value) { sink().Text(tag, value); }
  template <class E>
  void Enum(TlvTag tag, const E& value, E /*count*/, const char* /*what*/) {
    sink().U32(tag, static_cast<std::uint32_t>(value));
  }
  /// One record per element, holding encode(element).
  template <class Range, class Encode>
  void Blobs(TlvTag tag, const Range& elements, Encode&& encode) {
    sink().Count(std::size(elements));
    for (const auto& element : elements) sink().Bytes(tag, encode(element));
  }
  /// The nonzero entries of `values` as (U32 index, U64 value) record pairs.
  void Sparse(TlvTag index_tag, TlvTag value_tag,
              std::span<const std::uint64_t> values) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] == 0) continue;
      sink().U32(index_tag, i);
      sink().U64(value_tag, values[i]);
    }
  }

  /// One nested record: `fields` is an object with Visit or a callable
  /// taking the archive. Returns whether the record was there (always, but
  /// for loads).
  template <class Fields>
  bool Record(TlvTag tag, Fields&& fields) {
    const std::size_t mark = sink().Open(tag);
    using Target = std::remove_cvref_t<Fields>;
    if constexpr (archive_internal::Visitable<Target, Sink>) {
      const_cast<Target&>(fields).Visit(sink());
    } else {
      fields(sink());
    }
    sink().Close(mark);
    return true;
  }
  /// One nested record per element (maps: per entry, as key and value).
  /// The optional `add` is for loads only (see LoadArchive::Each).
  template <class C, class Fields, class... Add>
  void Each(TlvTag tag, const C& container, Fields&& fields, Add&&...) {
    sink().Count(container.size());
    for (auto& entry : const_cast<C&>(container)) {
      Record(tag, [&](Sink& record) {
        archive_internal::VisitEntry(fields, record, entry);
      });
    }
  }
  /// One record per element: integers as U64, bools as U32.
  template <class C>
  void Repeated(TlvTag tag, const C& values) {
    sink().Count(std::size(values));
    for (const auto& value : values) {
      if constexpr (std::is_same_v<std::remove_cvref_t<decltype(value)>,
                                   bool>) {
        sink().Bool(tag, value);
      } else {
        sink().U64(tag, value);
      }
    }
  }
  /// A fixed number of U64 records under one tag.
  void Words(TlvTag tag, std::span<const std::uint64_t> words) {
    for (std::uint64_t word : words) sink().U64(tag, word);
  }
  /// One group of fields per element, written flat into this record, not
  /// nested: a load starts a group at each record tagged `first`, the
  /// group's first field.
  template <class C, class Fields>
  void Flat(TlvTag /*first*/, const C& elements, Fields&& fields) {
    sink().Count(std::size(elements));
    for (auto& element : const_cast<C&>(elements)) fields(sink(), element);
  }

 private:
  Sink& sink() { return static_cast<Sink&>(*this); }
};

class SaveArchive : public WriteArchive<SaveArchive> {
 public:
  SaveArchive() : writer_(own_) {}
  /// Writes the fields into `writer` instead (e.g. in place, inside a
  /// record the caller opened and closes); Finish() is then not used.
  explicit SaveArchive(TlvWriter& writer) : writer_(writer) {}
  SaveArchive(const SaveArchive&) = delete;
  SaveArchive& operator=(const SaveArchive&) = delete;

  /// Content-addressed objects stored by their own codec: one record per
  /// digest in `digests`, holding find(digest).Serialize().
  template <class Range, class Find>
  void Images(TlvTag tag, const Range& digests, Find&& find) {
    for (const auto& digest : digests) {
      writer_.PutBytes(tag, find(digest).Serialize());
    }
  }

  /// A Sealed field holding `body`, a finished stream; returns the body.
  /// Top-level records and flat groups only, as for PutSealed.
  std::span<const std::byte> Sealed(TlvTag tag,
                                    std::span<const std::byte> body) {
    writer_.PutSealed(tag, body);
    return body;
  }
  /// A Sealed field whose body `fields(archive)` writes in place, closed
  /// with its own trailer; returns the finished body (valid until the next
  /// write).
  template <class Fields>
    requires std::invocable<Fields&, SaveArchive&>
  std::span<const std::byte> Sealed(TlvTag tag, Fields&& fields) {
    const std::size_t mark = writer_.BeginSealed(tag);
    fields(*this);
    return writer_.EndSealed(mark);
  }

  /// Appends the checksum trailer and returns the stream.
  std::vector<std::byte> Finish() { return writer_.Finish(); }

 private:
  friend class WriteArchive<SaveArchive>;
  void Word(TlvTag tag, std::uint64_t word, int width) {
    if (width == 4) {
      writer_.PutU32(tag, static_cast<std::uint32_t>(word));
    } else {
      writer_.PutU64(tag, word);
    }
  }
  void Text(TlvTag tag, std::string_view text) { writer_.PutString(tag, text); }
  void Bytes(TlvTag tag, std::span<const std::byte> bytes) {
    writer_.PutBytes(tag, bytes);
  }
  std::size_t Open(TlvTag tag) { return writer_.BeginNested(tag); }
  void Close(std::size_t mark) { writer_.EndNested(mark); }
  void Count(std::size_t) {}

  TlvWriter own_;
  TlvWriter& writer_;
};

class HashArchive : public WriteArchive<HashArchive> {
 public:
  /// An `uncached` archive ignores every cached digest and walks those
  /// objects' fields afresh: the reference cached digests are tested
  /// against, not a data-path mode.
  explicit HashArchive(Hasher& hasher, bool uncached = false)
      : hasher_(hasher), uncached_(uncached) {}

  bool uncached() const { return uncached_; }

  template <class Range, class Find>
  void Images(TlvTag, const Range& digests, Find&&) {
    Count(std::size(digests));
    for (const auto& digest : digests) hasher_.Mix(digest);
  }

  /// Mixes `object`, which caches the digest of its own fields (a
  /// HashFields walk its mutators keep current), as that one word:
  /// `cached()`, or in an uncached archive the digest of a fresh walk.
  /// Save and load archives have no such hook; they walk the fields.
  template <class T, class Get>
  void Cached(const T& object, Get&& cached) {
    if (!uncached_) {
      hasher_.Mix(cached());
      return;
    }
    Hasher fresh;
    HashArchive walk(fresh, true);
    const_cast<T&>(object).Visit(walk);
    hasher_.Mix(fresh.digest());
  }

 private:
  friend class WriteArchive<HashArchive>;
  void Word(TlvTag, std::uint64_t word, int) { hasher_.Mix(word); }
  void Text(TlvTag, std::string_view text) { hasher_.Mix(text); }
  void Bytes(TlvTag, std::span<const std::byte> bytes) {
    hasher_.MixBytes(bytes);
  }
  std::size_t Open(TlvTag) { return 0; }
  void Close(std::size_t) {}
  void Count(std::size_t n) { hasher_.Mix(n); }

  Hasher& hasher_;
  bool uncached_;
};

/// The one archive that may mix an object's cached digest for its fields.
template <class A>
concept CachingArchive = std::is_same_v<A, HashArchive>;

class LoadArchive {
 public:
  static constexpr bool kLoading = true;

  /// Reads a complete stream (a section or adapter payload): its checksum
  /// trailer is verified first, as TlvReader::Verify(sealed) reads it when
  /// its Sealed fields are tagged `sealed`.
  explicit LoadArchive(std::span<const std::byte> stream,
                       std::optional<TlvTag> sealed = std::nullopt)
      : stream_(stream), status_(&own_status_) {
    Check(TlvReader(stream).Verify(sealed));
  }
  /// Reads a stream whose trailer was already verified, without hashing it
  /// again (a built-in section a snapshot parse checked).
  explicit LoadArchive(VerifiedTlv stream)
      : stream_(stream.bytes()), status_(&own_status_) {}
  LoadArchive(const LoadArchive&) = delete;
  LoadArchive& operator=(const LoadArchive&) = delete;

  /// The first `tag` scalar of a stream not verified yet, read with a
  /// field's bounds and width checks; nullopt when absent or malformed. For
  /// the one field that decides how a stream is verified (a snapshot
  /// container's format version).
  static std::optional<std::uint64_t> Peek(std::span<const std::byte> stream,
                                           TlvTag tag, std::size_t width) {
    Status status;
    return LoadArchive(stream, &status).Scalar(tag, width);
  }

  bool ok() const { return status_->ok(); }
  const Status& status() const { return *status_; }
  /// Records the first failure; every later field becomes a no-op.
  void Fail(Status status) {
    if (ok()) *status_ = std::move(status);
  }
  void Check(Status status) {
    if (!status.ok()) Fail(std::move(status));
  }

  template <class T>
  void U64(TlvTag tag, T& value) {
    if (const auto word = Scalar(tag, 8)) value = static_cast<T>(*word);
  }
  template <class T>
  void U32(TlvTag tag, T& value) {
    if (const auto word = Scalar(tag, 4)) value = static_cast<T>(*word);
  }
  void F64(TlvTag tag, double& value) {
    if (const auto word = Scalar(tag, 8)) value = std::bit_cast<double>(*word);
  }
  void Bool(TlvTag tag, bool& value) {
    if (const auto word = Scalar(tag, 4)) value = *word != 0;
  }
  void Str(TlvTag tag, std::string& value) {
    std::string_view view;
    Str(tag, view);
    value.assign(view);
  }
  /// A view into the stream: valid while the loaded bytes are.
  void Str(TlvTag tag, std::string_view& value) {
    if (!Seek(tag)) return;
    const std::span<const std::byte> payload = Take();
    value = std::string_view(reinterpret_cast<const char*>(payload.data()),
                             payload.size());
  }
  template <class E>
  void Enum(TlvTag tag, E& value, E count, const char* what) {
    const auto word = Scalar(tag, 4);
    if (!word) return;
    if (*word >= static_cast<std::uint64_t>(count)) {
      Fail(InvalidArgument(std::string(what) + " out of range"));
    } else {
      value = static_cast<E>(*word);
    }
  }
  /// A Sealed field: `body` becomes the next `tag` record's payload, which
  /// the caller verifies (the root's verify did not). Absent, it keeps its
  /// value. A second `tag` record in the same group is refused: nothing
  /// would verify its body.
  std::span<const std::byte> Sealed(TlvTag tag,
                                    std::span<const std::byte>& body) {
    if (!Seek(tag)) return body;
    body = Take();
    const std::size_t after = cursor_;
    if (Seek(tag)) {
      Fail(InvalidArgument("sealed record 0x" + Hex(tag) + " repeated"));
    }
    cursor_ = after;
    return body;
  }

  /// Calls `fn(payload)` (returning Status) for each consecutive record
  /// with `tag`: raw payloads an object's own codec decodes.
  template <class Fn>
  void Payloads(TlvTag tag, Fn&& fn) {
    if (!Seek(tag)) return;
    while (ok() && AtTag(tag)) Check(fn(Take()));
  }

  /// Calls `fields(record)` for each consecutive nested record with `tag`:
  /// for targets a load creates or validates itself.
  template <class Fields>
  void Records(TlvTag tag, Fields&& fields) {
    if (!Seek(tag)) return;
    while (ok() && AtTag(tag)) {
      LoadArchive record = Nested(Take());
      fields(record);
    }
  }
  template <class Fields>
  bool Record(TlvTag tag, Fields&& fields) {
    if (!Seek(tag)) return false;
    LoadArchive record = Nested(Take());
    if constexpr (archive_internal::Visitable<std::remove_cvref_t<Fields>,
                                              LoadArchive>) {
      fields.Visit(record);
    } else {
      fields(record);
    }
    return true;
  }
  /// Replaces `container` with one element per consecutive record.
  template <class C, class Fields>
  void Each(TlvTag tag, C& container, Fields&& fields) {
    container.clear();
    Each(tag, container, fields, [&container](LoadArchive&, auto& element) {
      if constexpr (archive_internal::MapLike<C>) {
        container[std::move(element.first)] = std::move(element.second);
      } else if constexpr (requires { container.push_back(element); }) {
        container.push_back(std::move(element));
      } else {
        container.insert(std::move(element));
      }
    });
  }
  /// One element per consecutive record, handed to `add(record, element)`
  /// instead of the container: for targets that restore through their own
  /// API (capacity limits, creation side effects, validation).
  template <class C, class Fields, class Add>
  void Each(TlvTag tag, C&, Fields&& fields, Add&& add) {
    if (!Seek(tag)) return;
    while (ok() && AtTag(tag)) {
      LoadArchive record = Nested(Take());
      typename archive_internal::Element<C>::type element{};
      archive_internal::VisitEntry(fields, record, element);
      if (ok()) add(record, element);
    }
  }
  template <class C>
  void Repeated(TlvTag tag, C& values) {
    values.clear();
    if (!Seek(tag)) return;
    while (ok() && AtTag(tag)) {
      typename C::value_type value{};
      if constexpr (std::is_same_v<typename C::value_type, bool>) {
        Bool(tag, value);
      } else {
        U64(tag, value);
      }
      values.push_back(value);
    }
  }
  /// Up to values.size() consecutive U64 records into a fixed array;
  /// returns how many there were.
  template <std::size_t N>
  std::size_t Repeated(TlvTag tag, std::span<std::uint64_t, N> values) {
    std::size_t count = 0;
    if (!Seek(tag)) return 0;
    while (ok() && AtTag(tag)) {
      if (count == values.size()) {
        Fail(InvalidArgument("too many repeated values"));
        break;
      }
      U64(tag, values[count++]);
    }
    return count;
  }
  /// (index, value) record pairs into `values`, which a load zeroes
  /// first. Indexes past the end are ignored.
  void Sparse(TlvTag index_tag, TlvTag value_tag,
              std::span<std::uint64_t> values) {
    std::fill(values.begin(), values.end(), 0);
    std::optional<std::uint32_t> index;
    while (ok()) {
      if (AtTag(index_tag)) {
        index.emplace();
        U32(index_tag, *index);
      } else if (AtTag(value_tag)) {
        if (!index) {
          Fail(InvalidArgument("sparse value without an index"));
          return;
        }
        std::uint64_t value = 0;
        U64(value_tag, value);
        if (*index < values.size()) values[*index] = value;
        index.reset();
      } else {
        return;
      }
    }
  }
  /// Replaces `elements` with one element per flat group of fields, each
  /// starting at a record tagged `first` and sought only up to the next.
  template <class C, class Fields>
  void Flat(TlvTag first, C& elements, Fields&& fields) {
    elements.clear();
    if (!Seek(first)) return;
    while (ok() && AtTag(first)) {
      const std::size_t start = cursor_;
      Take();
      const std::size_t end = Seek(first) ? cursor_ : stream_.size();
      LoadArchive group(stream_.first(end), status_);
      group.cursor_ = start;
      typename C::value_type element{};
      fields(group, element);
      cursor_ = group.cursor_;
      if (ok()) elements.push_back(std::move(element));
    }
  }
  /// Exactly words.size() consecutive U64 records.
  void Words(TlvTag tag, std::span<std::uint64_t> words) {
    const std::size_t count = Repeated(tag, words);
    if (ok() && count != words.size()) {
      Fail(InvalidArgument("field 0x" + Hex(tag) + " has " +
                           std::to_string(count) + " records, want " +
                           std::to_string(words.size())));
    }
  }

 private:
  static constexpr std::size_t kHeader = 6;  // u16 tag + u32 length

  static std::string Hex(TlvTag tag) { return DigestToHex(tag).substr(12); }

  // Nested streams share the root's status; their trailer is covered by
  // the root's verified checksum and not re-hashed.
  LoadArchive(std::span<const std::byte> stream, Status* status)
      : stream_(stream), status_(status) {}
  LoadArchive Nested(std::span<const std::byte> payload) {
    return LoadArchive(payload, status_);
  }

  // Little-endian, as TlvWriter puts it.
  std::uint64_t Le(std::size_t at, std::size_t bytes) const {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      value |= static_cast<std::uint64_t>(stream_[at + i]) << (8 * i);
    }
    return value;
  }
  TlvTag TagAt(std::size_t at) const { return static_cast<TlvTag>(Le(at, 2)); }
  std::size_t LengthAt(std::size_t at) const { return Le(at + 2, 4); }

  /// True when the record at the cursor has `tag` (and is intact).
  bool AtTag(TlvTag tag) {
    if (cursor_ + kHeader > stream_.size() || TagAt(cursor_) != tag) {
      return false;
    }
    if (cursor_ + kHeader + LengthAt(cursor_) > stream_.size()) {
      Fail(InvalidArgument("truncated TLV record"));
      return false;
    }
    return true;
  }

  /// Moves the cursor to the next record with `tag`, skipping records of
  /// other tags before it. When there is none, the cursor stays put and
  /// the field keeps its value.
  bool Seek(TlvTag tag) {
    if (!ok()) return false;
    for (std::size_t at = cursor_; at + kHeader <= stream_.size();) {
      const TlvTag here = TagAt(at);
      if (here == kTlvChecksumTag) return false;
      const std::size_t length = LengthAt(at);
      if (at + kHeader + length > stream_.size()) {
        Fail(InvalidArgument("truncated TLV record"));
        return false;
      }
      if (here == tag) {
        cursor_ = at;
        return true;
      }
      at += kHeader + length;
    }
    return false;
  }

  /// Payload of the record at the cursor; advances past it.
  std::span<const std::byte> Take() {
    const std::size_t length = LengthAt(cursor_);
    const std::span<const std::byte> payload =
        stream_.subspan(cursor_ + kHeader, length);
    cursor_ += kHeader + length;
    return payload;
  }

  /// The next `tag` record as a word of `width` bytes.
  std::optional<std::uint64_t> Scalar(TlvTag tag, std::size_t width) {
    if (!Seek(tag)) return std::nullopt;
    const std::size_t length = LengthAt(cursor_);
    if (length != width) {
      Fail(InvalidArgument("field 0x" + Hex(tag) + " is " +
                           std::to_string(length) + " bytes, want " +
                           std::to_string(width)));
      return std::nullopt;
    }
    const std::uint64_t word = Le(cursor_ + kHeader, width);
    Take();
    return word;
  }

  std::span<const std::byte> stream_;
  std::size_t cursor_ = 0;
  Status* status_;
  Status own_status_;
};

/// Walks a const object with a save or hash archive (they only read).
template <class T, class A>
void Walk(const T& object, A& archive) {
  static_assert(!A::kLoading, "loads need a mutable object");
  const_cast<T&>(object).Visit(archive);
}

/// The TLV stream of `object`'s fields.
template <class T>
std::vector<std::byte> SaveFields(const T& object) {
  SaveArchive archive;
  Walk(object, archive);
  return archive.Finish();
}

/// Loads `object`'s fields from a stream SaveFields produced (its Sealed
/// fields tagged `sealed`).
template <class T>
Status LoadFields(std::span<const std::byte> stream, T& object,
                  std::optional<TlvTag> sealed = std::nullopt) {
  LoadArchive archive(stream, sealed);
  if (archive.ok()) object.Visit(archive);
  return archive.status();
}

/// Mixes `object`'s fields into `hasher`.
template <class T>
void HashFields(const T& object, Hasher& hasher) {
  HashArchive archive(hasher);
  Walk(object, archive);
}

}  // namespace viator
