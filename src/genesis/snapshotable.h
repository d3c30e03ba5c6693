// The serialize/restore interface a subsystem implements to ride in a
// genesis snapshot as an "extra" section (services, failure/mobility
// processes — anything the WanderingNetwork does not own directly).
//
// Core subsystems are serialized through the network's section table
// (WanderingNetwork::ForEachSection); this interface exists so external
// state can join the same container without the genesis library knowing
// every service type (manager calls Save()/Load() through the base class).
// SnapshotAdapter implements it for any object with a Visit field list
// (genesis/adapters.h names the built-in ones).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/archive.h"
#include "base/status.h"
#include "genesis/section_ids.h"

namespace viator::genesis {

class Snapshotable {
 public:
  virtual ~Snapshotable() = default;

  /// Stable section identifier; extras must use kExtraSectionBase and above
  /// and be unique within one manager.
  virtual std::uint32_t section_id() const = 0;

  /// Human name for inspection output.
  virtual std::string section_name() const = 0;

  /// Payload schema version, bumped on incompatible layout changes.
  virtual std::uint32_t section_version() const { return 1; }

  /// Serializes the subsystem state as a finished TLV stream.
  virtual std::vector<std::byte> Save() const = 0;

  /// Restores the subsystem from a payload produced by Save(). Must reject
  /// malformed payloads with a Status error and leave usable state behind.
  virtual Status Load(std::span<const std::byte> payload) = 0;
};

/// A section name usable as a template argument.
template <std::size_t N>
struct AdapterName {
  constexpr AdapterName(const char (&text)[N]) {  // NOLINT: implicit
    std::copy_n(text, N, chars);
  }
  char chars[N];
};

/// The extra section of one `T` object: its Visit fields. The id defaults
/// to kExtraSectionBase + kDefaultOffset.
template <class T, std::uint32_t kDefaultOffset, AdapterName kName>
class SnapshotAdapter final : public Snapshotable {
 public:
  explicit SnapshotAdapter(T& target,
                           std::uint32_t id = kExtraSectionBase +
                                              kDefaultOffset)
      : target_(target), id_(id) {}

  std::uint32_t section_id() const override { return id_; }
  std::string section_name() const override { return kName.chars; }
  std::vector<std::byte> Save() const override { return SaveFields(target_); }
  Status Load(std::span<const std::byte> payload) override {
    return LoadFields(payload, target_);
  }

 private:
  T& target_;
  std::uint32_t id_;
};

}  // namespace viator::genesis
