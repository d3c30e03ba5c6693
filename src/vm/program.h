// A WanderScript program: instructions + 64-bit constant pool + identity.
//
// Programs are immutable once built and content-addressed by the digest of
// their canonical serialization; the digest is what shuttles reference and
// what the demand code-distribution protocol requests (ANTS-style).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/archive.h"
#include "base/hash.h"
#include "base/status.h"
#include "vm/isa.h"

namespace viator::vm {

class Program {
 public:
  Program() = default;
  Program(std::string name, std::vector<Instruction> code,
          std::vector<std::int64_t> constants = {});

  const std::string& name() const { return name_; }
  const std::vector<Instruction>& code() const { return code_; }
  const std::vector<std::int64_t>& constants() const { return constants_; }

  /// Content digest over the canonical serialization. Computed lazily once.
  Digest digest() const;

  /// Canonical TLV serialization (what travels inside code shuttles).
  std::vector<std::byte> Serialize() const;

  /// Parses a serialized program; validates framing and checksum.
  static Result<Program> Deserialize(std::span<const std::byte> bytes);

  /// Wire size of the serialized form in bytes (shuttle payload accounting).
  std::size_t WireSize() const;

  bool empty() const { return code_.empty(); }

  /// The serialization's fields: the code travels as one blob of 5-byte
  /// instructions (opcode, little-endian operand).
  template <class A>
  void Visit(A& a) {
    a.Str(1, name_);
    if constexpr (A::kLoading) {
      code_.clear();
      digest_valid_ = false;
      a.Payloads(2, [this](std::span<const std::byte> bytes) {
        return UnpackCode(bytes, code_);
      });
    } else {
      a.Blobs(2, std::span(&code_, 1), PackCode);
    }
    a.Repeated(3, constants_);
  }

 private:
  static std::vector<std::byte> PackCode(const std::vector<Instruction>& code);
  static Status UnpackCode(std::span<const std::byte> bytes,
                           std::vector<Instruction>& code);

  std::string name_;
  std::vector<Instruction> code_;
  std::vector<std::int64_t> constants_;
  mutable Digest cached_digest_ = 0;
  mutable bool digest_valid_ = false;
};

}  // namespace viator::vm
