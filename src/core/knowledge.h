// Net functions and knowledge quanta (PMP, Def. 3(2)).
//
// "A net function can be based on one or more facts. The combination of net
// function and facts is called a knowledge quantum (kq). Knowledge quanta
// are a new type of capsules which are distributed via shuttles."
//
// A NetFunction binds a first/second-level role to a processing routine and
// the facts that justify its existence; its lifetime is the lifetime of its
// facts. A KnowledgeQuantum snapshots a function plus the current values of
// its facts for transport in a shuttle's genetic section.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/archive.h"
#include "base/hash.h"
#include "base/status.h"
#include "core/facts.h"
#include "node/profile.h"

namespace viator::wli {

using FunctionId = std::uint64_t;

/// A deployable network function: what the ships wander.
struct NetFunction {
  FunctionId id = 0;
  std::string name;
  node::FirstLevelRole role = node::FirstLevelRole::kCaching;
  node::SecondLevelClass cls = node::SecondLevelClass::kSupplementary;
  Digest program_digest = 0;       // processing routine (0 = native handler)
  std::vector<FactKey> fact_keys;  // facts this function is based on

  /// The function's fields of a knowledge quantum of `version`.
  template <class A>
  void Visit(A& a, std::uint32_t& version) {
    a.U64(0x10, id);
    a.Str(0x11, name);
    a.Enum(0x12, role, node::FirstLevelRole::kRoleCount, "net function role");
    a.Enum(0x13, cls, node::SecondLevelClass::kClassCount,
           "net function class");
    a.U64(0x14, program_digest);
    a.U32(0x16, version);
    a.Repeated(0x15, fact_keys);
  }
  /// A function alone travels (in genomes and snapshots) as the quantum of
  /// version 1 without facts; a load skips the facts of any other.
  template <class A>
  void Visit(A& a) {
    std::uint32_t version = 1;
    Visit(a, version);
  }
};

/// Fact snapshot inside a knowledge quantum.
struct FactSnapshot {
  FactKey key = 0;
  std::int64_t value = 0;
  double weight = 1.0;

  /// Key, value and weight under the three tags from `first`.
  template <class A>
  void Visit(A& a, TlvTag first = 0x01) {
    a.U64(first, key);
    a.U64(static_cast<TlvTag>(first + 1), value);
    a.F64(static_cast<TlvTag>(first + 2), weight);
  }
};

/// A knowledge quantum: net function + the facts it is based on.
struct KnowledgeQuantum {
  NetFunction function;
  std::vector<FactSnapshot> facts;
  std::uint32_t version = 1;

  /// The facts follow the function as flat (key, value, weight) triplets.
  template <class A>
  void Visit(A& a) {
    function.Visit(a, version);
    a.Flat(0x20, facts,
           [](auto& r, FactSnapshot& fact) { fact.Visit(r, 0x20); });
  }
};

/// Net functions as knowledge-quantum blobs, one `tag` record each: how
/// ship genomes and snapshots store them. Each blob is a finished stream
/// with its own trailer, which a load verifies before it hands the function
/// to `add`.
template <class A, class Add>
void FunctionQuanta(A& a, TlvTag tag, const std::vector<NetFunction>& functions,
                    Add&& add) {
  if constexpr (A::kLoading) {
    a.Payloads(tag, [&add](std::span<const std::byte> bytes) {
      NetFunction function;
      Status status = LoadFields(bytes, function);
      if (status.ok()) add(std::move(function));
      return status;
    });
  } else {
    a.Blobs(tag, functions,
            [](const NetFunction& function) { return SaveFields(function); });
  }
}

/// Serializes a KQ into TLV bytes for a shuttle genome.
std::vector<std::byte> EncodeKnowledgeQuantum(const KnowledgeQuantum& kq);

/// Parses one KQ back; validates the checksum trailer, field widths and
/// the role and class.
Result<KnowledgeQuantum> DecodeKnowledgeQuantum(
    std::span<const std::byte> bytes);

/// "The lifetime of a knowledge quantum is defined by the lifetime of its
/// network function", and the function lives while its facts live: true iff
/// every fact key of `function` is present in `store`. Functions without
/// facts are unconditioned (infrastructure functions) and always alive.
bool FunctionAlive(const NetFunction& function, const FactStore& store);

/// Registry of the functions a ship currently hosts. Expire() removes the
/// ones whose facts died (the PMP churn mechanism).
class FunctionTable {
 public:
  /// Installs or replaces a function ("a modification of a net function is
  /// determined by a new set of knowledge quanta").
  void Install(NetFunction function);

  bool Remove(FunctionId id);
  const NetFunction* Find(FunctionId id) const;
  const std::vector<NetFunction>& functions() const { return functions_; }

  /// Removes every function whose facts are gone; returns how many died.
  std::size_t Expire(const FactStore& store);

  /// Functions currently filling a given first-level role.
  std::vector<const NetFunction*> ForRole(node::FirstLevelRole role) const;

 private:
  std::vector<NetFunction> functions_;
};

}  // namespace viator::wli
