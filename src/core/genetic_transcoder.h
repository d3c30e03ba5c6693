// Genetic transcoding (PMP Def. 3(5) and contribution 3, "Node Genesis"):
// "encoding and embedding the structural information about a mobile node,
// the ship, and its environment into the executable part of the active
// packets, the shuttles."
//
// A ShipBlueprint is the genome: role state, resident code, hardware
// configuration and the strongest facts. Ships encode themselves into
// shuttle genomes; a receiving ship (or the self-healing coordinator
// reconstructing a dead node's function elsewhere) decodes and applies it.
#pragma once

#include <cstdint>
#include <vector>

#include "base/archive.h"
#include "base/hash.h"
#include "base/status.h"
#include "core/facts.h"
#include "core/knowledge.h"
#include "node/profile.h"

namespace viator::wli {

/// Hardware module description inside a genome.
struct ModuleGene {
  std::uint32_t module_id = 0;
  node::SecondLevelClass accelerates = node::SecondLevelClass::kSupplementary;
  std::uint32_t gate_count = 0;
  double speedup = 1.0;
  Digest driver_digest = 0;

  template <class A>
  void Visit(A& a) {
    a.U32(0x04, module_id);
    a.Enum(0x05, accelerates, node::SecondLevelClass::kClassCount,
           "module gene class");
    a.U32(0x06, gate_count);
    a.F64(0x07, speedup);
    a.U64(0x08, driver_digest);
  }
};

/// The decoded structural genome of a ship.
struct ShipBlueprint {
  node::ShipClass ship_class = node::ShipClass::kServer;
  node::FirstLevelRole role = node::FirstLevelRole::kCaching;
  node::FirstLevelRole next_step = node::FirstLevelRole::kCaching;
  std::vector<Digest> resident_programs;
  std::vector<FactSnapshot> facts;
  std::vector<ModuleGene> modules;
  std::vector<NetFunction> functions;
  std::uint32_t genome_version = 1;

  /// Facts and modules are nested records; functions travel as their
  /// knowledge-quantum blobs. (Saving them as separate streams also keeps
  /// the genome buffer's growth, and so the capacity a pooled migration
  /// shuttle retains, which the mem-peaks section records.)
  template <class A>
  void Visit(A& a) {
    a.Enum(0x30, ship_class, node::kShipClassCount, "blueprint ship class");
    a.Enum(0x31, role, node::FirstLevelRole::kRoleCount, "blueprint role");
    a.Enum(0x32, next_step, node::FirstLevelRole::kRoleCount,
           "blueprint next step");
    a.U32(0x34, genome_version);
    a.Repeated(0x33, resident_programs);
    a.Each(0x35, facts, [](auto& r, FactSnapshot& fact) { fact.Visit(r); });
    a.Each(0x36, modules, [](auto& r, ModuleGene& gene) { gene.Visit(r); });
    if constexpr (A::kLoading) functions.clear();
    FunctionQuanta(a, 0x37, functions, [this](NetFunction fn) {
      functions.push_back(std::move(fn));
    });
  }
};

/// Serializes a blueprint into a shuttle genome (TLV with checksum).
std::vector<std::byte> EncodeBlueprint(const ShipBlueprint& blueprint);

/// Decodes a genome; rejects corrupt streams, wrong-width fields and
/// out-of-range enums.
Result<ShipBlueprint> DecodeBlueprint(std::span<const std::byte> genome);

}  // namespace viator::wli
