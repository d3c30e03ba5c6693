#include "core/genetic_transcoder.h"

namespace viator::wli {

std::vector<std::byte> EncodeBlueprint(const ShipBlueprint& blueprint) {
  return SaveFields(blueprint);
}

Result<ShipBlueprint> DecodeBlueprint(std::span<const std::byte> genome) {
  ShipBlueprint blueprint;
  if (Status status = LoadFields(genome, blueprint); !status.ok()) {
    return status;
  }
  return blueprint;
}

}  // namespace viator::wli
