#include "vm/program.h"

namespace viator::vm {

Program::Program(std::string name, std::vector<Instruction> code,
                 std::vector<std::int64_t> constants)
    : name_(std::move(name)),
      code_(std::move(code)),
      constants_(std::move(constants)) {}

std::vector<std::byte> Program::PackCode(const std::vector<Instruction>& code) {
  std::vector<std::byte> bytes;
  bytes.reserve(code.size() * 5);
  for (const Instruction& ins : code) {
    bytes.push_back(static_cast<std::byte>(ins.opcode));
    const auto operand = static_cast<std::uint32_t>(ins.operand);
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<std::byte>((operand >> (8 * i)) & 0xff));
    }
  }
  return bytes;
}

Status Program::UnpackCode(std::span<const std::byte> bytes,
                           std::vector<Instruction>& code) {
  if (bytes.size() % 5 != 0) return InvalidArgument("malformed code section");
  code.reserve(code.size() + bytes.size() / 5);
  for (std::size_t at = 0; at < bytes.size(); at += 5) {
    Instruction ins;
    ins.opcode = static_cast<Opcode>(bytes[at]);
    std::uint32_t operand = 0;
    for (int i = 0; i < 4; ++i) {
      operand |= static_cast<std::uint32_t>(bytes[at + 1 + i]) << (8 * i);
    }
    ins.operand = static_cast<std::int32_t>(operand);
    code.push_back(ins);
  }
  return OkStatus();
}

std::vector<std::byte> Program::Serialize() const { return SaveFields(*this); }

Result<Program> Program::Deserialize(std::span<const std::byte> bytes) {
  Program program;
  if (Status status = LoadFields(bytes, program); !status.ok()) return status;
  return program;
}

Digest Program::digest() const {
  if (!digest_valid_) {
    cached_digest_ = HashBytes(Serialize());
    digest_valid_ = true;
  }
  return cached_digest_;
}

std::size_t Program::WireSize() const { return Serialize().size(); }

}  // namespace viator::vm
