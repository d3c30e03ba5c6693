#include "vm/assembler.h"

#include <charconv>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

namespace viator::vm {
namespace {

struct Token {
  std::string_view text;
};

std::string_view TrimComment(std::string_view line) {
  const auto semi = line.find_first_of(";#");
  if (semi != std::string_view::npos) line = line.substr(0, semi);
  return line;
}

std::vector<std::string_view> SplitWords(std::string_view line) {
  std::vector<std::string_view> words;
  std::size_t at = 0;
  while (at < line.size()) {
    while (at < line.size() && std::isspace(static_cast<unsigned char>(line[at]))) {
      ++at;
    }
    std::size_t end = at;
    while (end < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[end]))) {
      ++end;
    }
    if (end > at) words.push_back(line.substr(at, end - at));
    at = end;
  }
  return words;
}

std::optional<std::int64_t> ParseInt(std::string_view text) {
  std::int64_t value = 0;
  const auto* begin = text.data();
  const auto* end = text.data() + text.size();
  const auto result = std::from_chars(begin, end, value);
  if (result.ec != std::errc() || result.ptr != end) return std::nullopt;
  return value;
}

Status LineError(std::size_t line_no, std::string message) {
  return InvalidArgument("line " + std::to_string(line_no) + ": " +
                         std::move(message));
}

}  // namespace

Result<Program> Assemble(std::string_view name, std::string_view source) {
  struct PendingInstruction {
    Opcode opcode;
    std::int32_t operand = 0;
    std::string label;  // non-empty when the operand is a label reference
    std::size_t line_no;
  };

  std::vector<PendingInstruction> pending;
  std::map<std::string, std::int32_t, std::less<>> labels;
  std::vector<std::int64_t> constants;

  std::size_t line_no = 0;
  std::size_t cursor = 0;
  while (cursor <= source.size()) {
    const auto newline = source.find('\n', cursor);
    std::string_view line =
        newline == std::string_view::npos
            ? source.substr(cursor)
            : source.substr(cursor, newline - cursor);
    cursor = newline == std::string_view::npos ? source.size() + 1
                                               : newline + 1;
    ++line_no;
    line = TrimComment(line);
    auto words = SplitWords(line);
    if (words.empty()) continue;

    // Label definition?
    if (words[0].back() == ':') {
      const std::string label(words[0].substr(0, words[0].size() - 1));
      if (label.empty()) return LineError(line_no, "empty label");
      if (labels.count(label) != 0) {
        return LineError(line_no, "duplicate label '" + label + "'");
      }
      labels[label] = static_cast<std::int32_t>(pending.size());
      words.erase(words.begin());
      if (words.empty()) continue;
    }

    const Opcode op = OpcodeFromName(words[0]);
    if (op == Opcode::kOpcodeCount) {
      return LineError(line_no,
                       "unknown mnemonic '" + std::string(words[0]) + "'");
    }

    PendingInstruction ins;
    ins.opcode = op;
    ins.line_no = line_no;

    if (!OpcodeHasOperand(op)) {
      if (words.size() != 1) return LineError(line_no, "unexpected operand");
      pending.push_back(ins);
      continue;
    }
    if (words.size() != 2) return LineError(line_no, "missing operand");

    const std::string_view arg = words[1];
    switch (op) {
      case Opcode::kJmp:
      case Opcode::kJz:
      case Opcode::kJnz:
      case Opcode::kCall: {
        if (const auto value = ParseInt(arg)) {
          ins.operand = static_cast<std::int32_t>(*value);
        } else {
          ins.label = std::string(arg);
        }
        break;
      }
      case Opcode::kSys: {
        const SyscallSpec* spec = FindSyscallByName(arg);
        if (spec == nullptr) {
          if (const auto value = ParseInt(arg)) {
            ins.operand = static_cast<std::int32_t>(*value);
          } else {
            return LineError(line_no,
                             "unknown syscall '" + std::string(arg) + "'");
          }
        } else {
          ins.operand = static_cast<std::int32_t>(spec->id);
        }
        break;
      }
      case Opcode::kPush: {
        const auto value = ParseInt(arg);
        if (!value) return LineError(line_no, "bad immediate");
        if (*value >= INT32_MIN && *value <= INT32_MAX) {
          ins.operand = static_cast<std::int32_t>(*value);
        } else {
          // Spill wide immediates to the constant pool transparently.
          ins.opcode = Opcode::kPushC;
          constants.push_back(*value);
          ins.operand = static_cast<std::int32_t>(constants.size() - 1);
        }
        break;
      }
      case Opcode::kPushC: {
        const auto value = ParseInt(arg);
        if (!value) return LineError(line_no, "bad constant");
        constants.push_back(*value);
        ins.operand = static_cast<std::int32_t>(constants.size() - 1);
        break;
      }
      default: {
        const auto value = ParseInt(arg);
        if (!value) return LineError(line_no, "bad operand");
        ins.operand = static_cast<std::int32_t>(*value);
        break;
      }
    }
    pending.push_back(ins);
  }

  std::vector<Instruction> code;
  code.reserve(pending.size());
  for (const auto& ins : pending) {
    Instruction out;
    out.opcode = ins.opcode;
    out.operand = ins.operand;
    if (!ins.label.empty()) {
      const auto it = labels.find(ins.label);
      if (it == labels.end()) {
        return LineError(ins.line_no, "undefined label '" + ins.label + "'");
      }
      out.operand = it->second;
    }
    code.push_back(out);
  }
  return Program(std::string(name), std::move(code), std::move(constants));
}

std::string Disassemble(const Program& program) {
  // Collect jump targets so we can synthesize labels.
  std::map<std::int32_t, std::string> targets;
  for (const Instruction& ins : program.code()) {
    if (ins.opcode == Opcode::kJmp || ins.opcode == Opcode::kJz ||
        ins.opcode == Opcode::kJnz || ins.opcode == Opcode::kCall) {
      targets.emplace(ins.operand,
                      std::string("L").append(std::to_string(ins.operand)));
    }
  }
  std::ostringstream out;
  out << "; program " << program.name() << " digest "
      << DigestToHex(program.digest()) << "\n";
  for (std::size_t i = 0; i < program.code().size(); ++i) {
    const Instruction& ins = program.code()[i];
    const auto target = targets.find(static_cast<std::int32_t>(i));
    if (target != targets.end()) out << target->second << ":\n";
    out << "  " << OpcodeName(ins.opcode);
    if (OpcodeHasOperand(ins.opcode)) {
      if (ins.opcode == Opcode::kSys) {
        const SyscallSpec* spec =
            FindSyscall(static_cast<Syscall>(ins.operand));
        out << ' ' << (spec != nullptr ? spec->name : "?");
      } else if (targets.count(ins.operand) != 0 &&
                 (ins.opcode == Opcode::kJmp || ins.opcode == Opcode::kJz ||
                  ins.opcode == Opcode::kJnz ||
                  ins.opcode == Opcode::kCall)) {
        out << ' ' << targets.at(ins.operand);
      } else if (ins.opcode == Opcode::kPushC) {
        const auto idx = static_cast<std::size_t>(ins.operand);
        out << ' '
            << (idx < program.constants().size()
                    ? std::to_string(program.constants()[idx])
                    : "?");
      } else {
        out << ' ' << ins.operand;
      }
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace viator::vm
