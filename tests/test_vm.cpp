// Tests for the WanderScript VM: assembler, program codec, verifier,
// interpreter semantics, fuel metering and the code repository/cache.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "vm/assembler.h"
#include "vm/code_repository.h"
#include "vm/interpreter.h"
#include "vm/isa.h"
#include "vm/program.h"
#include "vm/verifier.h"

namespace viator::vm {
namespace {

// Assembles, verifies and runs a program; EXPECTs a clean halt.
std::int64_t RunSource(std::string_view source,
                       std::vector<std::int64_t> args = {}) {
  auto program = Assemble("test", source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto verified = Verify(*program);
  EXPECT_TRUE(verified.ok()) << verified.status().ToString();
  Environment env;
  Interpreter interp;
  const auto result = interp.Run(*program, env, kDefaultFuel, args);
  EXPECT_EQ(result.reason, ExitReason::kHalted) << result.fault_message;
  return result.top_of_stack;
}

// ---- Assembler ----

TEST(Assembler, BasicProgram) {
  auto program = Assemble("p", "push 2\npush 3\nadd\nhalt\n");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->code().size(), 4u);
  EXPECT_EQ(program->code()[0].opcode, Opcode::kPush);
}

TEST(Assembler, CommentsAndBlankLines) {
  auto program = Assemble("p", R"(
; leading comment
push 1   ; trailing comment
# hash comment too

halt
)");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->code().size(), 2u);
}

TEST(Assembler, LabelsResolve) {
  auto program = Assemble("p", R"(
  push 3
loop:
  push -1
  add
  dup
  jnz loop
  halt
)");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->code()[4].opcode, Opcode::kJnz);
  EXPECT_EQ(program->code()[4].operand, 1);  // label "loop"
}

TEST(Assembler, UndefinedLabelFails) {
  auto program = Assemble("p", "jmp nowhere\nhalt\n");
  EXPECT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("nowhere"), std::string::npos);
}

TEST(Assembler, DuplicateLabelFails) {
  EXPECT_FALSE(Assemble("p", "a:\nnop\na:\nhalt\n").ok());
}

TEST(Assembler, UnknownMnemonicFailsWithLine) {
  auto program = Assemble("p", "nop\nfrobnicate\n");
  EXPECT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("line 2"), std::string::npos);
}

TEST(Assembler, SyscallByName) {
  auto program = Assemble("p", "sys node_id\nhalt\n");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->code()[0].operand,
            static_cast<std::int32_t>(Syscall::kNodeId));
}

TEST(Assembler, UnknownSyscallFails) {
  EXPECT_FALSE(Assemble("p", "sys not_a_syscall\nhalt\n").ok());
}

TEST(Assembler, WideImmediateSpillsToPool) {
  auto program = Assemble("p", "push 123456789012345\nhalt\n");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->code()[0].opcode, Opcode::kPushC);
  ASSERT_EQ(program->constants().size(), 1u);
  EXPECT_EQ(program->constants()[0], 123456789012345);
}

TEST(Assembler, MissingOperandFails) {
  EXPECT_FALSE(Assemble("p", "push\nhalt\n").ok());
}

TEST(Assembler, UnexpectedOperandFails) {
  EXPECT_FALSE(Assemble("p", "add 3\nhalt\n").ok());
}

TEST(Assembler, DisassembleRoundTrip) {
  const std::string_view source = R"(
  push 10
loop:
  push -1
  add
  dup
  jnz loop
  sys emit
  halt
)";
  auto program = Assemble("p", source);
  ASSERT_TRUE(program.ok());
  const std::string listing = Disassemble(*program);
  auto reparsed = Assemble("p", listing);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(program->code(), reparsed->code());
}

// ---- Program codec ----

TEST(Program, SerializeDeserializeRoundTrip) {
  auto program = Assemble("roundtrip", "pushc 99999999999\nsys emit\nhalt\n");
  ASSERT_TRUE(program.ok());
  const auto bytes = program->Serialize();
  auto restored = Program::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->name(), "roundtrip");
  EXPECT_EQ(restored->code(), program->code());
  EXPECT_EQ(restored->constants(), program->constants());
  EXPECT_EQ(restored->digest(), program->digest());
}

TEST(Program, DigestIsContentAddressed) {
  auto a = Assemble("same-name", "push 1\nhalt\n");
  auto b = Assemble("same-name", "push 2\nhalt\n");
  auto c = Assemble("same-name", "push 1\nhalt\n");
  EXPECT_NE(a->digest(), b->digest());
  EXPECT_EQ(a->digest(), c->digest());
}

TEST(Program, DeserializeRejectsCorruption) {
  auto program = Assemble("p", "push 1\nhalt\n");
  auto bytes = program->Serialize();
  bytes[10] ^= std::byte{0x55};
  EXPECT_FALSE(Program::Deserialize(bytes).ok());
}

// ---- Verifier ----

TEST(Verifier, AcceptsStraightLine) {
  auto program = Assemble("p", "push 1\npush 2\nadd\nhalt\n");
  auto info = Verify(*program);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->max_stack_depth, 2u);
}

TEST(Verifier, RejectsEmpty) {
  EXPECT_FALSE(Verify(Program("p", {})).ok());
}

TEST(Verifier, RejectsStackUnderflow) {
  auto program = Assemble("p", "add\nhalt\n");
  EXPECT_FALSE(Verify(*program).ok());
}

TEST(Verifier, RejectsUnderflowOnBranchPath) {
  // The fall-through path pops twice with only one push.
  auto program = Assemble("p", R"(
  push 1
  jz skip
  pop
  pop
skip:
  halt
)");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(Verify(*program).ok());
}

TEST(Verifier, RejectsInconsistentDepthAtJoin) {
  // Join point sees depth 1 from one path and 0 from the other.
  std::vector<Instruction> code = {
      {Opcode::kPush, 1},   // 0: depth 1
      {Opcode::kJz, 3},     // 1: consumes, depth 0 both ways
      {Opcode::kPush, 7},   // 2: depth 1, falls into 3
      {Opcode::kHalt, 0},   // 3: depth 0 from jump, 1 from fall-through
  };
  EXPECT_FALSE(Verify(Program("p", code)).ok());
}

TEST(Verifier, RejectsJumpOutOfRange) {
  std::vector<Instruction> code = {{Opcode::kJmp, 99}, {Opcode::kHalt, 0}};
  EXPECT_FALSE(Verify(Program("p", code)).ok());
}

TEST(Verifier, RejectsBadLocalSlot) {
  std::vector<Instruction> code = {{Opcode::kLoad, 500}, {Opcode::kHalt, 0}};
  EXPECT_FALSE(Verify(Program("p", code)).ok());
}

TEST(Verifier, RejectsBadConstantIndex) {
  std::vector<Instruction> code = {{Opcode::kPushC, 3}, {Opcode::kHalt, 0}};
  EXPECT_FALSE(Verify(Program("p", code)).ok());
}

TEST(Verifier, RejectsBadSyscallId) {
  std::vector<Instruction> code = {{Opcode::kSys, 999}, {Opcode::kHalt, 0}};
  EXPECT_FALSE(Verify(Program("p", code)).ok());
}

TEST(Verifier, RejectsBadOpcode) {
  std::vector<Instruction> code = {
      {static_cast<Opcode>(200), 0}, {Opcode::kHalt, 0}};
  EXPECT_FALSE(Verify(Program("p", code)).ok());
}

TEST(Verifier, RejectsOverlongProgram) {
  std::vector<Instruction> code(kMaxProgramLength + 1, {Opcode::kNop, 0});
  code.push_back({Opcode::kHalt, 0});
  EXPECT_FALSE(Verify(Program("p", code)).ok());
}

TEST(Verifier, RejectsUnboundedStackGrowth) {
  // A loop that pushes each iteration cannot have a consistent depth.
  auto program = Assemble("p", R"(
loop:
  push 1
  jmp loop
)");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(Verify(*program).ok());
}

TEST(Verifier, AcceptsBalancedLoop) {
  auto program = Assemble("p", R"(
  push 10
loop:
  push -1
  add
  dup
  jnz loop
  halt
)");
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(Verify(*program).ok());
}

TEST(Verifier, CountsSyscallSites) {
  auto program = Assemble("p", "sys node_id\npop\nsys time\npop\nhalt\n");
  auto info = Verify(*program);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->syscall_sites, 2u);
}

// ---- Interpreter semantics ----

TEST(Interpreter, Arithmetic) {
  EXPECT_EQ(RunSource("push 6\npush 7\nmul\nhalt\n"), 42);
  EXPECT_EQ(RunSource("push 10\npush 3\ndiv\nhalt\n"), 3);
  EXPECT_EQ(RunSource("push 10\npush 3\nmod\nhalt\n"), 1);
  EXPECT_EQ(RunSource("push 10\npush 3\nsub\nhalt\n"), 7);
  EXPECT_EQ(RunSource("push 5\nneg\nhalt\n"), -5);
}

TEST(Interpreter, DivisionByZeroYieldsZero) {
  EXPECT_EQ(RunSource("push 10\npush 0\ndiv\nhalt\n"), 0);
  EXPECT_EQ(RunSource("push 10\npush 0\nmod\nhalt\n"), 0);
}

TEST(Interpreter, SignedOverflowIsDefined) {
  // INT64_MIN / -1 saturates instead of trapping.
  auto program = Assemble("p", "pushc -9223372036854775808\npush -1\ndiv\nhalt\n");
  ASSERT_TRUE(program.ok());
  Environment env;
  Interpreter interp;
  const auto result = interp.Run(*program, env);
  EXPECT_EQ(result.reason, ExitReason::kHalted);
  EXPECT_EQ(result.top_of_stack, INT64_MAX);
}

TEST(Interpreter, Comparisons) {
  EXPECT_EQ(RunSource("push 3\npush 3\neq\nhalt\n"), 1);
  EXPECT_EQ(RunSource("push 3\npush 4\nlt\nhalt\n"), 1);
  EXPECT_EQ(RunSource("push 3\npush 4\nge\nhalt\n"), 0);
  EXPECT_EQ(RunSource("push -1\npush 1\nle\nhalt\n"), 1);
}

TEST(Interpreter, Bitwise) {
  EXPECT_EQ(RunSource("push 12\npush 10\nand\nhalt\n"), 8);
  EXPECT_EQ(RunSource("push 12\npush 10\nor\nhalt\n"), 14);
  EXPECT_EQ(RunSource("push 12\npush 10\nxor\nhalt\n"), 6);
  EXPECT_EQ(RunSource("push 1\npush 4\nshl\nhalt\n"), 16);
  EXPECT_EQ(RunSource("push 16\npush 4\nshr\nhalt\n"), 1);
  EXPECT_EQ(RunSource("push 0\nnot\nhalt\n"), -1);
}

TEST(Interpreter, ShiftCountsAreMasked) {
  EXPECT_EQ(RunSource("push 1\npush 64\nshl\nhalt\n"), 1);  // 64 & 63 == 0
}

TEST(Interpreter, StackOps) {
  EXPECT_EQ(RunSource("push 1\npush 2\nswap\nhalt\n"), 1);
  EXPECT_EQ(RunSource("push 1\npush 2\nover\nhalt\n"), 1);
  EXPECT_EQ(RunSource("push 7\ndup\nadd\nhalt\n"), 14);
  EXPECT_EQ(RunSource("push 1\npush 2\npop\nhalt\n"), 1);
}

TEST(Interpreter, LocalsAndArguments) {
  EXPECT_EQ(RunSource("load 0\nload 1\nadd\nhalt\n", {30, 12}), 42);
  EXPECT_EQ(RunSource("push 9\nstore 5\nload 5\nhalt\n"), 9);
}

TEST(Interpreter, LoopComputesSum) {
  // Sum 1..10 = 55, using locals 0 (i) and 1 (acc).
  const std::string_view source = R"(
  push 10
  store 0
loop:
  load 0
  jz done
  load 0
  load 1
  add
  store 1
  load 0
  push -1
  add
  store 0
  jmp loop
done:
  load 1
  halt
)";
  EXPECT_EQ(RunSource(source), 55);
}

TEST(Interpreter, FallOffEndHalts) {
  auto program = Assemble("p", "push 5\n");
  Environment env;
  Interpreter interp;
  const auto result = interp.Run(*program, env);
  EXPECT_EQ(result.reason, ExitReason::kHalted);
  EXPECT_EQ(result.top_of_stack, 5);
}

TEST(Interpreter, FuelLimitsInfiniteLoop) {
  auto program = Assemble("p", "loop:\njmp loop\n");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(Verify(*program).ok());
  Environment env;
  Interpreter interp;
  const auto result = interp.Run(*program, env, 1000);
  EXPECT_EQ(result.reason, ExitReason::kOutOfFuel);
  EXPECT_EQ(result.fuel_used, 1000u);
}

TEST(Interpreter, FuelCountsInstructions) {
  auto program = Assemble("p", "push 1\npush 2\nadd\nhalt\n");
  Environment env;
  Interpreter interp;
  const auto result = interp.Run(*program, env);
  EXPECT_EQ(result.fuel_used, 4u);
}

TEST(Interpreter, SyscallFailureFaults) {
  struct FailingEnv : Environment {
    Result<std::int64_t> Invoke(Syscall,
                                std::span<const std::int64_t>) override {
      return Status(PermissionDenied("no"));
    }
  };
  auto program = Assemble("p", "sys node_id\nhalt\n");
  FailingEnv env;
  Interpreter interp;
  const auto result = interp.Run(*program, env);
  EXPECT_EQ(result.reason, ExitReason::kFault);
  EXPECT_NE(result.fault_message.find("node_id"), std::string::npos);
}

TEST(Interpreter, SyscallArgumentsArriveInOrder) {
  struct CapturingEnv : Environment {
    std::vector<std::int64_t> captured;
    Result<std::int64_t> Invoke(Syscall id,
                                std::span<const std::int64_t> args) override {
      if (id == Syscall::kPutFact) {
        captured.assign(args.begin(), args.end());
      }
      return std::int64_t{1};
    }
  };
  auto program = Assemble("p", "push 10\npush 20\npush 30\nsys put_fact\nhalt\n");
  CapturingEnv env;
  Interpreter interp;
  const auto result = interp.Run(*program, env);
  EXPECT_EQ(result.reason, ExitReason::kHalted);
  EXPECT_EQ(env.captured, (std::vector<std::int64_t>{10, 20, 30}));
}

TEST(Interpreter, DefaultEnvironmentReturnsZero) {
  EXPECT_EQ(RunSource("sys neighbor_count\nhalt\n"), 0);
}

// Property sweep: all binary arithmetic ops agree with native semantics on
// a set of tricky operand pairs.
struct BinOpCase {
  const char* mnemonic;
  std::int64_t a, b, expected;
};

// Prints a case as "add(9223372036854775807,1)=-9223372036854775808". The
// printed value is also the case's CTest name, so it must not fall back to
// gtest's raw-byte dump, which embeds the address of `mnemonic`.
void PrintTo(const BinOpCase& c, std::ostream* os) {
  *os << c.mnemonic << '(' << c.a << ',' << c.b << ")=" << c.expected;
}

class BinOpSweep : public ::testing::TestWithParam<BinOpCase> {};

TEST_P(BinOpSweep, MatchesExpected) {
  const auto& c = GetParam();
  const std::string source = "pushc " + std::to_string(c.a) + "\npushc " +
                             std::to_string(c.b) + "\n" + c.mnemonic +
                             "\nhalt\n";
  EXPECT_EQ(RunSource(source), c.expected)
      << c.a << " " << c.mnemonic << " " << c.b;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BinOpSweep,
    ::testing::Values(
        BinOpCase{"add", INT64_MAX, 1, INT64_MIN},  // wraparound defined
        BinOpCase{"sub", INT64_MIN, 1, INT64_MAX},
        BinOpCase{"mul", 1L << 40, 1L << 40, 0},
        BinOpCase{"div", -7, 2, -3},
        BinOpCase{"mod", -7, 2, -1},
        BinOpCase{"div", 7, -2, -3},
        BinOpCase{"and", -1, 0x0f0f, 0x0f0f},
        BinOpCase{"xor", -1, -1, 0},
        BinOpCase{"lt", INT64_MIN, INT64_MAX, 1},
        BinOpCase{"gt", 0, INT64_MIN, 1}));

// ---- Subroutines (call/ret) ----

TEST(Subroutines, CallAndReturn) {
  // double(x): locals[1] = locals[1] * 2 (args via locals; stack-neutral).
  const std::string_view source = R"(
  push 21
  store 1
  call double
  load 1
  halt
double:
  load 1
  dup
  add
  store 1
  ret
)";
  EXPECT_EQ(RunSource(source), 42);
}

TEST(Subroutines, NestedCalls) {
  const std::string_view source = R"(
  push 5
  store 1
  call outer
  load 1
  halt
outer:
  call inner
  call inner
  ret
inner:
  load 1
  push 1
  add
  store 1
  ret
)";
  EXPECT_EQ(RunSource(source), 7);
}

TEST(Subroutines, RecursionIsFuelAndDepthBounded) {
  // Unbounded recursion: the call-depth guard faults before fuel runs out.
  auto program = Assemble("rec", R"(
  call self
  halt
self:
  call self
  ret
)");
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(Verify(*program).ok()) << Verify(*program).status().ToString();
  Environment env;
  Interpreter interp;
  const auto result = interp.Run(*program, env);
  EXPECT_EQ(result.reason, ExitReason::kFault);
  EXPECT_NE(result.fault_message.find("call depth"), std::string::npos);
}

TEST(Subroutines, VerifierRejectsNonNeutralSubroutine) {
  // Subroutine leaves one extra value on the stack.
  auto program = Assemble("bad", R"(
  call leaky
  halt
leaky:
  push 1
  ret
)");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(Verify(*program).ok());
}

TEST(Subroutines, VerifierRejectsSubroutinePoppingCallerValues) {
  auto program = Assemble("bad", R"(
  push 9
  call thief
  pop
  halt
thief:
  pop
  push 1
  ret
)");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(Verify(*program).ok());
}

TEST(Subroutines, VerifierRejectsBareRet) {
  auto program = Assemble("bad", "ret\nhalt\n");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(Verify(*program).ok());
}

TEST(Subroutines, VerifierRejectsFallThroughIntoSubroutine) {
  // Main flow reaches the subroutine's ret without a call.
  auto program = Assemble("bad", R"(
  call sub
sub:
  nop
  ret
)");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(Verify(*program).ok());
}

TEST(Subroutines, RuntimeGuardsBareRet) {
  // Hand-built (unverified) code: the interpreter still refuses.
  std::vector<Instruction> code = {{Opcode::kRet, 0}, {Opcode::kHalt, 0}};
  Environment env;
  Interpreter interp;
  const auto result = interp.Run(Program("raw", code), env);
  EXPECT_EQ(result.reason, ExitReason::kFault);
}

// ---- Code repository & cache ----

TEST(CodeRepository, InstallAndFind) {
  CodeRepository repo;
  auto program = Assemble("p", "push 1\nhalt\n");
  auto digest = repo.Install(*program);
  ASSERT_TRUE(digest.ok());
  EXPECT_NE(repo.Find(*digest), nullptr);
  EXPECT_EQ(repo.Find(12345), nullptr);
}

TEST(CodeRepository, RejectsUnverifiable) {
  CodeRepository repo;
  std::vector<Instruction> bad = {{Opcode::kAdd, 0}, {Opcode::kHalt, 0}};
  EXPECT_FALSE(repo.Install(Program("bad", bad)).ok());
  EXPECT_EQ(repo.size(), 0u);
}

TEST(CodeCache, HitsAndMisses) {
  CodeCache cache(4096);
  auto program = Assemble("p", "push 1\nhalt\n");
  EXPECT_EQ(cache.Get(program->digest()), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  ASSERT_TRUE(cache.Put(*program).ok());
  EXPECT_NE(cache.Get(program->digest()), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(CodeCache, LruEviction) {
  // Cache sized to hold roughly two small programs.
  auto p1 = Assemble("p1", "push 1\nhalt\n");
  auto p2 = Assemble("p2", "push 2\nhalt\n");
  auto p3 = Assemble("p3", "push 3\nhalt\n");
  CodeCache cache(p1->WireSize() + p2->WireSize() + 4);
  ASSERT_TRUE(cache.Put(*p1).ok());
  ASSERT_TRUE(cache.Put(*p2).ok());
  // Touch p1 so p2 becomes LRU.
  EXPECT_NE(cache.Get(p1->digest()), nullptr);
  ASSERT_TRUE(cache.Put(*p3).ok());
  EXPECT_TRUE(cache.Contains(p1->digest()));
  EXPECT_FALSE(cache.Contains(p2->digest()));
  EXPECT_TRUE(cache.Contains(p3->digest()));
}

TEST(CodeCache, RejectsOversized) {
  CodeCache cache(8);
  auto program = Assemble("p", "push 1\nhalt\n");
  EXPECT_EQ(cache.Put(*program).code(), StatusCode::kResourceExhausted);
}

TEST(CodeCache, PutIsIdempotent) {
  CodeCache cache(4096);
  auto program = Assemble("p", "push 1\nhalt\n");
  ASSERT_TRUE(cache.Put(*program).ok());
  const auto used = cache.bytes_used();
  ASSERT_TRUE(cache.Put(*program).ok());
  EXPECT_EQ(cache.bytes_used(), used);
  EXPECT_EQ(cache.entry_count(), 1u);
}

}  // namespace
}  // namespace viator::vm
