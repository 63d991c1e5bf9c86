#include "asmx/parser.hpp"

#include <chrono>
#include <string>

#include <gtest/gtest.h>

namespace magic::asmx {
namespace {

TEST(ParseNumber, DecimalHexForms) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_number("42", v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(parse_number("0x1A", v));
  EXPECT_EQ(v, 0x1Au);
  EXPECT_TRUE(parse_number("401000h", v));
  EXPECT_EQ(v, 0x401000u);
  EXPECT_TRUE(parse_number("  7 ", v));
  EXPECT_EQ(v, 7u);
}

TEST(ParseNumber, RejectsGarbage) {
  std::uint64_t v = 0;
  EXPECT_FALSE(parse_number("eax", v));
  EXPECT_FALSE(parse_number("", v));
  EXPECT_FALSE(parse_number("0x", v));
  EXPECT_FALSE(parse_number("12g4", v));
}

TEST(ParseOperand, ClassifiesKinds) {
  EXPECT_EQ(parse_operand("eax").kind, OperandKind::Register);
  EXPECT_EQ(parse_operand("R11").kind, OperandKind::Register);
  EXPECT_EQ(parse_operand("42").kind, OperandKind::Immediate);
  EXPECT_EQ(parse_operand("0x10").kind, OperandKind::Immediate);
  EXPECT_EQ(parse_operand("[ebp+8]").kind, OperandKind::Memory);
  EXPECT_EQ(parse_operand("loc_401020").kind, OperandKind::Target);
  EXPECT_EQ(parse_operand("sub_401100").kind, OperandKind::Target);
  EXPECT_EQ(parse_operand("some_symbol").kind, OperandKind::Other);
}

TEST(ParseOperand, PeelsKeywordsInAnyCase) {
  const Operand op = parse_operand("  DWORD PTR [ebp+8] ");
  EXPECT_EQ(op.kind, OperandKind::Memory);
  EXPECT_EQ(op.text, "[ebp+8]");
  EXPECT_EQ(parse_operand("SHORT LOC_401000").kind, OperandKind::Target);
  EXPECT_EQ(parse_operand("short\tloc_401000").kind, OperandKind::Other);
}

TEST(ParseListing, BasicProgram) {
  const auto result = parse_listing(
      "; a tiny program\n"
      "401000 push ebp\n"
      "401001 mov ebp, esp\n"
      "401003 ret\n");
  ASSERT_EQ(result.program.instructions.size(), 3u);
  EXPECT_EQ(result.program.instructions[0].addr, 0x401000u);
  EXPECT_EQ(result.program.instructions[0].opclass, OpcodeClass::Mov);
  EXPECT_EQ(result.program.instructions[1].opclass, OpcodeClass::Mov);
  EXPECT_EQ(result.program.instructions[1].immediates, 0u);
  EXPECT_FALSE(result.program.instructions[1].target.has_value());
  EXPECT_EQ(result.program.instructions[2].opclass, OpcodeClass::Return);
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(ParseListing, SizesInferredFromAddressGaps) {
  const auto result = parse_listing(
      "401000 push ebp\n"
      "401001 mov ebp, esp\n"
      "401003 ret\n");
  EXPECT_EQ(result.program.instructions[0].size, 1u);
  EXPECT_EQ(result.program.instructions[1].size, 2u);
  EXPECT_EQ(result.program.instructions[2].size, 1u);  // last defaults to 1
}

TEST(ParseListing, LargeGapTreatedAsSectionBreak) {
  const auto result = parse_listing(
      "401000 ret\n"
      "402000 ret\n");
  EXPECT_EQ(result.program.instructions[0].size, 1u);
}

TEST(ParseListing, LabelsResolveToAddresses) {
  const auto result = parse_listing(
      "loc_start:\n"
      "401000 cmp eax, 1\n"
      "401003 jz loc_start\n");
  const auto& jz = result.program.instructions[1];
  ASSERT_TRUE(jz.target.has_value());
  EXPECT_EQ(*jz.target, 0x401000u);
  EXPECT_EQ(jz.immediates, 0u);
}

TEST(ParseListing, NumericJumpTargetsPromotedToTarget) {
  const auto result = parse_listing("401000 jmp 0x401010\n");
  const auto& jmp = result.program.instructions[0];
  ASSERT_TRUE(jmp.target.has_value());
  EXPECT_EQ(*jmp.target, 0x401010u);
  EXPECT_EQ(jmp.immediates, 0u);
}

TEST(ParseListing, ImmediatesStayImmediateOnNonTransfer) {
  const auto result = parse_listing("401000 mov eax, 0x10\n");
  EXPECT_EQ(result.program.instructions[0].immediates, 1u);
  EXPECT_FALSE(result.program.instructions[0].target.has_value());
}

TEST(ParseListing, UnresolvedLabelBecomesDiagnostic) {
  const auto result = parse_listing("401000 jmp loc_nowhere\n");
  EXPECT_FALSE(result.diagnostics.empty());
  EXPECT_FALSE(result.program.instructions[0].target.has_value());
  EXPECT_EQ(result.program.instructions[0].immediates, 0u);
}

TEST(ParseListing, CommentsAndBlankLinesIgnored)  {
  const auto result = parse_listing(
      "\n; header comment\n\n"
      "401000 nop ; trailing comment\n"
      "\n");
  ASSERT_EQ(result.program.instructions.size(), 1u);
  EXPECT_EQ(result.program.instructions[0].addr, 0x401000u);
  EXPECT_EQ(result.program.instructions[0].opclass, OpcodeClass::Other);
}

TEST(ParseListing, OutOfOrderAddressesAreSorted) {
  const auto result = parse_listing(
      "401010 ret\n"
      "401000 nop\n");
  EXPECT_EQ(result.program.instructions[0].addr, 0x401000u);
  EXPECT_EQ(result.program.instructions[1].addr, 0x401010u);
}

TEST(ParseListing, DuplicateAddressKeptOnceWithDiagnostic) {
  const auto result = parse_listing(
      "401000 nop\n"
      "401000 ret\n");
  ASSERT_EQ(result.program.instructions.size(), 1u);
  EXPECT_EQ(result.program.instructions[0].opclass, OpcodeClass::Other);  // first kept
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_NE(result.diagnostics[0].message.find("0x401000"), std::string::npos)
      << result.diagnostics[0].message;

  // A flood of duplicates is dropped in one linear pass.
  std::string flood;
  for (int i = 0; i < 40000; ++i) flood += "401000 nop\n";
  const auto start = std::chrono::steady_clock::now();
  const auto flooded = parse_listing(flood);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_EQ(flooded.program.instructions.size(), 1u);
  EXPECT_EQ(flooded.diagnostics.size(), 39999u);
  EXPECT_LT(seconds, 0.5);
}

TEST(ParseListing, MalformedAddressThrows) {
  EXPECT_THROW(parse_listing("zzz nop\n"), std::runtime_error);
}

TEST(ParseListing, MnemonicLowercased) {
  const auto result = parse_listing("401000 MOV EAX, EBX\n");
  EXPECT_EQ(result.program.instructions[0].opclass, OpcodeClass::Mov);
  EXPECT_EQ(result.program.instructions[0].immediates, 0u);  // EAX, EBX are registers
}

TEST(Program, IndexOfBinarySearch) {
  const auto result = parse_listing(
      "401000 nop\n"
      "401001 nop\n"
      "401002 ret\n");
  EXPECT_EQ(result.program.index_of(0x401001), 1u);
  EXPECT_EQ(result.program.index_of(0x401005), Program::npos);
}

TEST(Instruction, NumericConstantCount) {
  const auto result = parse_listing("401000 add eax, 5\n401003 mov ebx, ecx\n");
  EXPECT_EQ(result.program.instructions[0].immediates, 1u);
  EXPECT_EQ(result.program.instructions[1].immediates, 0u);
}

}  // namespace
}  // namespace magic::asmx
