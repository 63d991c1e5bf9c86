// Parsing of IDA Pro-style .asm exports: segment-prefixed addresses,
// same-line labels, and assembler keywords in operands. The MSKCFG dataset
// ships exactly this format (§V-A: .asm files "generated with the IDA Pro
// tool").

#include <gtest/gtest.h>

#include "acfg/extractor.hpp"
#include "asmx/parser.hpp"
#include "cfg/cfg_builder.hpp"

namespace magic::asmx {
namespace {

constexpr const char* kIdaListing =
    "; =============== S U B R O U T I N E ===============\n"
    ".text:00401000 sub_401000:\n"
    ".text:00401000 push ebp\n"
    ".text:00401001 mov ebp, esp\n"
    ".text:00401003 mov eax, dword ptr [ebp+8]\n"
    ".text:00401006 cmp eax, 0\n"
    ".text:00401009 jz short loc_401010\n"
    ".text:0040100b add eax, 1\n"
    ".text:0040100e jmp short loc_401012\n"
    ".text:00401010 loc_401010:\n"
    ".text:00401010 xor eax, eax\n"
    ".text:00401012 loc_401012:\n"
    ".text:00401012 pop ebp\n"
    ".text:00401013 retn\n";

TEST(IdaFormat, SegmentPrefixedAddressesParse) {
  const auto r = parse_listing(kIdaListing);
  ASSERT_EQ(r.program.instructions.size(), 10u);
  EXPECT_EQ(r.program.instructions[0].addr, 0x401000u);
  EXPECT_EQ(r.program.instructions.back().addr, 0x401013u);
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(IdaFormat, SameLineLabelsResolve) {
  const auto r = parse_listing(kIdaListing);
  // jz short loc_401010 must resolve to 0x401010.
  const auto& jz = r.program.instructions[4];
  EXPECT_EQ(jz.opclass, OpcodeClass::ConditionalJump);
  ASSERT_TRUE(jz.target.has_value());
  EXPECT_EQ(*jz.target, 0x401010u);
}

TEST(IdaFormat, ShortKeywordStripped) {
  const auto r = parse_listing(".text:00401000 jmp short 0x401005\n");
  const auto& jmp = r.program.instructions[0];
  ASSERT_TRUE(jmp.target.has_value());
  EXPECT_EQ(*jmp.target, 0x401005u);
}

TEST(IdaFormat, DwordPtrOperandIsMemory) {
  const auto r = parse_listing(".text:00401000 mov eax, dword ptr [ebp+8]\n");
  EXPECT_EQ(parse_operand("dword ptr [ebp+8]").kind, OperandKind::Memory);
  EXPECT_EQ(r.program.instructions[0].immediates, 0u);
}

TEST(IdaFormat, OffsetKeywordStripped) {
  const auto r = parse_listing(".text:00401000 push offset 0x403000\n");
  // push is not a control transfer, so a numeric stays Immediate.
  EXPECT_EQ(r.program.instructions[0].immediates, 1u);
}

TEST(IdaFormat, LabelOnlyLinesProduceNoInstruction) {
  const auto r = parse_listing(
      ".text:00401000 loc_401000:\n"
      ".text:00401000 nop\n");
  ASSERT_EQ(r.program.instructions.size(), 1u);
  EXPECT_EQ(r.program.instructions[0].opclass, OpcodeClass::Other);
}

TEST(IdaFormat, FullPipelineBuildsExpectedCfg) {
  cfg::ControlFlowGraph g = cfg::CfgBuilder::build_from_listing(kIdaListing);
  // Diamond: entry -> {then, else} -> join.
  EXPECT_EQ(g.num_blocks(), 4u);
  const auto entry = g.block_at(0x401000);
  ASSERT_NE(entry, cfg::kInvalidBlock);
  EXPECT_EQ(g.block(entry).successors.size(), 2u);
  acfg::Acfg a = acfg::extract_acfg(g);
  EXPECT_EQ(a.num_vertices(), 4u);
}

TEST(IdaFormat, MixedPlainAndSegmentedLines) {
  const auto r = parse_listing(
      "401000 nop\n"
      ".text:00401001 ret\n");
  ASSERT_EQ(r.program.instructions.size(), 2u);
  EXPECT_EQ(r.program.instructions[1].addr, 0x401001u);
}

}  // namespace
}  // namespace magic::asmx
