// Robustness sweep: the parser must never crash on hostile or degenerate
// listings — real-world disassembly of packed malware is full of garbage
// (the paper notes "the correctness of the .asm file is not guaranteed").

#include <string>

#include <gtest/gtest.h>

#include "acfg/extractor.hpp"
#include "asmx/parser.hpp"
#include "util/rng.hpp"

namespace magic::asmx {
namespace {

TEST(ParserRobustness, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(parse_listing("").program.instructions.empty());
  EXPECT_TRUE(parse_listing("\n\n\n").program.instructions.empty());
  EXPECT_TRUE(parse_listing("   \t  \n ; only a comment\n").program.instructions.empty());
}

TEST(ParserRobustness, LabelWithoutCodeIsFine) {
  const auto r = parse_listing("orphan_label:\n");
  EXPECT_TRUE(r.program.instructions.empty());
}

TEST(ParserRobustness, GarbageOperandsDoNotThrow) {
  const auto r = parse_listing(
      "401000 mov eax, @@##$$\n"
      "401005 add [,,], ]]]\n"
      "40100a jmp ????\n");
  EXPECT_EQ(r.program.instructions.size(), 3u);
}

TEST(ParserRobustness, VeryLongLinesHandled) {
  std::string line = "401000 mov eax, ";
  line.append(10000, 'x');
  line += "\n401010 ret\n";
  const auto r = parse_listing(line);
  EXPECT_EQ(r.program.instructions.size(), 2u);
}

TEST(ParserRobustness, MissingNewlineAtEof) {
  const auto r = parse_listing("401000 ret");
  ASSERT_EQ(r.program.instructions.size(), 1u);
  EXPECT_EQ(r.program.instructions[0].opclass, OpcodeClass::Return);
}

TEST(ParserRobustness, RandomPrintableGarbageNeverCrashes) {
  util::Rng rng(12345);
  const std::string charset =
      "abcdefghijklmnopqrstuvwxyz0123456789 ,.;:[]()+-_#@\t";
  for (int trial = 0; trial < 50; ++trial) {
    std::string text;
    const auto lines = rng.uniform_int(1, 20);
    for (std::int64_t l = 0; l < lines; ++l) {
      // Valid hex address so the line parses as code, then random garbage.
      text += std::to_string(400000 + l * 16) + " ";
      const auto len = rng.uniform_int(0, 60);
      for (std::int64_t c = 0; c < len; ++c) {
        text += charset[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(charset.size()) - 1))];
      }
      text += "\n";
    }
    EXPECT_NO_THROW({
      auto result = parse_listing(text);
      (void)result;
    }) << "input:\n" << text;
  }
}

TEST(ParserRobustness, FullPipelineToleratesHostileListings) {
  // The complete parse -> tag -> CFG -> ACFG path on nasty-but-addressed
  // input must yield a structurally valid ACFG.
  const char* hostile =
      "401000 jmp 0x401000\n"          // self loop at entry
      "401002 jz 0x999999\n"           // target outside the image
      "401004 call eax\n"              // indirect call (no static target)
      "401006 db 0xcc\n"
      "401007 ret\n"
      "401008 jnz 0x401006\n";         // jump into data
  auto acfg = acfg::extract_acfg_from_listing(hostile);
  EXPECT_NO_THROW(acfg.validate());
  EXPECT_GE(acfg.num_vertices(), 3u);
}

TEST(ParserRobustness, DuplicateLabelsLastOneWins) {
  const auto r = parse_listing(
      "loc_a:\n"
      "401000 nop\n"
      "loc_a:\n"
      "401001 nop\n"
      "401002 jmp loc_a\n");
  const auto& jmp = r.program.instructions[2];
  ASSERT_TRUE(jmp.target.has_value());
  EXPECT_EQ(*jmp.target, 0x401001u);
}

TEST(ParserRobustness, MixedCaseAndSpacing) {
  const auto r = parse_listing("  401000\tMOV\teax ,\t5 \n");
  ASSERT_EQ(r.program.instructions.size(), 1u);
  EXPECT_EQ(r.program.instructions[0].opclass, OpcodeClass::Mov);
  EXPECT_EQ(r.program.instructions[0].immediates, 1u);
}

}  // namespace
}  // namespace magic::asmx
