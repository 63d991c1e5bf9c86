#include "acfg/attributes.hpp"

#include <gtest/gtest.h>

#include "asmx/parser.hpp"

namespace magic::acfg {
namespace {

std::vector<asmx::Instruction> block_from(const std::string& listing) {
  return asmx::parse_listing(listing).program.instructions;
}

TEST(Attributes, TableOneCountsPerBucket) {
  const auto b = block_from(
      "401000 mov eax, 5\n"     // mov + 1 numeric const
      "401005 add eax, 2\n"     // arith + 1 numeric const
      "401008 cmp eax, 7\n"     // compare + 1 numeric const
      "40100b jz 0x401010\n"    // transfer (target, not an immediate)
      "40100d call 0x77000000\n" // call
      "401012 db 0x90\n"        // data declaration + 1 numeric const
      "401013 ret\n");          // termination
  const auto a = block_attributes(b, 2);
  EXPECT_EQ(a[kMovInsts], 1.0);
  EXPECT_EQ(a[kArithmeticInsts], 1.0);
  EXPECT_EQ(a[kCompareInsts], 1.0);
  EXPECT_EQ(a[kTransferInsts], 1.0);
  EXPECT_EQ(a[kCallInsts], 1.0);
  EXPECT_EQ(a[kDataDeclInsts], 1.0);
  EXPECT_EQ(a[kTerminationInsts], 1.0);
  EXPECT_EQ(a[kTotalInsts], 7.0);
  EXPECT_EQ(a[kVertexInsts], 7.0);
  EXPECT_EQ(a[kOffspring], 2.0);
  // Numeric constants: mov/add/cmp/db immediates = 4 (jump/call targets are
  // Target operands, not immediates).
  EXPECT_EQ(a[kNumericConstants], 4.0);
}

TEST(Attributes, EmptyBlockAllZeroExceptOffspring) {
  const auto a = block_attributes({}, 3);
  for (std::size_t c = 0; c < kNumChannels; ++c) {
    if (c == kOffspring) {
      EXPECT_EQ(a[c], 3.0);
    } else {
      EXPECT_EQ(a[c], 0.0);
    }
  }
}

TEST(Attributes, ChannelCountMatchesTableOne) {
  // 9 code-sequence attributes + 2 vertex-structure attributes.
  EXPECT_EQ(static_cast<int>(kNumChannels), 11);
}

TEST(Attributes, ChannelNamesAreDistinct) {
  std::set<std::string_view> names;
  for (std::size_t c = 0; c < kNumChannels; ++c) {
    EXPECT_TRUE(names.insert(channel_name(c)).second);
  }
  EXPECT_EQ(channel_name(kNumChannels), "?");
}

TEST(Attributes, UnknownMnemonicsCountOnlyInTotals) {
  const auto b = block_from("401000 frobnicate eax\n");
  const auto a = block_attributes(b, 0);
  EXPECT_EQ(a[kTotalInsts], 1.0);
  EXPECT_EQ(a[kMovInsts], 0.0);
  EXPECT_EQ(a[kArithmeticInsts], 0.0);
}

}  // namespace
}  // namespace magic::acfg
