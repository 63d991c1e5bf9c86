// Golden pin of the listing front end (parse -> Alg. 1 tagging -> Alg. 2
// blocks -> Table I attributes). Cache keys and verdicts are functions of
// the extracted ACFG, so any change to the front end must leave every
// attribute double, every edge list (in vertex order) and the canonical
// content hash bit-identical. The pins cover seeded generator listings for
// all 22 family profiles and hand-written listings for the operand and
// label-resolution rules (DESIGN.md, "Listing front end").
//
// On a mismatch the test prints the row as it would be written here, so an
// intended front-end change can re-pin deliberately.

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "acfg/extractor.hpp"
#include "cache/acfg_hash.hpp"
#include "data/corpus.hpp"
#include "data/program_generator.hpp"

namespace magic::acfg {
namespace {

struct Pin {
  const char* name;
  std::size_t vertices;
  std::size_t edges;
  const char* content_hash;  // cache::acfg_content_hash (canonical)
  const char* bytes_hash;    // attribute doubles + edge lists, vertex order
};

// Hashes the raw attribute bit patterns row by row, then every vertex's
// successor list (length first) in stored order. Unlike the canonical
// content hash this also pins vertex numbering and edge order.
std::string layout_hash(const Acfg& a) {
  std::vector<std::uint64_t> words;
  words.push_back(a.num_vertices());
  words.push_back(a.num_channels());
  for (std::size_t i = 0; i < a.attributes.size(); ++i) {
    std::uint64_t bits = 0;
    const double v = a.attributes.data()[i];
    std::memcpy(&bits, &v, sizeof bits);
    words.push_back(bits);
  }
  for (const auto& out : a.out_edges) {
    words.push_back(out.size());
    for (std::size_t v : out) words.push_back(v);
  }
  return cache::bytes_content_hash(words.data(), words.size() * sizeof(std::uint64_t))
      .to_hex();
}

void expect_pinned(const Pin& pin, const std::string& listing) {
  const Acfg a = extract_acfg_from_listing(listing);
  const std::string content = cache::acfg_content_hash(a).to_hex();
  const std::string layout = layout_hash(a);
  EXPECT_NO_THROW(a.validate()) << pin.name;
  const bool same = a.num_vertices() == pin.vertices && a.num_edges() == pin.edges &&
                    content == pin.content_hash && layout == pin.bytes_hash;
  EXPECT_TRUE(same) << "front end drifted; actual row:\n    {\"" << pin.name << "\", "
                    << a.num_vertices() << ", " << a.num_edges() << ", \"" << content
                    << "\", \"" << layout << "\"},";
}

// ---------------------------------------------------------------------------
// Hand-written edge cases.

struct Case {
  const char* name;
  const char* listing;
};

const Case kCases[] = {
    // IDA segment prefixes, same-line and standalone labels, forward and
    // backward references, upper-case labels and keywords, size keywords
    // peeled off operands, and a label defined twice (last one wins).
    {"ida_labels",
     "; IDA-style export\n"
     ".text:00401000 sub_401000:\n"
     ".text:00401000 push ebp\n"
     ".text:00401001 mov ebp, esp\n"
     "loc_401003:\n"
     ".text:00401003 cmp eax, 0\n"
     ".text:00401006 jz short loc_401012\n"
     ".text:00401008 call sub_401000\n"
     ".text:0040100d JNZ SHORT LOC_401015\n"
     ".text:0040100f jmp near ptr loc_401003\n"
     ".text:00401011 push offset 0x403000\n"
     ".text:00401012 loc_401012: xor eax, eax\n"
     "LOC_401015:\n"
     ".text:00401015 mov eax, dword ptr [ebp+8]\n"
     ".text:00401018 loop loc_401003\n"
     ".text:0040101a loc_redef: nop\n"
     ".text:0040101b jmp loc_redef\n"
     "loc_redef:\n"
     ".text:0040101d push offset loc_401003\n"
     ".text:00401022 pop ebp\n"
     ".text:00401023 retn\n"},
    // An unresolved label ahead of an address on one transfer: the label
    // drops out and the address is the target. `40100c` has neither a 0x
    // prefix nor an h suffix and is no decimal number, so that call keeps
    // no target. A resolved label ahead of an address wins over it. A label
    // bound to a bare-address line (no code there) gives a target with no
    // instruction, so no edge.
    {"unresolved_then_address",
     "loc_401000:\n"
     "401000 jmp loc_nowhere, 0x401008\n"
     "401002 call loc_missing, 40100c\n"
     "401007 nop\n"
     "401008 jz loc_401000, 0x40100c\n"
     "40100a mov eax, offset loc_absent\n"
     "40100c jmp loc_gap\n"
     "40100e ret\n"
     "401030 loc_gap:\n"},
    // On control transfers numbers are hex targets, never numeric
    // constants: `jmp 10` goes to 0x10 and `retn 4` counts no constant.
    // Elsewhere they are decimal constants. A bare `a` is no number at all.
    {"retn_and_jmp_numbers",
     "a nop\n"
     "10 push 10\n"
     "12 jmp 10\n"
     "14 retn 4\n"
     "17 add eax, 10h\n"
     "1a jz a\n"
     "1c jnz 0ah\n"
     "1e int3\n"
     "1f cmp ecx, 0x7f\n"
     "22 ja 14\n"
     "24 hlt\n"},
    // Out-of-order and duplicate addresses (the first line at an address
    // wins) and gaps wider than one x86 instruction (section breaks).
    {"unordered_duplicates_gaps",
     "401010 ret\n"
     "401000 cmp eax, 1\n"
     "401003 jz 0x401010\n"
     "401000 nop\n"
     "401005 jmp 0x401040\n"
     "401040 mov eax, 2\n"
     "401045 add eax, 3\n"
     "401003 hlt\n"
     "401045 call 0x401000\n"
     "401047 ret\n"
     "401070 jmp 0x401040\n"},
    // CRLF line ends, comments, tabs, mixed case, 0x- and h-suffixed
    // addresses, and a final line without a newline.
    {"crlf_comments",
     "; header comment\r\n"
     "\r\n"
     "0x401000 PUSH EBP ; save frame\r\n"
     "401001h\tmov\tebp ,\tesp\r\n"
     "   ; indented comment\r\n"
     "401003 test eax, eax\r\n"
     "401005 jz 0x40100b ; skip\r\n"
     "401007 db 0x90, 1, 2\r\n"
     "40100a dd 7\r\n"
     "40100b jmp 0x401000"},
    // A listing with no code: labels and comments only.
    {"no_code",
     "; nothing to see\n"
     "\n"
     "orphan_label:\n"
     "another:\n"},
};

const Pin kCasePins[] = {
    {"ida_labels", 9, 12, "83930b61d6eef401223cdf9a42fbb13f", "af027b0ddc1b82932eec172523d3a1a5"},
    {"unresolved_then_address", 5, 4, "a00265a52d4daacc4484b3e1126cc84b", "34f9f20e5b86aa44c8aa4e6e9fe60dd0"},
    {"retn_and_jmp_numbers", 8, 7, "0522adcc679a9a914b790fa6dd1ef1a8", "e4bb3b082d98c301d80045728520b7b1"},
    {"unordered_duplicates_gaps", 4, 4, "40c60e97634b9456b4b0a77ec78f72e9", "131cfaf2730be968283fca6d1e80a664"},
    {"crlf_comments", 3, 4, "6659d30338ef5c4ddaac291aaa09a99d", "4f006f8b2b10ac2d764ed092dfd43431"},
    {"no_code", 0, 0, "31c5bb682ffda925dd58380b5cdd6526", "68a17e26cd55568db74cf9b040aa0cdf"},
};

TEST(FrontEndGolden, HandWrittenListings) {
  static_assert(std::size(kCases) == std::size(kCasePins));
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    ASSERT_STREQ(kCases[i].name, kCasePins[i].name);
    expect_pinned(kCasePins[i], kCases[i].listing);
  }
}

// ---------------------------------------------------------------------------
// One seeded listing per family profile (9 MSKCFG, then 13 YANCFG).

const Pin kFamilyPins[] = {
    {"Ramnit", 48, 88, "cdf3c8a016494af4e3f3427b7411b41a", "be530deccd190cb07e2d53c278cabd90"},
    {"Lollipop", 28, 145, "255ae8281635c2bcbd6a817ad04f721d", "b2fe88c8c7f7521e7f616f88f9a7197e"},
    {"Kelihos_ver3", 361, 795, "c5da5b807099903cb3dab0f645e43ef7", "830285163bf871f42b29d6d0734c06c7"},
    {"Vundo", 21, 29, "25a0f811d7de08760b409541f5229998", "028005ea683f54b6aa30a87666bab4e9"},
    {"Simda", 4, 7, "b26bdfe5436d518e9f45aab01ca0d7db", "4c63e91dcb5da96c9aaf91375c224062"},
    {"Tracur", 48, 74, "540795b017bcef1c094c194d6e30295e", "92270d30b27cade77d8e142e686277be"},
    {"Kelihos_ver1", 71, 252, "4c5d418246b8a95955805072f309a6b1", "309239ddf7350a369e847144a2cd278a"},
    {"Obfuscator.ACY", 65, 106, "0fdf30c2edb3297aa54b98d2245220fe", "bb3f8e2c8da633c7aff173792c976b05"},
    {"Gatak", 20, 63, "f20816111892f52a5afa42f7176ac9e6", "3b8bc99fc55b2785482bd47be20f684e"},
    {"Bagle", 52, 87, "11d62c10dbce7212c1bc577851ef5612", "f988565af51574ff346d37f705e1fdd7"},
    {"Benign", 91, 355, "f48550d07c33b2bc17fd51126d536c4b", "bcd2ba843c0f1e7730c3146e4757d371"},
    {"Bifrose", 45, 84, "1bee1f5f300e55ca63550e80e659264b", "962b31d77e2201017b692f85d9879a91"},
    {"Hupigon", 132, 345, "00ca42efe7b24c2198130bda0d567bcc", "716f6e069794f139dbc64c66b6f1f198"},
    {"Koobface", 77, 147, "9f3ae13635049da1913e3c41150e1e14", "39bb5ff18b281a13465685b4057274cf"},
    {"Ldpinch", 39, 75, "c7054779e3b2e7ca7df7304994af5a96", "74b8e00f02569e8163426a36cee4e4db"},
    {"Lmir", 47, 94, "54580973bc7275d18aa2a3cd6355ee38", "374b7aee7267e645b1f4d21555e1df2b"},
    {"Rbot", 46, 98, "3ccc8fc44c4cae847b649630e0691cf1", "ee267160e07b995c9c909734b2f3d2f2"},
    {"Sdbot", 33, 69, "a272cebe4025a7a92af9d63c8fce80a4", "f7a0e04016c55b397f3855620e96db64"},
    {"Swizzor", 48, 237, "ab40aaede77da8e16b58960cefbe6d3d", "a8eb0c3c1e01ba71f6bcdf544665fe2d"},
    {"Vundo", 32, 44, "1e5cfd1b049e48d286436f063132ea9c", "1b33453e0e30b39aae70ceadd82c53d6"},
    {"Zbot", 159, 372, "e2a0277133f6334cf4cb3d69af952aab", "a6b9ce8ac7921799865a02385343909d"},
    {"Zlob", 22, 71, "5b19d50dddfbbc02553a1a50b2705ddb", "3d05eecda1412e6e64d7d24b1f72366d"},
};

TEST(FrontEndGolden, GeneratedFamilyListings) {
  auto specs = data::mskcfg_family_specs();
  const auto yan = data::yancfg_family_specs();
  specs.insert(specs.end(), yan.begin(), yan.end());
  ASSERT_EQ(std::size(kFamilyPins), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    data::ProgramGenerator gen(specs[i], util::Rng(7000 + i));
    ASSERT_EQ(specs[i].name, kFamilyPins[i].name);
    expect_pinned(kFamilyPins[i], gen.generate_listing());
  }
}

}  // namespace
}  // namespace magic::acfg
