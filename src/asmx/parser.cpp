#include "asmx/parser.hpp"

#include <algorithm>
#include <charconv>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "asmx/name_key.hpp"
#include "asmx/opcode_table.hpp"
#include "obs/trace.hpp"
#include "util/string_util.hpp"

namespace magic::asmx {
namespace {

using util::trim;

/// name_key()s of the x86 register names, sorted.
const std::vector<std::uint64_t>& register_keys() {
  static const std::vector<std::uint64_t> keys = [] {
    std::vector<std::uint64_t> k;
    for (std::string_view name :
         {"rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
          "r8",  "r9",  "r10", "r11", "r12", "r13", "r14", "r15",
          "eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp",
          "ax",  "bx",  "cx",  "dx",  "si",  "di",  "bp",  "sp",
          "al",  "bl",  "cl",  "dl",  "ah",  "bh",  "ch",  "dh",
          "r8d", "r9d", "r10d", "r11d", "r12d", "r13d", "r14d", "r15d"}) {
      k.push_back(name_key(name));
    }
    std::sort(k.begin(), k.end());
    return k;
  }();
  return keys;
}

/// Case-insensitive prefix test against a lower-case `prefix`.
bool starts_with_lower(std::string_view s, std::string_view prefix) noexcept {
  if (s.size() < prefix.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (ascii_lower(s[i]) != prefix[i]) return false;
  }
  return true;
}

/// Position of the first space or tab in `s` at or after `from`, or npos.
std::size_t find_blank(std::string_view s, std::size_t from = 0) noexcept {
  for (std::size_t i = from; i < s.size(); ++i) {
    if (s[i] == ' ' || s[i] == '\t') return i;
  }
  return std::string_view::npos;
}

bool is_target_label(std::string_view s) noexcept {
  return starts_with_lower(s, "loc_") || starts_with_lower(s, "sub_") ||
         starts_with_lower(s, "locret_");
}

/// Reads all of `digits` in `base` (10 or 16), wrapping modulo 2^64.
bool parse_digits(std::string_view digits, std::uint64_t base, std::uint64_t& out) noexcept {
  if (digits.empty()) return false;
  std::uint64_t value = 0;
  for (char c : digits) {
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (base == 16 && c >= 'a' && c <= 'f') digit = static_cast<std::uint64_t>(c - 'a' + 10);
    else if (base == 16 && c >= 'A' && c <= 'F') digit = static_cast<std::uint64_t>(c - 'A' + 10);
    else return false;
    value = value * base + digit;
  }
  out = value;
  return true;
}

// Address fields of a listing are hexadecimal by convention (IDA prints
// them without any prefix), so parse them in base 16 regardless of prefix.
bool parse_hex_address(std::string_view text, std::uint64_t& out) noexcept {
  text = trim(text);
  if (util::starts_with(text, "0x") || util::starts_with(text, "0X")) {
    text.remove_prefix(2);
  } else if (!text.empty() && (text.back() == 'h' || text.back() == 'H')) {
    text.remove_suffix(1);
  }
  return parse_digits(text, 16, out);
}

/// Label name (lower-cased) -> address, searchable by string_view.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
using LabelMap = std::unordered_map<std::string, std::uint64_t, NameHash, std::equal_to<>>;

/// A label operand awaiting resolution (labels may be defined after use).
struct LabelRef {
  std::size_t instruction_index;
  std::size_t line;
  std::string_view name;  // original case, into the listing
  /// True when this reference may become the instruction's branch target:
  /// the instruction transfers control and no operand before it is an
  /// address. The first such reference that resolves wins.
  bool candidate;
};

/// Lower-cases `name` into the reusable `key` buffer.
std::string_view lower_key(std::string_view name, std::string& key) {
  key.assign(name);
  for (char& c : key) c = ascii_lower(c);
  return key;
}

void define_label(LabelMap& labels, std::string_view name, std::uint64_t addr,
                  std::string& key) {
  const std::string_view k = lower_key(name, key);
  const auto it = labels.find(k);
  if (it != labels.end()) {
    it->second = addr;  // a redefinition wins over earlier ones
  } else {
    labels.emplace(std::string(k), addr);
  }
}

std::string hex_address(std::uint64_t addr) {
  char buf[2 + 16];
  buf[0] = '0';
  buf[1] = 'x';
  const auto end = std::to_chars(buf + 2, buf + sizeof buf, addr, 16).ptr;
  return std::string(buf, end);
}

}  // namespace

bool parse_number(std::string_view text, std::uint64_t& out) noexcept {
  text = trim(text);
  if (text.empty()) return false;
  std::uint64_t base = 10;
  if (util::starts_with(text, "0x") || util::starts_with(text, "0X")) {
    base = 16;
    text.remove_prefix(2);
  } else if (text.back() == 'h' || text.back() == 'H') {
    base = 16;
    text.remove_suffix(1);
  }
  return parse_digits(text, base, out);
}

bool is_register_name(std::string_view name) noexcept {
  const std::uint64_t key = name_key(name);
  const auto& keys = register_keys();
  return key != 0 && std::binary_search(keys.begin(), keys.end(), key);
}

Operand parse_operand(std::string_view text) {
  Operand op;
  text = trim(text);
  // Strip assembler size/kind keywords ("jmp short loc_X", "mov eax,
  // dword ptr [ebx]", "push offset aString"), in any case. Repeat until
  // stable so stacked keywords ("dword ptr [x]") fully peel off.
  // Every keyword ends in a space, so only operands with one can carry it.
  bool stripped = text.find(' ') != std::string_view::npos;
  while (stripped) {
    stripped = false;
    for (std::string_view prefix :
         {"short ", "near ", "far ", "dword ", "qword ", "word ", "byte ",
          "ptr ", "offset "}) {
      if (starts_with_lower(text, prefix)) {
        text = trim(text.substr(prefix.size()));
        stripped = true;
      }
    }
  }
  op.text = text;
  std::uint64_t value = 0;
  if (text.empty()) {
    op.kind = OperandKind::Other;
  } else if (text.front() == '[' && text.back() == ']') {
    op.kind = OperandKind::Memory;
  } else if (is_register_name(text)) {
    op.kind = OperandKind::Register;
  } else if (is_target_label(text)) {
    op.kind = OperandKind::Target;  // address resolved later from the label map
  } else if (parse_number(text, value)) {
    op.kind = OperandKind::Immediate;
  } else {
    op.kind = OperandKind::Other;
  }
  return op;
}

ParseResult parse_listing(std::string_view text) {
  MAGIC_OBS_SPAN(parse, "extract.parse");
  ParseResult result;
  auto& insts = result.program.instructions;
  LabelMap labels;
  std::vector<LabelRef> refs;
  std::vector<std::string_view> queued_labels;  // labels awaiting the next address
  std::string key;                              // scratch for lower-cased names

  std::size_t line_no = 0;
  std::size_t cursor = 0;
  while (cursor <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', cursor), text.size());
    std::string_view line = text.substr(cursor, eol - cursor);
    cursor = eol + 1;
    ++line_no;
    if (eol == text.size() && line.empty()) break;

    // Strip comments and whitespace.
    const std::size_t semi = line.find(';');
    if (semi != std::string_view::npos) line = line.substr(0, semi);
    line = trim(line);
    if (line.empty()) continue;

    // Pure label line: "name:".
    if (line.back() == ':' && line.find(' ') == std::string_view::npos) {
      queued_labels.push_back(line.substr(0, line.size() - 1));
      continue;
    }

    // Address + mnemonic [+ operands]. IDA exports prefix the address with
    // a segment name (".text:00401000"); accept both forms.
    const std::size_t sp = find_blank(line);
    std::string_view addr_text = sp == std::string_view::npos ? line : line.substr(0, sp);
    const std::size_t seg_colon = addr_text.rfind(':');
    if (seg_colon != std::string_view::npos && seg_colon + 1 < addr_text.size()) {
      addr_text = addr_text.substr(seg_colon + 1);
    }
    std::uint64_t addr = 0;
    if (!parse_hex_address(addr_text, addr)) {
      throw std::runtime_error("parse_listing: line " + std::to_string(line_no) +
                               ": expected hex address, got '" +
                               std::string(addr_text) + "'");
    }
    for (std::string_view lbl : queued_labels) define_label(labels, lbl, addr, key);
    queued_labels.clear();

    std::string_view rest = sp == std::string_view::npos ? std::string_view{} : trim(line.substr(sp));
    // IDA puts labels on the code line ("loc_401010:"); register and strip.
    while (!rest.empty()) {
      const std::size_t tok_end = std::min(find_blank(rest), rest.size());
      const std::string_view tok = rest.substr(0, tok_end);
      if (tok.size() < 2 || tok.back() != ':') break;
      define_label(labels, tok.substr(0, tok.size() - 1), addr, key);
      rest = tok_end == rest.size() ? std::string_view{} : trim(rest.substr(tok_end));
    }
    if (rest.empty()) {
      // A bare address or a label-only line marks a location, not code.
      continue;
    }

    Instruction inst;
    inst.addr = addr;
    const std::size_t msp = find_blank(rest);
    inst.opclass = classify_mnemonic(msp == std::string_view::npos ? rest : rest.substr(0, msp));
    // On a control transfer every number is a branch/call target, read as
    // hex (address convention) even without a 0x; elsewhere it counts as a
    // numeric constant.
    const bool transfer = is_control_transfer(inst.opclass);
    if (msp != std::string_view::npos) {
      const std::string_view operands = rest.substr(msp);
      std::size_t begin = 0;
      for (std::size_t i = 0; i <= operands.size(); ++i) {
        if (i != operands.size() && operands[i] != ',') continue;
        const Operand op = parse_operand(operands.substr(begin, i - begin));
        begin = i + 1;
        if (op.kind == OperandKind::Target) {
          refs.push_back({insts.size(), line_no, op.text, transfer && !inst.target});
        } else if (op.kind == OperandKind::Immediate) {
          if (!transfer) {
            ++inst.immediates;
          } else if (!inst.target) {
            // parse_number accepted the text, so it is valid hex as well.
            std::uint64_t target = 0;
            parse_hex_address(op.text, target);
            inst.target = target;
          }
        }
      }
    }
    insts.push_back(inst);
  }

  // Resolve label targets now that all labels are known. A reference that
  // does not resolve drops out, so a later operand can still be the target.
  std::size_t claimed = Program::npos;  // instruction whose target a label set
  for (const LabelRef& ref : refs) {
    const std::string_view name = lower_key(ref.name, key);
    const auto it = labels.find(name);
    if (it == labels.end()) {
      result.diagnostics.push_back(
          {ref.line, "unresolved target label '" + std::string(name) + "'"});
    } else if (ref.candidate && claimed != ref.instruction_index) {
      insts[ref.instruction_index].target = it->second;
      claimed = ref.instruction_index;
    }
  }

  // Sort by address (only when the listing is not already in order), keep
  // the first instruction at each address, and infer sizes from gaps.
  const auto by_addr = [](const Instruction& a, const Instruction& b) { return a.addr < b.addr; };
  if (!std::is_sorted(insts.begin(), insts.end(), by_addr)) {
    std::stable_sort(insts.begin(), insts.end(), by_addr);
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    if (kept > 0 && insts[i].addr == insts[kept - 1].addr) {
      result.diagnostics.push_back(
          {0, "duplicate address " + hex_address(insts[i].addr) + "; keeping first"});
      continue;
    }
    insts[kept++] = insts[i];
  }
  insts.resize(kept);
  for (std::size_t i = 0; i < insts.size(); ++i) {
    if (i + 1 < insts.size()) {
      const std::uint64_t gap = insts[i + 1].addr - insts[i].addr;
      insts[i].size = gap > 15 ? 1u : static_cast<std::uint32_t>(gap);
      // A >15-byte gap cannot be one x86 instruction; treat as a section
      // break (size 1 so the fall-through address stays inside the gap and
      // resolves to nothing).
    } else {
      insts[i].size = 1;
    }
  }
  return result;
}

}  // namespace magic::asmx
