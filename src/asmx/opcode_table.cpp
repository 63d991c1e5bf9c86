#include "asmx/opcode_table.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "asmx/name_key.hpp"

namespace magic::asmx {
namespace {

// The mnemonic table; classify_mnemonic() searches it by name_key.
constexpr std::pair<std::string_view, OpcodeClass> kMnemonics[] = {
    // Conditional jumps.
    {"jz", OpcodeClass::ConditionalJump},   {"jnz", OpcodeClass::ConditionalJump},
    {"je", OpcodeClass::ConditionalJump},   {"jne", OpcodeClass::ConditionalJump},
    {"ja", OpcodeClass::ConditionalJump},   {"jae", OpcodeClass::ConditionalJump},
    {"jb", OpcodeClass::ConditionalJump},   {"jbe", OpcodeClass::ConditionalJump},
    {"jg", OpcodeClass::ConditionalJump},   {"jge", OpcodeClass::ConditionalJump},
    {"jl", OpcodeClass::ConditionalJump},   {"jle", OpcodeClass::ConditionalJump},
    {"jo", OpcodeClass::ConditionalJump},   {"jno", OpcodeClass::ConditionalJump},
    {"js", OpcodeClass::ConditionalJump},   {"jns", OpcodeClass::ConditionalJump},
    {"jc", OpcodeClass::ConditionalJump},   {"jnc", OpcodeClass::ConditionalJump},
    {"jp", OpcodeClass::ConditionalJump},   {"jnp", OpcodeClass::ConditionalJump},
    {"jcxz", OpcodeClass::ConditionalJump}, {"jecxz", OpcodeClass::ConditionalJump},
    {"loop", OpcodeClass::ConditionalJump}, {"loope", OpcodeClass::ConditionalJump},
    {"loopne", OpcodeClass::ConditionalJump},
    // Unconditional jumps.
    {"jmp", OpcodeClass::UnconditionalJump},
    // Calls.
    {"call", OpcodeClass::Call},
    // Returns.
    {"ret", OpcodeClass::Return}, {"retn", OpcodeClass::Return},
    {"retf", OpcodeClass::Return}, {"iret", OpcodeClass::Return},
    // Arithmetic / logic.
    {"add", OpcodeClass::Arithmetic},  {"sub", OpcodeClass::Arithmetic},
    {"mul", OpcodeClass::Arithmetic},  {"imul", OpcodeClass::Arithmetic},
    {"div", OpcodeClass::Arithmetic},  {"idiv", OpcodeClass::Arithmetic},
    {"inc", OpcodeClass::Arithmetic},  {"dec", OpcodeClass::Arithmetic},
    {"neg", OpcodeClass::Arithmetic},  {"adc", OpcodeClass::Arithmetic},
    {"sbb", OpcodeClass::Arithmetic},  {"shl", OpcodeClass::Arithmetic},
    {"shr", OpcodeClass::Arithmetic},  {"sal", OpcodeClass::Arithmetic},
    {"sar", OpcodeClass::Arithmetic},  {"rol", OpcodeClass::Arithmetic},
    {"ror", OpcodeClass::Arithmetic},  {"rcl", OpcodeClass::Arithmetic},
    {"rcr", OpcodeClass::Arithmetic},  {"and", OpcodeClass::Arithmetic},
    {"or", OpcodeClass::Arithmetic},   {"xor", OpcodeClass::Arithmetic},
    {"not", OpcodeClass::Arithmetic},  {"lea", OpcodeClass::Arithmetic},
    {"bt", OpcodeClass::Arithmetic},   {"bts", OpcodeClass::Arithmetic},
    {"btr", OpcodeClass::Arithmetic},  {"bswap", OpcodeClass::Arithmetic},
    // Compare.
    {"cmp", OpcodeClass::Compare}, {"test", OpcodeClass::Compare},
    {"cmps", OpcodeClass::Compare}, {"cmpsb", OpcodeClass::Compare},
    {"cmpxchg", OpcodeClass::Compare},
    // Data movement.
    {"mov", OpcodeClass::Mov},    {"movzx", OpcodeClass::Mov},
    {"movsx", OpcodeClass::Mov},  {"movs", OpcodeClass::Mov},
    {"movsb", OpcodeClass::Mov},  {"movsd", OpcodeClass::Mov},
    {"xchg", OpcodeClass::Mov},   {"push", OpcodeClass::Mov},
    {"pop", OpcodeClass::Mov},    {"pusha", OpcodeClass::Mov},
    {"popa", OpcodeClass::Mov},   {"pushf", OpcodeClass::Mov},
    {"popf", OpcodeClass::Mov},   {"lods", OpcodeClass::Mov},
    {"lodsb", OpcodeClass::Mov},  {"stos", OpcodeClass::Mov},
    {"stosb", OpcodeClass::Mov},  {"leave", OpcodeClass::Mov},
    {"cdq", OpcodeClass::Mov},    {"cbw", OpcodeClass::Mov},
    {"cwde", OpcodeClass::Mov},   {"setz", OpcodeClass::Mov},
    {"setnz", OpcodeClass::Mov},  {"cmovz", OpcodeClass::Mov},
    {"cmovnz", OpcodeClass::Mov},
    // Non-return terminators.
    {"hlt", OpcodeClass::Termination}, {"ud2", OpcodeClass::Termination},
    {"int3", OpcodeClass::Termination},
    // Data declaration pseudo-instructions (IDA-style listings).
    {"db", OpcodeClass::DataDecl}, {"dw", OpcodeClass::DataDecl},
    {"dd", OpcodeClass::DataDecl}, {"dq", OpcodeClass::DataDecl},
    {"dt", OpcodeClass::DataDecl}, {"align", OpcodeClass::DataDecl},
};

struct KeyedClass {
  std::uint64_t key;
  OpcodeClass opclass;
};

/// kMnemonics keyed and sorted for binary search.
const std::vector<KeyedClass>& keyed_table() {
  static const std::vector<KeyedClass> t = [] {
    std::vector<KeyedClass> keyed;
    for (const auto& [name, opclass] : kMnemonics) keyed.push_back({name_key(name), opclass});
    std::sort(keyed.begin(), keyed.end(),
              [](const KeyedClass& a, const KeyedClass& b) { return a.key < b.key; });
    return keyed;
  }();
  return t;
}

}  // namespace

OpcodeClass classify_mnemonic(std::string_view mnemonic) noexcept {
  const std::uint64_t key = name_key(mnemonic);
  const auto& t = keyed_table();
  const auto it = std::lower_bound(
      t.begin(), t.end(), key, [](const KeyedClass& e, std::uint64_t k) { return e.key < k; });
  return it != t.end() && it->key == key ? it->opclass : OpcodeClass::Other;
}

bool is_control_transfer(OpcodeClass c) noexcept {
  return c == OpcodeClass::ConditionalJump || c == OpcodeClass::UnconditionalJump ||
         c == OpcodeClass::Call || c == OpcodeClass::Return ||
         c == OpcodeClass::Termination;
}

bool falls_through(OpcodeClass c) noexcept {
  return c != OpcodeClass::UnconditionalJump && c != OpcodeClass::Return &&
         c != OpcodeClass::Termination;
}

bool counts_as_transfer(OpcodeClass c) noexcept {
  return c == OpcodeClass::ConditionalJump || c == OpcodeClass::UnconditionalJump;
}
bool counts_as_call(OpcodeClass c) noexcept { return c == OpcodeClass::Call; }
bool counts_as_arithmetic(OpcodeClass c) noexcept { return c == OpcodeClass::Arithmetic; }
bool counts_as_compare(OpcodeClass c) noexcept { return c == OpcodeClass::Compare; }
bool counts_as_mov(OpcodeClass c) noexcept { return c == OpcodeClass::Mov; }
bool counts_as_termination(OpcodeClass c) noexcept {
  return c == OpcodeClass::Return || c == OpcodeClass::Termination;
}
bool counts_as_data_decl(OpcodeClass c) noexcept { return c == OpcodeClass::DataDecl; }

}  // namespace magic::asmx
