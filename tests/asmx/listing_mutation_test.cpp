// Seeded mutation sweep over the listing front end. Listings arrive from
// malware authors, so every mutation of a valid listing must either be
// rejected with std::runtime_error or yield an ACFG that passes validate().
// Duplicate-line floods make a superlinear pass show up as time: the sweep
// has a wall-clock budget here and a ctest TIMEOUT (tests/CMakeLists.txt).

#include <chrono>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "acfg/extractor.hpp"
#include "data/corpus.hpp"
#include "data/program_generator.hpp"
#include "util/rng.hpp"

namespace magic::asmx {
namespace {

std::size_t pick(util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// [begin, end) of the line containing `pos`, newline included.
std::pair<std::size_t, std::size_t> line_around(const std::string& s, std::size_t pos) {
  const std::size_t nl = pos == 0 ? std::string::npos : s.rfind('\n', pos - 1);
  const std::size_t begin = nl == std::string::npos ? 0 : nl + 1;
  const std::size_t end = std::min(s.find('\n', pos), s.size() - 1) + 1;
  return {begin, end};
}

enum class Mutation { ByteFlips, Truncate, Splice, DuplicateFlood, kCount };

std::string mutate(std::string s, Mutation kind, util::Rng& rng) {
  if (s.empty()) return s;
  switch (kind) {
    case Mutation::ByteFlips: {
      const auto flips = rng.uniform_int(1, 16);
      for (std::int64_t i = 0; i < flips; ++i) {
        s[pick(rng, s.size())] ^= static_cast<char>(1u << rng.uniform_int(0, 7));
      }
      break;
    }
    case Mutation::Truncate:
      s.resize(pick(rng, s.size()));
      break;
    case Mutation::Splice: {
      // Copy a stretch of one line (up to 400 bytes) into the middle of
      // another, so fields from one instruction land inside another.
      const std::size_t from = pick(rng, s.size());
      const std::size_t len = std::min<std::size_t>(s.size() - from, pick(rng, 400) + 1);
      const std::string piece = s.substr(from, len);
      s.insert(pick(rng, s.size()), piece);
      break;
    }
    case Mutation::DuplicateFlood: {
      const auto [begin, end] = line_around(s, pick(rng, s.size()));
      std::string line = s.substr(begin, end - begin);
      if (line.back() != '\n') line.push_back('\n');
      const auto copies = rng.uniform_int(1000, 20000);
      std::string flood;
      flood.reserve(line.size() * static_cast<std::size_t>(copies));
      for (std::int64_t i = 0; i < copies; ++i) flood += line;
      s.insert(begin, flood);
      break;
    }
    case Mutation::kCount:
      break;
  }
  return s;
}

TEST(ListingMutation, EveryMutantIsRejectedOrValid) {
  auto specs = data::mskcfg_family_specs();
  const auto yan = data::yancfg_family_specs();
  specs.insert(specs.end(), yan.begin(), yan.end());

  util::Rng rng(20240611);
  std::size_t rejected = 0;
  std::size_t accepted = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t f = 0; f < specs.size(); ++f) {
    data::ProgramGenerator gen(specs[f], util::Rng(300 + f));
    const std::string listing = gen.generate_listing();
    for (int m = 0; m < 12; ++m) {
      std::string mutant = listing;
      // One to three stacked mutations, kinds in rotation so every kind
      // runs on every family.
      const auto rounds = rng.uniform_int(1, 3);
      for (std::int64_t r = 0; r < rounds; ++r) {
        const auto kind = static_cast<Mutation>(
            (m + static_cast<int>(r)) % static_cast<int>(Mutation::kCount));
        mutant = mutate(std::move(mutant), kind, rng);
      }
      try {
        const acfg::Acfg a = acfg::extract_acfg_from_listing(mutant);
        EXPECT_NO_THROW(a.validate()) << specs[f].name << " mutant " << m;
        ++accepted;
      } catch (const std::runtime_error&) {
        ++rejected;  // a typed rejection is an acceptable outcome
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // Both outcomes occur, so the sweep exercises the parser's error path and
  // the full pipeline alike.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
  // 264 mutants, about a third of them with 1,000-20,000 flooded lines. On
  // a 4-core Xeon: 0.4 s in a Release build, 4 s under ASan+UBSan; with a
  // duplicate-address pass that erased one element at a time, 52 s.
  EXPECT_LT(seconds, 20.0) << rejected << " rejected, " << accepted << " accepted";
}

}  // namespace
}  // namespace magic::asmx
