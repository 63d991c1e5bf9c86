// Packed mmap corpus format: bit-exact round trip, zero-copy views,
// content hashes, and the integrity discipline (bad magic / version /
// truncation / tamper must all be rejected at open, with descriptive
// errors, never by serving garbage).

#include <sys/resource.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/acfg_hash.hpp"
#include "data/corpus_file.hpp"
#include "data/dataset.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace magic::data {
namespace {

class CorpusFileTest : public ::testing::Test {
 protected:
  std::string temp_path() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string path = ::testing::TempDir() + "corpus_file_" + info->name() +
                       "_" + std::to_string(paths_.size()) + ".mgc";
    paths_.push_back(path);
    return path;
  }
  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }
  std::vector<std::string> paths_;
};

/// Small deterministic labelled corpus with irregular shapes: empty edge
/// lists, self loops, duplicate edges, non-ASCII-ish ids and negative /
/// fractional attributes, so the round trip is exercised beyond the happy
/// path.
Dataset make_corpus(std::size_t samples = 7, std::size_t channels = 5) {
  util::Rng rng(4242);
  Dataset out;
  out.family_names = {"Benign", "Hupigon", "Swizzor"};
  for (std::size_t s = 0; s < samples; ++s) {
    acfg::Acfg g;
    const std::size_t n = 1 + (s * 3) % 9;
    std::vector<double> attrs(n * channels);
    for (double& a : attrs) a = rng.normal() * 1e3;
    attrs[0] = -0.0;  // signed zero must survive bit-exactly
    g.attributes = tensor::Tensor({n, channels}, std::move(attrs));
    g.out_edges.resize(n);
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = 0; v < n; ++v) {
        if (rng.bernoulli(0.3)) g.out_edges[u].push_back(v);
      }
    }
    if (n > 1) g.out_edges[0].push_back(0);  // self loop
    g.label = static_cast<int>(s % out.family_names.size());
    g.id = "sample-" + std::to_string(s) + "_x";
    out.samples.push_back(std::move(g));
  }
  return out;
}

TEST_F(CorpusFileTest, RoundTripIsBitExact) {
  const Dataset original = make_corpus();
  const std::string path = temp_path();
  pack_corpus(original, path);

  const Dataset loaded = load_packed_corpus(path);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.family_names, original.family_names);
  for (std::size_t i = 0; i < original.size(); ++i) {
    const acfg::Acfg& a = original.samples[i];
    const acfg::Acfg& b = loaded.samples[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.out_edges, b.out_edges);
    ASSERT_EQ(a.attributes.shape(), b.attributes.shape());
    // Bit-exact, not allclose: the format stores raw double bit patterns.
    const auto& av = a.attributes.storage();
    const auto& bv = b.attributes.storage();
    for (std::size_t j = 0; j < av.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(av[j]),
                std::bit_cast<std::uint64_t>(bv[j]))
          << "sample " << i << " attr " << j;
    }
  }
}

TEST_F(CorpusFileTest, ViewsAreZeroCopyAndConsistent) {
  const Dataset original = make_corpus();
  const std::string path = temp_path();
  pack_corpus(original, path);

  PackedCorpus corpus(path);
  EXPECT_EQ(corpus.size(), original.size());
  EXPECT_EQ(corpus.channels(), 5u);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const PackedCorpus::SampleView v = corpus.view(i);
    const acfg::Acfg& a = original.samples[i];
    EXPECT_EQ(v.vertices, a.num_vertices());
    EXPECT_EQ(v.edges, a.num_edges());
    EXPECT_EQ(v.label, a.label);
    EXPECT_EQ(v.id, a.id);
    ASSERT_EQ(v.row_ptr.size(), v.vertices + 1);
    EXPECT_EQ(v.row_ptr.front(), 0u);
    EXPECT_EQ(v.row_ptr.back(), v.edges);
    EXPECT_EQ(v.col_idx.size(), v.edges);
    EXPECT_EQ(v.attributes.size(), v.vertices * corpus.channels());
    // The stored content hash matches a fresh hash of the materialized
    // sample — the scan queue relies on this to hit the verdict cache
    // without rehashing.
    EXPECT_EQ(v.content_hash, cache::acfg_content_hash(a));
    EXPECT_EQ(v.content_hash, cache::acfg_content_hash(corpus.materialize(i)));
  }
  EXPECT_THROW(corpus.view(corpus.size()), std::out_of_range);
}

TEST_F(CorpusFileTest, EmptyCorpusRoundTrips) {
  Dataset empty;
  empty.family_names = {"OnlyFamily"};
  const std::string path = temp_path();
  pack_corpus(empty, path);
  const PackedCorpus corpus(path);
  EXPECT_EQ(corpus.size(), 0u);
  EXPECT_EQ(corpus.family_names(), std::vector<std::string>{"OnlyFamily"});
  EXPECT_EQ(corpus.to_dataset().size(), 0u);
}

TEST_F(CorpusFileTest, RejectsBadMagic) {
  const std::string path = temp_path();
  pack_corpus(make_corpus(), path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("NOTMAGIC", 8);
  }
  EXPECT_THROW(
      {
        try {
          PackedCorpus corpus(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(CorpusFileTest, RejectsUnsupportedVersion) {
  const std::string path = temp_path();
  pack_corpus(make_corpus(), path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);  // version field is the first u64 after the magic
    const std::uint64_t bogus = 999;
    f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  EXPECT_THROW(
      {
        try {
          PackedCorpus corpus(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(CorpusFileTest, RejectsTruncation) {
  const std::string path = temp_path();
  pack_corpus(make_corpus(), path);
  std::uintmax_t size;
  {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    size = static_cast<std::uintmax_t>(f.tellg());
  }
  // Chop the last 100 bytes: file_size in the header no longer matches.
  std::string contents;
  {
    std::ifstream f(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(f), {});
  }
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(contents.data(), static_cast<std::streamsize>(size - 100));
  }
  EXPECT_THROW(
      {
        try {
          PackedCorpus corpus(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("size mismatch"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(CorpusFileTest, RejectsTamperedPayload) {
  const std::string path = temp_path();
  pack_corpus(make_corpus(), path);
  {
    // Flip one bit deep inside the payload; the file size stays right, so
    // only the payload hash can catch it.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekg(size / 2);
    char byte;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }
  EXPECT_THROW(
      {
        try {
          PackedCorpus corpus(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("payload hash"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(CorpusFileTest, RejectsFileSmallerThanHeader) {
  const std::string path = temp_path();
  {
    std::ofstream f(path, std::ios::binary);
    f << "MGCCORP\ntiny";
  }
  EXPECT_THROW(PackedCorpus{path}, std::runtime_error);
}

TEST_F(CorpusFileTest, RejectsMissingFile) {
  EXPECT_THROW(PackedCorpus{"/nonexistent/nope.mgc"}, std::runtime_error);
}

/// Peak resident set size of this process so far, in KiB (Linux ru_maxrss).
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// The header's counts lie outside the payload hash, so a one-word edit of a
// valid file passes every integrity check before them. Each count must be
// checked against the bytes its table can hold before anything is sized
// from it; sized unchecked, 2^40 families or samples asks the allocator
// for tens of TiB.
TEST_F(CorpusFileTest, HugeHeaderCountsThrowWithoutAllocating) {
  const std::string valid = temp_path();
  pack_corpus(make_corpus(), valid);
  std::string contents;
  {
    std::ifstream f(valid, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(f), {});
  }
  // Offsets after the 8-byte magic: version, endian tag, file size,
  // num_samples, num_families.
  const std::vector<std::pair<std::string, std::size_t>> cases = {
      {"family count", 8 + 4 * 8}, {"sample count", 8 + 3 * 8}};
  const long before = peak_rss_kib();
  for (const auto& [what, offset] : cases) {
    std::string edited = contents;
    const std::uint64_t huge = std::uint64_t{1} << 40;
    std::memcpy(edited.data() + offset, &huge, sizeof(huge));
    const std::string path = temp_path();
    {
      std::ofstream f(path, std::ios::binary);
      f.write(edited.data(), static_cast<std::streamsize>(edited.size()));
    }
    try {
      PackedCorpus corpus(path);
      ADD_FAILURE() << what << ": expected rejection";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  }
  // 64 MiB: far above what opening a few-KiB corpus needs, far below any
  // allocation sized by one of the counts above.
  EXPECT_LT(peak_rss_kib() - before, 64L * 1024) << "peak RSS grew while loading";
}

TEST_F(CorpusFileTest, PackRejectsMixedChannelWidths) {
  Dataset corpus = make_corpus(2, 4);
  corpus.samples[1].attributes =
      tensor::Tensor({corpus.samples[1].num_vertices(), std::size_t{6}});
  EXPECT_THROW(pack_corpus(corpus, temp_path()), std::invalid_argument);
}

TEST_F(CorpusFileTest, MoveTransfersOwnership) {
  const std::string path = temp_path();
  const Dataset original = make_corpus();
  pack_corpus(original, path);
  PackedCorpus first(path);
  PackedCorpus second(std::move(first));
  EXPECT_EQ(second.size(), original.size());
  const PackedCorpus::SampleView v = second.view(0);
  EXPECT_EQ(v.id, original.samples[0].id);
}

}  // namespace
}  // namespace magic::data
