#include "data/corpus_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace magic::data {
namespace {

constexpr char kMagic[8] = {'M', 'G', 'C', 'C', 'O', 'R', 'P', '\n'};
constexpr std::uint64_t kVersion = 1;
// Written natively; reads back as this value only on a same-endian host.
constexpr std::uint64_t kEndianTag = 0x0102030405060708ull;

// 88 bytes: 8 magic + 10 u64 fields. Kept as explicit offsets (not a packed
// struct) so the layout is the spec, not whatever the ABI decides.
constexpr std::size_t kHeaderBytes = 88;

struct Header {
  std::uint64_t version = 0;
  std::uint64_t endian_tag = 0;
  std::uint64_t file_size = 0;
  std::uint64_t num_samples = 0;
  std::uint64_t num_families = 0;
  std::uint64_t channels = 0;
  std::uint64_t family_table_offset = 0;
  std::uint64_t sample_table_offset = 0;
  std::uint64_t payload_hash_hi = 0;
  std::uint64_t payload_hash_lo = 0;
};

std::size_t pad8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("packed corpus '" + path + "': " + what);
}

/// Append-only little buffer builder with alignment helpers.
struct Builder {
  std::vector<unsigned char> bytes;

  void put_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    bytes.insert(bytes.end(), b, b + n);
  }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof(v)); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof(v)); }
  void align8() { bytes.resize(pad8(bytes.size()), 0); }
};

/// Reader over the mapping with hard bounds checks; every read that would
/// cross `size` throws instead of touching the page.
struct Reader {
  const unsigned char* base;
  std::size_t size;
  const std::string& path;

  void require(std::size_t offset, std::size_t n) const {
    if (offset > size || n > size - offset) {
      fail(path, "out-of-bounds read at offset " + std::to_string(offset) +
                     " (+" + std::to_string(n) + " of " +
                     std::to_string(size) + " bytes)");
    }
  }
  std::uint64_t u64(std::size_t offset) const {
    require(offset, 8);
    std::uint64_t v;
    std::memcpy(&v, base + offset, 8);
    return v;
  }
  std::int64_t i64(std::size_t offset) const {
    return static_cast<std::int64_t>(u64(offset));
  }
};

}  // namespace

void pack_corpus(const Dataset& dataset, const std::string& path) {
  // Channel width must be corpus-wide uniform: the header records it once
  // and the model consumes it as a single input width.
  std::size_t channels = 0;
  for (const auto& sample : dataset.samples) {
    const std::size_t c = sample.num_channels();
    if (channels == 0) channels = c;
    if (c != channels && sample.num_vertices() > 0) {
      throw std::invalid_argument(
          "pack_corpus: mixed channel widths (" + std::to_string(channels) +
          " vs " + std::to_string(c) + " in sample '" + sample.id + "')");
    }
  }

  Builder out;
  out.bytes.resize(kHeaderBytes, 0);  // header back-patched at the end

  const std::size_t family_table_offset = out.bytes.size();
  for (const auto& name : dataset.family_names) {
    out.put_u64(name.size());
    out.put_raw(name.data(), name.size());
  }
  out.align8();

  const std::size_t sample_table_offset = out.bytes.size();
  const std::size_t table_entry_base = out.bytes.size();
  out.bytes.resize(out.bytes.size() + dataset.samples.size() * 16, 0);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> table;
  table.reserve(dataset.samples.size());
  for (const auto& sample : dataset.samples) {
    sample.validate();
    const std::size_t n = sample.num_vertices();
    const std::size_t m = sample.num_edges();
    if (n >= std::numeric_limits<std::uint32_t>::max() ||
        m > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("pack_corpus: sample '" + sample.id +
                                  "' exceeds u32 CSR limits");
    }
    const std::size_t record_start = out.bytes.size();
    out.put_u64(n);
    out.put_u64(m);
    out.put_i64(sample.label);
    out.put_u64(sample.id.size());
    const cache::CacheKey hash = cache::acfg_content_hash(sample);
    out.put_u64(hash.hi);
    out.put_u64(hash.lo);
    out.put_raw(sample.id.data(), sample.id.size());
    out.align8();
    std::vector<std::uint32_t> row_ptr(n + 1, 0);
    std::vector<std::uint32_t> col_idx;
    col_idx.reserve(m);
    for (std::size_t u = 0; u < n; ++u) {
      row_ptr[u] = static_cast<std::uint32_t>(col_idx.size());
      for (const std::size_t v : sample.out_edges[u]) {
        col_idx.push_back(static_cast<std::uint32_t>(v));
      }
    }
    row_ptr[n] = static_cast<std::uint32_t>(col_idx.size());
    out.put_raw(row_ptr.data(), row_ptr.size() * 4);
    out.align8();
    out.put_raw(col_idx.data(), col_idx.size() * 4);
    out.align8();
    out.put_raw(sample.attributes.data(), n * channels * sizeof(double));
    table.emplace_back(record_start, out.bytes.size() - record_start);
  }

  for (std::size_t i = 0; i < table.size(); ++i) {
    std::memcpy(out.bytes.data() + table_entry_base + i * 16, &table[i].first, 8);
    std::memcpy(out.bytes.data() + table_entry_base + i * 16 + 8,
                &table[i].second, 8);
  }

  // Back-patch the header now that the payload is final. The payload hash
  // covers everything after the header, so any flipped bit anywhere in the
  // tables or records changes it.
  const cache::CacheKey payload_hash = cache::bytes_content_hash(
      out.bytes.data() + kHeaderBytes, out.bytes.size() - kHeaderBytes);
  Header h;
  h.version = kVersion;
  h.endian_tag = kEndianTag;
  h.file_size = out.bytes.size();
  h.num_samples = dataset.samples.size();
  h.num_families = dataset.family_names.size();
  h.channels = channels;
  h.family_table_offset = family_table_offset;
  h.sample_table_offset = sample_table_offset;
  h.payload_hash_hi = payload_hash.hi;
  h.payload_hash_lo = payload_hash.lo;
  std::memcpy(out.bytes.data(), kMagic, 8);
  std::memcpy(out.bytes.data() + 8, &h, sizeof(Header));
  static_assert(sizeof(Header) == kHeaderBytes - 8);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) fail(path, "cannot open for writing");
  const std::size_t written = std::fwrite(out.bytes.data(), 1, out.bytes.size(), f);
  const bool flush_ok = std::fclose(f) == 0;
  if (written != out.bytes.size() || !flush_ok) fail(path, "short write");
}

PackedCorpus::PackedCorpus(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail(path, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(path, "cannot stat");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    fail(path, "truncated: smaller than the header");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) fail(path, "mmap failed");
  map_ = map;
  map_size_ = size;

  // From here on any validation failure must unmap before throwing.
  try {
    const Reader r{base(), map_size_, path};
    if (std::memcmp(base(), kMagic, 8) != 0) fail(path, "bad magic");
    Header h;
    std::memcpy(&h, base() + 8, sizeof(Header));
    if (h.version != kVersion) {
      fail(path, "unsupported version " + std::to_string(h.version));
    }
    if (h.endian_tag != kEndianTag) fail(path, "foreign endianness");
    if (h.file_size != map_size_) {
      fail(path, "size mismatch: header says " + std::to_string(h.file_size) +
                     ", file is " + std::to_string(map_size_) +
                     " bytes (truncated or appended-to)");
    }
    const cache::CacheKey actual = cache::bytes_content_hash(
        base() + kHeaderBytes, map_size_ - kHeaderBytes);
    if (actual.hi != h.payload_hash_hi || actual.lo != h.payload_hash_lo) {
      fail(path, "payload hash mismatch (tampered or corrupt)");
    }

    // The counts sit in the header, outside the payload hash, so an edited
    // count passes the hash check. Each must fit the bytes after its table
    // offset (8 per family name length, 16 per sample table entry) before
    // anything is sized from it.
    auto require_table = [&](const char* what, std::uint64_t count,
                             std::uint64_t offset, std::uint64_t entry_bytes) {
      if (offset > map_size_ || count > (map_size_ - offset) / entry_bytes) {
        fail(path, std::string(what) + " count " + std::to_string(count) +
                       " does not fit the " + std::to_string(map_size_) +
                       "-byte file");
      }
    };
    require_table("family", h.num_families, h.family_table_offset, 8);
    require_table("sample", h.num_samples, h.sample_table_offset, 16);

    channels_ = h.channels;
    sample_count_ = h.num_samples;

    std::size_t cursor = h.family_table_offset;
    family_names_.reserve(h.num_families);
    for (std::uint64_t i = 0; i < h.num_families; ++i) {
      const std::uint64_t len = r.u64(cursor);
      cursor += 8;
      r.require(cursor, len);
      family_names_.emplace_back(reinterpret_cast<const char*>(base() + cursor),
                                 len);
      cursor += len;
    }

    records_.reserve(sample_count_);
    for (std::uint64_t i = 0; i < h.num_samples; ++i) {
      const std::size_t entry = h.sample_table_offset + i * 16;
      const std::uint64_t offset = r.u64(entry);
      const std::uint64_t length = r.u64(entry + 8);
      r.require(offset, length);
      if (offset % 8 != 0) {
        fail(path, "misaligned record " + std::to_string(i));
      }
      // Validate the record's internal extents once, here, so view() can be
      // pure arithmetic.
      const std::uint64_t n = r.u64(offset);
      const std::uint64_t m = r.u64(offset + 8);
      const std::uint64_t id_len = r.u64(offset + 24);
      const std::size_t need = 48 + pad8(id_len) + pad8((n + 1) * 4) +
                               pad8(m * 4) + n * channels_ * sizeof(double);
      if (length < need) {
        fail(path, "record " + std::to_string(i) + " shorter than its contents");
      }
      records_.emplace_back(offset, length);
    }
  } catch (...) {
    ::munmap(map_, map_size_);
    map_ = nullptr;
    map_size_ = 0;
    throw;
  }
}

PackedCorpus::~PackedCorpus() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

PackedCorpus::PackedCorpus(PackedCorpus&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      sample_count_(std::exchange(other.sample_count_, 0)),
      channels_(std::exchange(other.channels_, 0)),
      family_names_(std::move(other.family_names_)),
      records_(std::move(other.records_)) {}

PackedCorpus& PackedCorpus::operator=(PackedCorpus&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_size_);
    map_ = std::exchange(other.map_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
    sample_count_ = std::exchange(other.sample_count_, 0);
    channels_ = std::exchange(other.channels_, 0);
    family_names_ = std::move(other.family_names_);
    records_ = std::move(other.records_);
  }
  return *this;
}

PackedCorpus::SampleView PackedCorpus::view(std::size_t i) const {
  if (i >= records_.size()) {
    throw std::out_of_range("PackedCorpus::view: index " + std::to_string(i) +
                            " of " + std::to_string(records_.size()));
  }
  const unsigned char* p = base() + records_[i].first;
  auto u64_at = [&](std::size_t off) {
    std::uint64_t v;
    std::memcpy(&v, p + off, 8);
    return v;
  };
  SampleView v;
  v.vertices = u64_at(0);
  v.edges = u64_at(8);
  v.label = static_cast<int>(static_cast<std::int64_t>(u64_at(16)));
  const std::uint64_t id_len = u64_at(24);
  v.content_hash = cache::CacheKey{u64_at(32), u64_at(40)};
  std::size_t off = 48;
  v.id = std::string_view(reinterpret_cast<const char*>(p + off), id_len);
  off += pad8(id_len);
  // CSR arrays are 8-aligned within an 8-aligned record, so reinterpreting
  // as u32/double is well-aligned.
  v.row_ptr = std::span<const std::uint32_t>(
      reinterpret_cast<const std::uint32_t*>(p + off), v.vertices + 1);
  off += pad8((v.vertices + 1) * 4);
  v.col_idx = std::span<const std::uint32_t>(
      reinterpret_cast<const std::uint32_t*>(p + off), v.edges);
  off += pad8(v.edges * 4);
  v.attributes = std::span<const double>(
      reinterpret_cast<const double*>(p + off), v.vertices * channels_);
  return v;
}

acfg::Acfg PackedCorpus::materialize(std::size_t i) const {
  const SampleView v = view(i);
  acfg::Acfg out;
  out.label = v.label;
  out.id = std::string(v.id);
  out.attributes = tensor::Tensor(
      {v.vertices, channels_},
      tensor::AlignedVector(v.attributes.begin(), v.attributes.end()));
  out.out_edges.resize(v.vertices);
  for (std::size_t u = 0; u < v.vertices; ++u) {
    const std::uint32_t begin = v.row_ptr[u];
    const std::uint32_t end = v.row_ptr[u + 1];
    out.out_edges[u].reserve(end - begin);
    for (std::uint32_t e = begin; e < end; ++e) {
      out.out_edges[u].push_back(v.col_idx[e]);
    }
  }
  out.validate();
  return out;
}

Dataset PackedCorpus::to_dataset() const {
  Dataset out;
  out.family_names = family_names_;
  out.samples.reserve(sample_count_);
  for (std::size_t i = 0; i < sample_count_; ++i) {
    out.samples.push_back(materialize(i));
  }
  return out;
}

Dataset load_packed_corpus(const std::string& path) {
  return PackedCorpus(path).to_dataset();
}

}  // namespace magic::data
