// Bloom filters for filename point queries (Sections 3.3.3 and 5.1).
//
// The paper's configuration: 1024 bits and k = 7 hash functions per filter,
// with hash indices derived from the MD5 digest of the item (the 128-bit
// signature is split into four 32-bit values; further indices come from
// double hashing over those words, the standard Kirsch–Mitzenmacher
// construction). Index-unit filters are the bitwise OR of their children's
// filters, so a query can walk down the tree following positive hits.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstddef>
#include <string_view>
#include <vector>

namespace smartstore::bloom {

/// Derives the i-th Bloom probe index for an item whose MD5 digest words are
/// w, over a filter of `bits` bits. Probes 0..3 use the raw 32-bit digest
/// words (the paper's construction); higher probes extend via double
/// hashing. Shared by BloomFilter and CountingBloomFilter so both address
/// identical bit positions.
std::size_t bloom_probe_index(unsigned i, const std::uint32_t w[4],
                              std::size_t bits);

/// An item's MD5 digest words, computed once and reusable across every
/// filter the item touches. An insert propagating up the semantic R-tree
/// hits one filter per ancestor — and, under multi-writer serving, each of
/// those under a contended stripe lock — so hashing outside the lock and
/// passing the digest in keeps the critical sections to pure bit-sets.
struct ItemHash {
  std::array<std::uint32_t, 4> w{};

  bool operator==(const ItemHash&) const = default;
};

ItemHash hash_item(std::string_view item);

class BloomFilter {
 public:
  /// Default geometry: the paper's 1024 bits, k = 7.
  BloomFilter() : BloomFilter(1024, 7) {}

  /// `bits` is rounded up to a multiple of 64; `num_hashes` = k.
  explicit BloomFilter(std::size_t bits, unsigned num_hashes = 7);

  /// Rebuilds a filter from raw 64-bit words (used when collapsing a
  /// counting filter for replication). words.size()*64 must equal the
  /// rounded bit count.
  static BloomFilter from_words(std::size_t bits, unsigned num_hashes,
                                std::vector<std::uint64_t> words);

  void insert(std::string_view item);
  void insert(const ItemHash& h);

  /// True if the item may be present; false means definitely absent
  /// (modulo staleness when filters are replicated).
  bool may_contain(std::string_view item) const;
  bool may_contain(const ItemHash& h) const;

  /// Bitwise OR of another filter into this one. Geometry must match.
  void merge(const BloomFilter& other);

  /// All-zero state.
  void clear();

  std::size_t bit_count() const { return bits_; }
  unsigned num_hashes() const { return k_; }
  /// Number of set bits.
  std::size_t popcount() const;
  /// Fraction of set bits (the fill ratio determining false positives).
  double fill_ratio() const;
  /// Expected false-positive probability given the current fill ratio.
  double estimated_fpp() const;
  /// Raw backing words, for serialization; reassemble via from_words so
  /// the geometry stays validated.
  const std::vector<std::uint64_t>& words() const { return words_; }
  std::size_t byte_size() const {
    return sizeof(*this) + words_.capacity() * sizeof(std::uint64_t);
  }

  bool operator==(const BloomFilter&) const = default;

 private:
  std::size_t bits_;
  unsigned k_;
  std::vector<std::uint64_t> words_;
};

/// A plain Bloom filter that probes may read while one writer at a time
/// (serialized by the caller) inserts into it or overwrites it: probes
/// read every word with a relaxed atomic load, and the writer stores only
/// the words it changes. A probe racing a write sees each word either
/// before or after it, so an item whose bits are set both before and
/// after the write is never reported absent. The geometry changes only
/// when assign() is given a filter of another geometry, or by copying;
/// both need the caller to exclude every probe.
class AtomicBloomFilter {
 public:
  /// The default geometry, all bits clear.
  AtomicBloomFilter() { assign(BloomFilter()); }
  AtomicBloomFilter(const AtomicBloomFilter& other);
  AtomicBloomFilter& operator=(const AtomicBloomFilter& other);

  /// Makes the contents equal `f`'s, storing only the words that differ.
  void assign(const BloomFilter& f);
  void insert(const ItemHash& h);
  bool may_contain(const ItemHash& h) const;

 private:
  std::size_t bits_ = 0;
  unsigned k_ = 0;
  std::vector<std::atomic<std::uint64_t>> words_;
};

/// Counting Bloom filter: supports deletion and exports a plain BloomFilter
/// view for replication up the tree. 4-bit saturating counters packed two
/// per byte, as in the standard summary-cache design. Saturated counters
/// are sticky (never decremented), which preserves the no-false-negative
/// property under deletion.
class CountingBloomFilter {
 public:
  explicit CountingBloomFilter(std::size_t bits = 1024,
                               unsigned num_hashes = 7);

  void insert(std::string_view item);
  void insert(const ItemHash& h);
  void remove(std::string_view item);
  void remove(const ItemHash& h);
  bool may_contain(std::string_view item) const;
  bool may_contain(const ItemHash& h) const;

  /// Collapses counters to a plain bit filter (counter > 0 -> bit set).
  BloomFilter to_bloom_filter() const;

  std::size_t bit_count() const { return bits_; }
  unsigned num_hashes() const { return k_; }
  std::size_t byte_size() const { return sizeof(*this) + counters_.capacity(); }

 private:
  std::uint8_t get_counter(std::size_t idx) const;
  void set_counter(std::size_t idx, std::uint8_t v);

  std::size_t bits_;
  unsigned k_;
  std::vector<std::uint8_t> counters_;  // two 4-bit counters per byte
};

}  // namespace smartstore::bloom
