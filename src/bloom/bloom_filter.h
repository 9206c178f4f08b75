// Bloom filters for filename point queries (Sections 3.3.3 and 5.1).
//
// The paper's configuration: 1024 bits and k = 7 hash functions per filter,
// with hash indices derived from the MD5 digest of the item (the 128-bit
// signature is split into four 32-bit values; further indices come from
// double hashing over those words, the standard Kirsch–Mitzenmacher
// construction). Index-unit filters are the bitwise OR of their children's
// filters, so a query can walk down the tree following positive hits.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
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

/// A bank of same-geometry Bloom filters stored bit-sliced (the layout of
/// bit-sliced signature files): row p holds bit p of every member, member
/// m at bit m of the row. A lookup computes an item's k probe positions
/// once and ANDs k rows to learn every member that may contain it, where
/// separate filters cost one probe walk per member. A row is as wide as
/// the smallest power of two covering the members, packed several to a
/// 64-bit word, or ceil(members / 64) words beyond 64 members.
///
/// Concurrency: probes take no lock and read each word with a relaxed
/// atomic load. The caller serializes the writers of one member; writers
/// of different members may run concurrently, since they can share a row
/// word and every bit change is an atomic read-modify-write of its word.
/// A writer changes only the bits it means to change, so a probe racing
/// it reads each bit before or after its change: an item whose bits are
/// set in a member both before and after a write never reads absent. The
/// geometry and the member count change only by building a new bank,
/// which must exclude every probe and writer.
class BitSlicedBank {
 public:
  BitSlicedBank() = default;
  /// A bank holding `members`: filters of one geometry, `bits` bits
  /// (rounded up to a multiple of 64, as BloomFilter rounds) and
  /// `num_hashes` probes.
  BitSlicedBank(std::size_t bits, unsigned num_hashes,
                const std::vector<BloomFilter>& members);

  std::size_t members() const { return members_; }
  std::size_t bit_count() const { return bits_; }
  unsigned num_hashes() const { return k_; }

  /// Member m's BloomFilter::insert.
  void insert(std::size_t m, const ItemHash& h);
  /// Makes member m equal `to`, given that it equals `from`: only the bits
  /// that differ between the two change. Both have the bank's geometry.
  void update(std::size_t m, const BloomFilter& from, const BloomFilter& to);

  /// Calls fn(m) for every member that may contain the item (BloomFilter::
  /// may_contain), in increasing member order.
  template <typename Fn>
  void for_each_match(const ItemHash& h, Fn&& fn) const;

  /// Member m as a plain filter (reads every row).
  BloomFilter member(std::size_t m) const;

  /// Same geometry, members and bits.
  bool operator==(const BitSlicedBank& other) const;

  std::size_t byte_size() const {
    return sizeof(*this) + words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  /// Where member m's bit of row p lives.
  struct Slot {
    std::size_t word;
    std::uint64_t mask;
  };
  Slot slot(std::size_t p, std::size_t m) const {
    return {((p >> rows_shift_) * row_words_) + (m >> 6),
            std::uint64_t{1} << ((((p & row_mask_) << width_shift_) + m) & 63)};
  }

  std::size_t members_ = 0;
  std::size_t bits_ = 0;
  unsigned k_ = 0;
  unsigned width_shift_ = 0;   ///< log2 of the row width in bits (<= 6)
  unsigned rows_shift_ = 0;    ///< log2 of the rows packed in one word
  std::size_t row_mask_ = 0;   ///< rows per word - 1
  std::size_t row_words_ = 1;  ///< words per row (1 up to 64 members)
  std::vector<std::atomic<std::uint64_t>> words_;
};

template <typename Fn>
void BitSlicedBank::for_each_match(const ItemHash& h, Fn&& fn) const {
  if (members_ == 0) return;
  for (std::size_t w = 0; w < row_words_; ++w) {
    // The members of row word w that every probed row admits.
    const std::size_t first = w * 64;
    const std::size_t n = std::min<std::size_t>(members_ - first, 64);
    std::uint64_t hits = n == 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << n) - 1;
    for (unsigned i = 0; i < k_ && hits != 0; ++i) {
      const std::size_t p = bloom_probe_index(i, h.w.data(), bits_);
      hits &= words_[(p >> rows_shift_) * row_words_ + w].load(
                  std::memory_order_relaxed) >>
              ((p & row_mask_) << width_shift_);
    }
    while (hits != 0) {
      fn(first + static_cast<std::size_t>(std::countr_zero(hits)));
      hits &= hits - 1;
    }
  }
}

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
