#include "bloom/bloom_filter.h"

#include <bit>
#include <cassert>
#include <cmath>

#include "bloom/md5.h"

namespace smartstore::bloom {

std::size_t bloom_probe_index(unsigned i, const std::uint32_t w[4],
                              std::size_t bits) {
  std::uint64_t h;
  switch (i) {
    case 0: h = w[0]; break;
    case 1: h = w[1]; break;
    case 2: h = w[2]; break;
    case 3: h = w[3]; break;
    default: {
      const std::uint64_t ii = i;
      h = static_cast<std::uint64_t>(w[0]) + ii * w[1] + ii * ii * w[2] +
          (ii << 16) * w[3];
      break;
    }
  }
  return static_cast<std::size_t>(h % bits);
}

BloomFilter::BloomFilter(std::size_t bits, unsigned num_hashes)
    : bits_((bits + 63) / 64 * 64), k_(num_hashes), words_(bits_ / 64, 0) {
  assert(bits > 0 && num_hashes > 0);
}

BloomFilter BloomFilter::from_words(std::size_t bits, unsigned num_hashes,
                                    std::vector<std::uint64_t> words) {
  BloomFilter bf(bits, num_hashes);
  assert(words.size() == bf.words_.size());
  bf.words_ = std::move(words);
  return bf;
}

ItemHash hash_item(std::string_view item) { return {md5(item).words()}; }

void BloomFilter::insert(std::string_view item) { insert(hash_item(item)); }

void BloomFilter::insert(const ItemHash& h) {
  for (unsigned i = 0; i < k_; ++i) {
    const std::size_t idx = bloom_probe_index(i, h.w.data(), bits_);
    words_[idx / 64] |= (1ULL << (idx % 64));
  }
}

bool BloomFilter::may_contain(std::string_view item) const {
  return may_contain(hash_item(item));
}

bool BloomFilter::may_contain(const ItemHash& h) const {
  for (unsigned i = 0; i < k_; ++i) {
    const std::size_t idx = bloom_probe_index(i, h.w.data(), bits_);
    if ((words_[idx / 64] & (1ULL << (idx % 64))) == 0) return false;
  }
  return true;
}

void BloomFilter::merge(const BloomFilter& other) {
  assert(bits_ == other.bits_ && k_ == other.k_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void BloomFilter::clear() {
  for (auto& w : words_) w = 0;
}

std::size_t BloomFilter::popcount() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

double BloomFilter::fill_ratio() const {
  return static_cast<double>(popcount()) / static_cast<double>(bits_);
}

double BloomFilter::estimated_fpp() const {
  return std::pow(fill_ratio(), static_cast<double>(k_));
}

AtomicBloomFilter::AtomicBloomFilter(const AtomicBloomFilter& other)
    : bits_(other.bits_), k_(other.k_), words_(other.words_.size()) {
  for (std::size_t i = 0; i < words_.size(); ++i)
    words_[i].store(other.words_[i].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
}

AtomicBloomFilter& AtomicBloomFilter::operator=(
    const AtomicBloomFilter& other) {
  if (this == &other) return *this;
  bits_ = other.bits_;
  k_ = other.k_;
  words_ = std::vector<std::atomic<std::uint64_t>>(other.words_.size());
  for (std::size_t i = 0; i < words_.size(); ++i)
    words_[i].store(other.words_[i].load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  return *this;
}

void AtomicBloomFilter::assign(const BloomFilter& f) {
  const std::vector<std::uint64_t>& src = f.words();
  if (f.bit_count() != bits_ || f.num_hashes() != k_) {
    bits_ = f.bit_count();
    k_ = f.num_hashes();
    words_ = std::vector<std::atomic<std::uint64_t>>(src.size());
  }
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (words_[i].load(std::memory_order_relaxed) != src[i])
      words_[i].store(src[i], std::memory_order_relaxed);
  }
}

void AtomicBloomFilter::insert(const ItemHash& h) {
  for (unsigned i = 0; i < k_; ++i) {
    const std::size_t idx = bloom_probe_index(i, h.w.data(), bits_);
    std::atomic<std::uint64_t>& word = words_[idx / 64];
    const std::uint64_t old = word.load(std::memory_order_relaxed);
    const std::uint64_t set = old | (1ULL << (idx % 64));
    if (set != old) word.store(set, std::memory_order_relaxed);
  }
}

bool AtomicBloomFilter::may_contain(const ItemHash& h) const {
  for (unsigned i = 0; i < k_; ++i) {
    const std::size_t idx = bloom_probe_index(i, h.w.data(), bits_);
    if ((words_[idx / 64].load(std::memory_order_relaxed) &
         (1ULL << (idx % 64))) == 0)
      return false;
  }
  return true;
}

CountingBloomFilter::CountingBloomFilter(std::size_t bits, unsigned num_hashes)
    : bits_((bits + 63) / 64 * 64), k_(num_hashes),
      counters_((bits_ + 1) / 2, 0) {
  assert(bits > 0 && num_hashes > 0);
}

std::uint8_t CountingBloomFilter::get_counter(std::size_t idx) const {
  const std::uint8_t byte = counters_[idx / 2];
  return (idx % 2 == 0) ? (byte & 0x0f) : (byte >> 4);
}

void CountingBloomFilter::set_counter(std::size_t idx, std::uint8_t v) {
  assert(v <= 0x0f);
  std::uint8_t& byte = counters_[idx / 2];
  if (idx % 2 == 0) {
    byte = static_cast<std::uint8_t>((byte & 0xf0) | v);
  } else {
    byte = static_cast<std::uint8_t>((byte & 0x0f) | (v << 4));
  }
}

void CountingBloomFilter::insert(std::string_view item) {
  insert(hash_item(item));
}

void CountingBloomFilter::insert(const ItemHash& h) {
  for (unsigned i = 0; i < k_; ++i) {
    const std::size_t idx = bloom_probe_index(i, h.w.data(), bits_);
    const std::uint8_t c = get_counter(idx);
    if (c < 0x0f) set_counter(idx, static_cast<std::uint8_t>(c + 1));
  }
}

void CountingBloomFilter::remove(std::string_view item) {
  remove(hash_item(item));
}

void CountingBloomFilter::remove(const ItemHash& h) {
  for (unsigned i = 0; i < k_; ++i) {
    const std::size_t idx = bloom_probe_index(i, h.w.data(), bits_);
    const std::uint8_t c = get_counter(idx);
    if (c > 0 && c < 0x0f) set_counter(idx, static_cast<std::uint8_t>(c - 1));
  }
}

bool CountingBloomFilter::may_contain(std::string_view item) const {
  return may_contain(hash_item(item));
}

bool CountingBloomFilter::may_contain(const ItemHash& h) const {
  for (unsigned i = 0; i < k_; ++i) {
    if (get_counter(bloom_probe_index(i, h.w.data(), bits_)) == 0)
      return false;
  }
  return true;
}

BloomFilter CountingBloomFilter::to_bloom_filter() const {
  // A whole word at a time: its 64 counters are 32 bytes, two per byte
  // (even index in the low nibble).
  std::vector<std::uint64_t> words(bits_ / 64, 0);
  for (std::size_t w = 0; w < words.size(); ++w) {
    const std::uint8_t* bytes = counters_.data() + w * 32;
    std::uint64_t word = 0;
    for (unsigned b = 0; b < 32; ++b) {
      word |= static_cast<std::uint64_t>((bytes[b] & 0x0f) != 0) << (2 * b);
      word |= static_cast<std::uint64_t>((bytes[b] >> 4) != 0) << (2 * b + 1);
    }
    words[w] = word;
  }
  return BloomFilter::from_words(bits_, k_, std::move(words));
}

}  // namespace smartstore::bloom
