#include "bloom/bloom_filter.h"

#include <algorithm>
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

BitSlicedBank::BitSlicedBank(std::size_t bits, unsigned num_hashes,
                             const std::vector<BloomFilter>& members)
    : members_(members.size()), bits_((bits + 63) / 64 * 64),
      k_(num_hashes) {
  assert(bits > 0 && num_hashes > 0);
  if (members_ > 64) {
    width_shift_ = 6;
    row_words_ = (members_ + 63) / 64;
  } else {
    width_shift_ = static_cast<unsigned>(
        std::countr_zero(std::bit_ceil(std::max<std::size_t>(members_, 1))));
    rows_shift_ = 6 - width_shift_;
    row_mask_ = (std::size_t{1} << rows_shift_) - 1;
  }
  // Filled in plain words, then published: nothing else can see the bank
  // yet, so no bit needs a read-modify-write.
  std::vector<std::uint64_t> plain(
      ((bits_ + row_mask_) >> rows_shift_) * row_words_, 0);
  for (std::size_t m = 0; m < members_; ++m) {
    const BloomFilter& f = members[m];
    assert(f.bit_count() == bits_ && f.num_hashes() == k_);
    const std::vector<std::uint64_t>& src = f.words();
    for (std::size_t i = 0; i < src.size(); ++i) {
      for (std::uint64_t x = src[i]; x != 0; x &= x - 1) {
        const Slot s = slot(i * 64 + static_cast<std::size_t>(
                                         std::countr_zero(x)), m);
        plain[s.word] |= s.mask;
      }
    }
  }
  words_ = std::vector<std::atomic<std::uint64_t>>(plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    words_[i].store(plain[i], std::memory_order_relaxed);
}

void BitSlicedBank::insert(std::size_t m, const ItemHash& h) {
  assert(m < members_);
  for (unsigned i = 0; i < k_; ++i) {
    const Slot s = slot(bloom_probe_index(i, h.w.data(), bits_), m);
    std::atomic<std::uint64_t>& word = words_[s.word];
    if ((word.load(std::memory_order_relaxed) & s.mask) == 0)
      word.fetch_or(s.mask, std::memory_order_relaxed);
  }
}

void BitSlicedBank::update(std::size_t m, const BloomFilter& from,
                           const BloomFilter& to) {
  assert(m < members_);
  assert(from.bit_count() == bits_ && from.num_hashes() == k_);
  assert(to.bit_count() == bits_ && to.num_hashes() == k_);
  const std::vector<std::uint64_t>& before = from.words();
  const std::vector<std::uint64_t>& after = to.words();
  for (std::size_t i = 0; i < after.size(); ++i) {
    for (std::uint64_t diff = before[i] ^ after[i]; diff != 0;
         diff &= diff - 1) {
      const auto b = static_cast<unsigned>(std::countr_zero(diff));
      const Slot s = slot(i * 64 + b, m);
      if ((after[i] >> b) & 1) {
        words_[s.word].fetch_or(s.mask, std::memory_order_relaxed);
      } else {
        words_[s.word].fetch_and(~s.mask, std::memory_order_relaxed);
      }
    }
  }
}

BloomFilter BitSlicedBank::member(std::size_t m) const {
  assert(m < members_);
  std::vector<std::uint64_t> out(bits_ / 64, 0);
  for (std::size_t p = 0; p < bits_; ++p) {
    const Slot s = slot(p, m);
    if (words_[s.word].load(std::memory_order_relaxed) & s.mask)
      out[p / 64] |= std::uint64_t{1} << (p % 64);
  }
  return BloomFilter::from_words(bits_, k_, std::move(out));
}

bool BitSlicedBank::operator==(const BitSlicedBank& other) const {
  if (members_ != other.members_ || bits_ != other.bits_ || k_ != other.k_ ||
      words_.size() != other.words_.size())
    return false;
  for (std::size_t i = 0; i < words_.size(); ++i)
    if (words_[i].load(std::memory_order_relaxed) !=
        other.words_[i].load(std::memory_order_relaxed))
      return false;
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
