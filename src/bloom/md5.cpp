#include "bloom/md5.h"

#include <cstring>

namespace smartstore::bloom {

namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

// Per-round shift amounts (RFC 1321).
constexpr int kShift[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

// K[i] = floor(2^32 * |sin(i + 1)|), precomputed.
constexpr std::uint32_t kSine[64] = {
    0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu, 0xf57c0fafu,
    0x4787c62au, 0xa8304613u, 0xfd469501u, 0x698098d8u, 0x8b44f7afu,
    0xffff5bb1u, 0x895cd7beu, 0x6b901122u, 0xfd987193u, 0xa679438eu,
    0x49b40821u, 0xf61e2562u, 0xc040b340u, 0x265e5a51u, 0xe9b6c7aau,
    0xd62f105du, 0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u, 0x21e1cde6u,
    0xc33707d6u, 0xf4d50d87u, 0x455a14edu, 0xa9e3e905u, 0xfcefa3f8u,
    0x676f02d9u, 0x8d2a4c8au, 0xfffa3942u, 0x8771f681u, 0x6d9d6122u,
    0xfde5380cu, 0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u,
    0x289b7ec6u, 0xeaa127fau, 0xd4ef3085u, 0x04881d05u, 0xd9d4d039u,
    0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u, 0xf4292244u, 0x432aff97u,
    0xab9423a7u, 0xfc93a039u, 0x655b59c3u, 0x8f0ccc92u, 0xffeff47du,
    0x85845dd1u, 0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u,
    0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu, 0xeb86d391u};

std::uint32_t rotl32(std::uint32_t x, int c) {
  return (x << c) | (x >> (32 - c));
}

}  // namespace

Md5::Md5() { std::memcpy(state_, kInit, sizeof(state_)); }

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[i * 4]) |
           (static_cast<std::uint32_t>(block[i * 4 + 1]) << 8) |
           (static_cast<std::uint32_t>(block[i * 4 + 2]) << 16) |
           (static_cast<std::uint32_t>(block[i * 4 + 3]) << 24);
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  for (int i = 0; i < 64; ++i) {
    std::uint32_t f;
    int g;
    if (i < 16) {
      f = (b & c) | (~b & d);
      g = i;
    } else if (i < 32) {
      f = (d & b) | (~d & c);
      g = (5 * i + 1) % 16;
    } else if (i < 48) {
      f = b ^ c ^ d;
      g = (3 * i + 5) % 16;
    } else {
      f = c ^ (b | ~d);
      g = (7 * i) % 16;
    }
    const std::uint32_t tmp = d;
    d = c;
    c = b;
    b = b + rotl32(a + f + kSine[i] + m[g], kShift[i]);
    a = tmp;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bit_count_ += static_cast<std::uint64_t>(len) * 8;

  if (buffer_len_ > 0) {
    const std::size_t need = 64 - buffer_len_;
    const std::size_t take = len < need ? len : need;
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == 64) {
      process_block(buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    process_block(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, p, len);
    buffer_len_ = len;
  }
}

Md5Digest Md5::finalize() {
  // Pad: 0x80 then zeros until length ≡ 56 (mod 64), then 8-byte LE
  // length. update() always leaves fewer than 64 bytes buffered.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    // No room for the length: zero-fill this block and pad a fresh one.
    std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
    process_block(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>((bit_count_ >> (8 * i)) & 0xff);
  process_block(buffer_);
  buffer_len_ = 0;

  Md5Digest d;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
      d.bytes[i * 4 + j] =
          static_cast<std::uint8_t>((state_[i] >> (8 * j)) & 0xff);
  return d;
}

std::array<std::uint32_t, 4> Md5Digest::words() const {
  std::array<std::uint32_t, 4> w{};
  for (int i = 0; i < 4; ++i) {
    w[i] = static_cast<std::uint32_t>(bytes[i * 4]) |
           (static_cast<std::uint32_t>(bytes[i * 4 + 1]) << 8) |
           (static_cast<std::uint32_t>(bytes[i * 4 + 2]) << 16) |
           (static_cast<std::uint32_t>(bytes[i * 4 + 3]) << 24);
  }
  return w;
}

std::string Md5Digest::hex() const {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

Md5Digest md5(const void* data, std::size_t len) {
  Md5 h;
  h.update(data, len);
  return h.finalize();
}

Md5Digest md5(std::string_view s) { return md5(s.data(), s.size()); }

}  // namespace smartstore::bloom
