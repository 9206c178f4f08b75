#include "util/crc32.h"

#include <array>

namespace smartstore::util {

namespace {

using Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 tables: kTables[0] is the classic byte-at-a-time table;
/// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// lookups advance the state over eight input bytes at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  }
  return t;
}

constexpr std::array<Table, 8> kTables = make_tables();

/// Four bytes as a little-endian word, whatever the host byte order.
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, const void* data,
                           std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = load_le32(p) ^ state;
    const std::uint32_t hi = load_le32(p + 4);
    state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len)
    state = kTables[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  return state;
}

}  // namespace smartstore::util
