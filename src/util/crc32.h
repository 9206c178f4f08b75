// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum
// guarding every snapshot section and WAL commit block in the persistence
// layer and every RPC frame. Table-driven, eight bytes per step
// (slicing-by-8), incremental: feed chunks via the running `state` form,
// or use the one-shot helper.
#pragma once

#include <cstddef>
#include <cstdint>

namespace smartstore::util {

/// Continues a CRC-32 computation. Start with `crc32_init()`, feed chunks,
/// finish with `crc32_final()`.
std::uint32_t crc32_update(std::uint32_t state, const void* data,
                           std::size_t len);

inline std::uint32_t crc32_init() { return 0xFFFFFFFFu; }
inline std::uint32_t crc32_final(std::uint32_t state) { return ~state; }

/// One-shot CRC-32 of a buffer.
inline std::uint32_t crc32(const void* data, std::size_t len) {
  return crc32_final(crc32_update(crc32_init(), data, len));
}

}  // namespace smartstore::util
