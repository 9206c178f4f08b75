// Checkpoint on-disk formats: the delta manifest and the per-unit
// log-structured segment files.
//
// A durable deployment keeps, under <dir>/ckpt/:
//
//   MANIFEST          the chain descriptor (below) — the ONE file recovery
//                     consults to decide the incremental layout exists
//   base-<id>.bin     a full snapshot image (persist/snapshot.h) written
//                     by a compaction fold
//   units/<u>.seg     unit u's segment: append-only concatenation of the
//                     delta extents cut for that unit
//
// A *cut* freezes nothing: inside a store mutation barrier the engine
// records the sharded-WAL frontier, then copies each dirty shard's
// new-records slice into that unit's segment as one *extent*, publishes a
// new MANIFEST whose chain grew by one cut, and rebases the WAL. A cold
// unit (no records since the previous cut) contributes no extent and its
// segment is not even opened. Recovery = load the base image, apply every
// cut's extents merged by store-wide sequence number, then replay the WAL
// tail past the manifest fence — a per-shard (generation, records) pair
// that makes a replayed prefix skip exactly once, so nothing ever applies
// twice.
//
// Manifest layout (little-endian):
//
//   [8B magic "SSMFTv01"] [u32 format version]
//   [u64 manifest id]                  bumped on every publish
//   [u8 base kind = 2] [u64 base id]   the base is ckpt/base-<id>.bin
//                                      (kind 1, an image adopted from
//                                      the pre-manifest layout, is
//                                      refused: kUnsupported)
//   [u64 last cut seq]                 commit seq at the newest cut/fold
//   fence: [u64 0] [u64 0]             unused pair (the pre-sharding
//                                      single log's), written as zero
//          [u8 present] [u64 shard count] then per shard
//          [u64 shard] [u64 generation] [u64 records]
//   [u64 cut count] then per cut:
//     [u64 cut id] [u64 cut seq] [u64 extent count]
//     per extent: [u64 unit] [u64 offset] [u64 length] [u64 records]
//                 [u32 CRC-32 of the extent bytes]
//     [u32 chain CRC]                  CRC-32 over (previous cut's chain
//                                      CRC || this cut's fields above) —
//                                      links the chain like a hash chain,
//                                      so a manifest stitched from
//                                      mismatched histories fails closed
//   [u32 trailer CRC]                  CRC-32 of everything after the magic
//
// The manifest publishes atomically (temp + rename + dir fsync, fault
// prefix "ckpt:manifest"); segments are append-only with an fsync per
// extent, and every extent's bounds + checksum live in the manifest, so a
// crashed cut leaves at worst orphan segment bytes past the last
// manifest-known end — which the next cut truncates away before
// appending. Segment file layout:
//
//   [8B magic "SSSEGv01"] [u64 unit id]
//   then raw concatenated v03-encoded WAL records (persist/wal.h codec)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "persist/snapshot.h"
#include "persist/wal.h"

namespace smartstore::persist {

inline constexpr char kManifestMagic[8] = {'S', 'S', 'M', 'F',
                                           'T', 'v', '0', '1'};
inline constexpr std::uint32_t kManifestFormatVersion = 1;
inline constexpr char kSegmentMagic[8] = {'S', 'S', 'S', 'E',
                                          'G', 'v', '0', '1'};
inline constexpr std::size_t kSegmentHeaderBytes = sizeof(kSegmentMagic) + 8;

/// One unit's slice of one cut: `records` v03-encoded WAL records at
/// [offset, offset + length) of that unit's segment file.
struct DeltaExtent {
  std::uint64_t unit = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t records = 0;
  std::uint32_t crc = 0;  ///< CRC-32 of the extent bytes
};

/// One delta cut: every dirty unit's extent, chain-linked by CRC.
struct DeltaCut {
  std::uint64_t cut_id = 0;
  std::uint64_t cut_seq = 0;  ///< commit seq at the cut barrier
  std::vector<DeltaExtent> extents;
  std::uint32_t chain_crc = 0;
};

struct DeltaManifest {
  std::uint64_t manifest_id = 0;
  std::uint64_t base_id = 0;  ///< the base image is ckpt/base-<id>.bin
  std::uint64_t last_cut_seq = 0;
  /// WAL prefix (per shard) the base + delta chain subsumes; recovery
  /// replays only past it, the next cut slices only past it.
  WalFence fence;
  std::vector<DeltaCut> cuts;

  std::uint64_t delta_bytes() const {
    std::uint64_t total = 0;
    for (const DeltaCut& c : cuts)
      for (const DeltaExtent& e : c.extents) total += e.length;
    return total;
  }
  std::uint64_t delta_records() const {
    std::uint64_t total = 0;
    for (const DeltaCut& c : cuts)
      for (const DeltaExtent& e : c.extents) total += e.records;
    return total;
  }
  std::uint64_t next_cut_id() const {
    return cuts.empty() ? 1 : cuts.back().cut_id + 1;
  }
  /// End offset of unit's last manifest-known extent (the truncate target
  /// before a new append); the header size when the unit has none.
  std::uint64_t segment_end(std::uint64_t unit) const;
  /// Records the fence covers for `shard` iff the generation matches the
  /// live log's — the slice-skip the next cut and recovery both apply.
  std::uint64_t fenced_records(std::uint64_t shard,
                               std::uint64_t generation) const;
};

std::string ckpt_dir(const std::string& dir);
std::string manifest_path(const std::string& dir);
std::string base_path(const std::string& dir, std::uint64_t base_id);
std::string segment_dir(const std::string& dir);
std::string segment_path(const std::string& dir, std::uint64_t unit);

bool manifest_exists(const std::string& dir);

/// Loads and fully verifies <dir>/ckpt/MANIFEST: magic, version, trailer
/// CRC, chain CRCs. Throws PersistError kNotFound when absent, kCorruption
/// on any mismatch, kUnsupported for a well-formed manifest whose base is
/// kind 1 (an image earlier builds adopted from the pre-manifest layout).
DeltaManifest read_manifest(const std::string& dir);

/// Publishes the manifest atomically (creates <dir>/ckpt first). Computes
/// and stores each cut's chain CRC from the chain order as given.
void write_manifest(const std::string& dir, const DeltaManifest& m);

/// Appends `records` (v03 encoding, seqs included) to unit's segment:
/// creates it (with header) if needed, truncates to `known_end` first so
/// orphan bytes from a crashed cut can never be spliced into a later
/// extent, then appends and fsyncs. Returns the fully-filled extent.
DeltaExtent append_segment_extent(const std::string& dir, std::uint64_t unit,
                                  const std::vector<WalRecord>& records,
                                  std::uint64_t known_end);

/// Reads one extent, verifies its CRC and decodes its records onto *out.
/// Throws PersistError kCorruption on any mismatch.
void read_segment_extent(const std::string& dir, const DeltaExtent& ext,
                         std::vector<WalRecord>* out);

/// Deletes base images and segment files `m` does not reference (compaction
/// cleanup — after a fold the chain is empty, so every segment goes).
void prune_ckpt_files(const std::string& dir, const DeltaManifest& m);

}  // namespace smartstore::persist
