// The checkpoint descriptor on disk: the delta manifest.
//
// A durable deployment keeps, under <dir>/ckpt/:
//
//   MANIFEST          the descriptor (below) — the ONE file recovery
//                     consults to decide a checkpoint exists
//   base-<id>.bin     a full snapshot image (persist/snapshot.h) written
//                     by a fold
//
// The WAL is the delta: until a fold, every logged record lives only in
// its unit's shard log (persist/wal_shard.h). The manifest names the base
// image and the WAL fence — a per-shard (generation, records) pair saying
// which prefix of each shard the base already holds, so a replayed prefix
// skips exactly once and nothing ever applies twice. Recovery = load the
// base, then replay every shard's tail past the fence.
//
// Manifest layout (little-endian):
//
//   [8B magic "SSMFTv01"] [u32 format version]
//   [u64 manifest id]                  bumped on every publish
//   [u8 base kind = 2] [u64 base id]   the base is ckpt/base-<id>.bin
//                                      (kind 1, an image adopted from
//                                      the pre-manifest layout, is
//                                      refused: kUnsupported)
//   [u64 fold seq]                     commit seq at the newest fold
//   fence: [u64 0] [u64 0]             unused pair (the pre-sharding
//                                      single log's), written as zero
//          [u8 present] [u64 shard count] then per shard
//          [u64 shard] [u64 generation] [u64 records]
//   [u64 cut count = 0]                earlier builds chained delta cuts
//                                      here (per-unit ckpt/units/<u>.seg
//                                      segments); a non-zero count is
//                                      refused: kUnsupported
//   [u32 trailer CRC]                  CRC-32 of everything after the magic
//
// The manifest publishes atomically (temp + rename + dir fsync, fault
// prefix "ckpt:manifest").
#pragma once

#include <cstdint>
#include <string>

#include "persist/snapshot.h"

namespace smartstore::persist {

inline constexpr char kManifestMagic[8] = {'S', 'S', 'M', 'F',
                                           'T', 'v', '0', '1'};
inline constexpr std::uint32_t kManifestFormatVersion = 1;

struct DeltaManifest {
  std::uint64_t manifest_id = 0;
  std::uint64_t base_id = 0;  ///< the base image is ckpt/base-<id>.bin
  std::uint64_t fold_seq = 0;
  /// WAL prefix (per shard) the base subsumes; recovery replays only past
  /// it.
  WalFence fence;

  /// Records the fence covers for `shard` iff the generation matches the
  /// live log's — the prefix recovery skips and the checkpoint rule does
  /// not count as logged since the base.
  std::uint64_t fenced_records(std::uint64_t shard,
                               std::uint64_t generation) const;
};

std::string ckpt_dir(const std::string& dir);
std::string manifest_path(const std::string& dir);
std::string base_path(const std::string& dir, std::uint64_t base_id);

bool manifest_exists(const std::string& dir);

/// Loads and fully verifies <dir>/ckpt/MANIFEST: magic, version, trailer
/// CRC. Throws PersistError kNotFound when absent, kCorruption on any
/// mismatch, kUnsupported for a well-formed manifest of a layout earlier
/// builds wrote: a base of kind 1 (an image adopted from the pre-manifest
/// layout) or a non-zero cut count (a delta chain with no fold since).
DeltaManifest read_manifest(const std::string& dir);

/// Publishes the manifest atomically (creates <dir>/ckpt first).
void write_manifest(const std::string& dir, const DeltaManifest& m);

/// Deletes the base images `m` does not reference (after a fold).
void prune_ckpt_files(const std::string& dir, const DeltaManifest& m);

}  // namespace smartstore::persist
