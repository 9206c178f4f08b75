// Binary snapshots of a full SmartStore deployment.
//
// A snapshot is the durable image of everything build() computes — file
// records and their storage-unit membership, the semantic R-tree (MBRs,
// Bloom filters, centroid sums, index-unit mapping), the fitted LSI model,
// auto-configured tree variants, and the per-group replica/version sync
// state — so a process restart resumes serving without re-running
// SVD, balanced k-means or bottom-up tree construction.
//
// Every image has one writer, save_snapshot_frozen(): it serializes the
// view a begin_checkpoint() froze, which is how each fold writes its base
// image while serving threads keep mutating. save_snapshot() freezes,
// writes and releases, so a quiesced store gets the same bytes a fold of
// it would write.
//
// On-disk layout (all integers little-endian):
//
//   [8B magic "SSNAPv01"] [u32 format version] [u32 section count]
//   then per section:
//   [u32 section id] [u64 payload length] [payload] [u32 CRC-32 of payload]
//
// Sections: CONFIG (Config + rng state + active flags + the current
// filter geometry), STANDARDIZER, UNITS (records per storage unit), TREE,
// VARIANTS, SYNC (group replicas, sealed versions, pending deltas). The
// WAL prefix an image contains is recorded in the delta manifest, not
// here; images from earlier builds that still carry a WALFENCE section
// (id 7) load, the section checksummed and skipped like any unknown id.
// Every section is independently checksummed; a flipped bit or truncation
// anywhere fails the load with a PersistError instead of resurrecting a
// corrupt deployment.
//
// What is deliberately NOT persisted: the virtual-time cluster's queue
// occupancy (a restart begins at simulated time zero with idle queues) and
// derived per-unit structures (counting Bloom filters, name/id indexes,
// standardized coordinates), which are rebuilt from the records on load.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "core/smartstore.h"

namespace smartstore::persist {

/// Raised on any malformed snapshot or WAL: bad magic, unsupported version,
/// checksum mismatch, truncation, or cross-section inconsistency. Each
/// error carries a coarse code so exception-free surfaces (the db facade's
/// Status boundary, recover(dir, out)) can type the failure instead of
/// string-matching messages: kCorruption is the default (malformed bytes),
/// kNotFound marks a missing snapshot, kIo an OS-level open/write/stat
/// failure on otherwise well-formed state, kUnsupported well-formed state
/// from an older layout this release cannot read (the facade maps it to
/// FailedPrecondition).
class PersistError : public std::runtime_error {
 public:
  enum class Code { kCorruption, kNotFound, kIo, kUnsupported };

  explicit PersistError(const std::string& msg,
                        Code code = Code::kCorruption)
      : std::runtime_error(msg), code_(code) {}

  Code code() const { return code_; }

 private:
  Code code_;
};

inline constexpr char kSnapshotMagic[8] = {'S', 'S', 'N', 'A',
                                           'P', 'v', '0', '1'};
/// The one format the writer writes and the loader reads. The CONFIG
/// section carries the commit seq; each UNITS entry carries per-record
/// added_seqs plus the tombstone chain still visible above the GC
/// watermark at save time; SYNC names each version delta's inserted files
/// by their digests (a u64 count, then four u32 words each). A version 1
/// or 2 image of an earlier build is refused as kUnsupported.
inline constexpr std::uint32_t kSnapshotFormatVersion = 3;

/// One shard's slice of a sharded-WAL fence: records [0, records) of
/// wal/<shard>.log under `generation` are reflected in the snapshot.
struct ShardFence {
  std::uint64_t shard = 0;
  std::uint64_t generation = 0;
  std::uint64_t records = 0;
  /// The log's byte offset just past those records — what the rebase
  /// splices the tail from. In memory only: the manifest encodes the
  /// three fields above, so a fence read back from disk carries 0.
  std::uint64_t bytes = 0;
};

/// The WAL prefix a checkpoint subsumes: one (generation, records)
/// frontier entry per WAL shard. `present` is false when no fence was
/// captured. The manifest encoding leads with a (generation, records)
/// pair the pre-sharding single log used; it is written as zero and
/// skipped on read.
struct WalFence {
  bool present = false;
  std::vector<ShardFence> shards;
};

/// Serializes the frozen view of a store whose begin_checkpoint() is
/// active, while serving threads keep mutating it, and publishes it
/// atomically (temp file + rename + directory fsync). The CONFIG scalars,
/// the tree, the variants and the sync state come from the copies the
/// freeze captured; each storage unit is read live, as of the frozen
/// commit seq, under that unit's lock — so the written image is exactly
/// the state at the freeze. This is the one image writer: every fold runs
/// it, and save_snapshot() below wraps it.
void save_snapshot_frozen(const core::SmartStore& store,
                          const std::string& path);

/// begin_checkpoint() → save_snapshot_frozen() → end_checkpoint(): the
/// same image a fold of `store` would write as its base.
void save_snapshot(core::SmartStore& store, const std::string& path);

/// Loads and verifies a snapshot, reassembling a ready-to-serve deployment.
/// Throws PersistError (or util::BinaryIoError) on any corruption; the
/// returned store has passed check_invariants().
std::unique_ptr<core::SmartStore> load_snapshot(const std::string& path);

}  // namespace smartstore::persist
