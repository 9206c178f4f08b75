// Deployment-directory recovery over the one durable layout:
//
//   <dir>/ckpt/        the checkpoint: a base image plus a delta chain,
//                      described by ckpt/MANIFEST (persist/segment.h)
//   <dir>/wal/<u>.log  one write-ahead log per storage unit
//                      (persist/wal_shard.h)
//
// recover() loads the manifest's base, applies the delta chain, then
// replays the valid prefix of every shard log past the manifest's fence,
// skipping each shard's fenced prefix when generations match. Records are
// merged across shards by their store-wide sequence number first,
// reconstructing one mutation order. The checkpoint protocol that keeps
// every crash window consistent is DeltaEngine's
// (persist/delta_checkpoint.h). A torn or truncated tail rolls a shard
// back to its last group-commit boundary, which loses only
// *unacknowledged* records of that shard, never an acknowledged record of
// another shard.
#pragma once

#include <memory>
#include <string>

#include "core/smartstore.h"
#include "persist/segment.h"
#include "persist/wal.h"
#include "persist/wal_shard.h"
#include "smartstore/status.h"

namespace smartstore::persist {

struct RecoveryResult {
  std::unique_ptr<core::SmartStore> store;
  std::size_t wal_blocks = 0;
  std::size_t wal_records = 0;   ///< replayed (fenced prefix excluded)
  std::size_t wal_fenced = 0;    ///< skipped: already in the checkpoint
  std::size_t wal_shards = 0;    ///< shard logs scanned
  bool wal_tail_torn = false;    ///< any log had a torn tail dropped
  bool used_manifest = false;    ///< a checkpoint manifest was loaded
  std::size_t delta_cuts = 0;    ///< chain links applied under the manifest
  std::size_t delta_records = 0; ///< delta records applied before the tail
};

/// Applies one logged record through the store's mutation API.
void apply_record(core::SmartStore& store, const WalRecord& rec);

/// recover()'s replay half, reusable without a checkpoint: replays the
/// shard logs in `dir` (merged by sequence number) into `store`, skipping
/// prefixes `fence` covers, and accumulates counts into `res`. The db
/// facade uses this to recover a deployment that crashed before its first
/// checkpoint — the base image is then the empty store build({})
/// produces, so the full log replays.
void replay_dir_logs(core::SmartStore& store, const std::string& dir,
                     const WalFence& fence, RecoveryResult& res);

/// Reassembles the state a delta manifest describes at its last cut: the
/// base image ckpt/base-<id>.bin with every cut's extents applied, merged across units by store-wide
/// sequence number. No WAL is read — the caller replays the tail past
/// m.fence separately (recover()), or wants exactly the state at the last
/// cut (the replication bootstrap). `res`, when given, accumulates the
/// delta_* counts. Throws PersistError on a missing/corrupt base,
/// segment, or extent.
std::unique_ptr<core::SmartStore> load_delta_base(const std::string& dir,
                                                  const DeltaManifest& m,
                                                  RecoveryResult* res);

/// Loads the manifest's base + delta chain, then replays the WAL tail
/// past the manifest's fence. Throws PersistError — kNotFound when `dir`
/// holds no manifest, kCorruption when the manifest, base or a segment is
/// corrupt; a torn WAL tail is not an error (reported in the result,
/// recovery keeps the prefix).
RecoveryResult recover(const std::string& dir);

/// The one PersistError → Status mapping: kNotFound, kIOError,
/// kFailedPrecondition (a layout this release cannot read) or kCorruption.
/// recover(dir, out) and the db facade both type persistence failures
/// through it.
db::Status to_status(const PersistError& e);

/// Exception-free flavour: the one error path out of recovery, typed.
/// Every failure mode that used to be a mixed bag of bools and throws maps
/// onto one Status code — kNotFound (no checkpoint in `dir`), kCorruption
/// (bad magic / checksum / truncated section / malformed record),
/// kIOError (the OS failed an open/stat/write), kUnknown (anything else).
/// A torn WAL tail is still NOT an error: recovery keeps the valid prefix
/// and reports it via out->wal_tail_torn, exactly like the throwing
/// flavour. On failure `*out` is left default-constructed (no store).
db::Status recover(const std::string& dir, RecoveryResult* out) noexcept;

}  // namespace smartstore::persist
