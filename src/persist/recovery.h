// Deployment-directory recovery over the one durable layout:
//
//   <dir>/ckpt/        the checkpoint: a base image plus a delta chain,
//                      described by ckpt/MANIFEST (persist/segment.h)
//   <dir>/wal/<u>.log  one write-ahead log per storage unit
//                      (persist/wal_shard.h)
//
// recover() loads the manifest's base into a serving core
// (SmartStore::serve), applies the delta chain, resumes
// the commit clock at no less than the manifest's last cut seq, then
// replays the valid prefix of every shard log past the manifest's fence,
// skipping each shard's fenced prefix when generations match. Records are
// merged across shards by their store-wide sequence number first,
// reconstructing one mutation order. The checkpoint protocol that keeps
// every crash window consistent is DeltaEngine's
// (persist/delta_checkpoint.h). A torn or truncated tail rolls a shard
// back to its last commit boundary, which loses only *unacknowledged*
// records of that shard (a mutation is acknowledged only once its commit
// is fsynced), never an acknowledged record of any shard.
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

/// Applies one logged record through the store's mutation API under its
/// persisted seq, with no journal attached; the store's commit clock ends
/// at least at that seq, applied or not.
void apply_record(core::SmartStore& store, const WalRecord& rec);

/// recover()'s replay half, reusable without a checkpoint: replays the
/// shard logs in `dir` (merged by sequence number) into `store`, skipping
/// prefixes `fence` covers, and accumulates counts into `res`. The db
/// facade uses this to recover a deployment that crashed before its first
/// checkpoint — the base image is then the empty store build({})
/// produces, so the full log replays.
void replay_dir_logs(core::SmartStore& store, const std::string& dir,
                     const WalFence& fence, RecoveryResult& res);

/// Loads the manifest's base + delta chain, then replays the WAL tail
/// past the manifest's fence. The returned core serves: it switched
/// before its first replayed record. Throws PersistError — kNotFound when
/// `dir` holds no manifest, kCorruption when the manifest, base or a
/// segment is corrupt; a torn WAL tail is not an error (reported in the
/// result, recovery keeps the prefix).
RecoveryResult recover(const std::string& dir);

/// The one PersistError → Status mapping: kNotFound, kIOError,
/// kFailedPrecondition (a layout this release cannot read) or kCorruption.
db::Status to_status(const PersistError& e);

/// The one exception boundary of the persistence layer and the db facade:
/// maps the exception in flight to a Status. FaultInjected →
/// kFaultInjected, PersistError → to_status, util::BinaryIoError →
/// kCorruption, std::filesystem::filesystem_error → kIOError, anything
/// else → kUnknown. Call it only inside a catch block (with no exception
/// in flight it calls std::terminate).
db::Status current_exception_status();

/// Exception-free flavour: the one error path out of recovery, typed by
/// current_exception_status() — kNotFound (no checkpoint in `dir`),
/// kCorruption (bad magic / checksum / truncated section / malformed
/// record), kIOError (the OS failed an open/stat/write), kUnknown
/// (anything else).
/// A torn WAL tail is still NOT an error: recovery keeps the valid prefix
/// and reports it via out->wal_tail_torn, exactly like the throwing
/// flavour. On failure `*out` is left default-constructed (no store).
db::Status recover(const std::string& dir, RecoveryResult* out) noexcept;

}  // namespace smartstore::persist
