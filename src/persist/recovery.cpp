#include "persist/recovery.h"

#include <algorithm>
#include <filesystem>

#include "persist/fault.h"

namespace smartstore::persist {

void apply_record(core::SmartStore& store, const WalRecord& rec) {
  // Only the logical outcome of each mutation is recovered. No journal is
  // attached, so nothing re-logs; the record's persisted seq goes back to
  // the store, so the replayed mutation lands under the SAME commit
  // timestamp it carried live and time-travel reads replay identically
  // across a restart.
  switch (rec.type) {
    case WalRecordType::kInsert:
      store.insert_file(rec.file, 0.0, rec.seq);
      break;
    case WalRecordType::kRemove:
      // erase_file locates by the units' exact indexes: the live delete was
      // acknowledged, so replay must not depend on the off-line replicas
      // (whose staleness evolves differently during recovery) routing to
      // the file. A remove of an absent name still advances the clock.
      store.erase_file(rec.name, rec.seq);
      break;
  }
}

void replay_dir_logs(core::SmartStore& store, const std::string& dir,
                     const WalFence& fence, RecoveryResult& res) {
  // Scan every shard, drop each shard's fenced prefix (matching
  // generations only — a rebased shard replays in full; a match is the
  // crash window between "manifest published" and "shard rebased"), then
  // merge by the store-wide sequence number back into one mutation order.
  const std::string sdir = ShardedWal::shard_dir(dir);
  std::error_code ec;
  if (std::filesystem::is_directory(sdir, ec)) {
    std::vector<WalRecord> merged;
    for (const auto& entry : std::filesystem::directory_iterator(sdir)) {
      std::uint64_t shard_id = 0;
      if (!ShardedWal::parse_shard_id(entry.path(), &shard_id)) continue;
      WalScan shard_scan = scan_wal(entry.path().string());
      std::size_t shard_skip = 0;
      for (const ShardFence& f : fence.shards) {
        if (f.shard == shard_id && f.generation == shard_scan.generation) {
          shard_skip = static_cast<std::size_t>(std::min<std::uint64_t>(
              f.records, shard_scan.records.size()));
          break;
        }
      }
      res.wal_blocks += shard_scan.blocks;
      res.wal_fenced += shard_skip;
      res.wal_tail_torn = res.wal_tail_torn || shard_scan.torn_tail;
      ++res.wal_shards;
      for (std::size_t i = shard_skip; i < shard_scan.records.size(); ++i)
        merged.push_back(std::move(shard_scan.records[i]));
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const WalRecord& a, const WalRecord& b) {
                       return a.seq < b.seq;
                     });
    for (const WalRecord& rec : merged) apply_record(store, rec);
    res.wal_records += merged.size();
  }
}

RecoveryResult recover(const std::string& dir) {
  RecoveryResult res;
  const DeltaManifest m = read_manifest(dir);
  res.store = load_snapshot(base_path(dir, m.base_id));
  res.store->serve();  // replays run on counting sessions, as served ops do
  // The clock resumes at no less than the last fold: the fold recorded
  // the clock, and not every seq it covers left a record (a follower's
  // bootstrap jump writes none).
  res.store->note_commit_seq(m.fold_seq);
  res.used_manifest = true;
  replay_dir_logs(*res.store, dir, m.fence, res);
  return res;
}

db::Status to_status(const PersistError& e) {
  switch (e.code()) {
    case PersistError::Code::kNotFound:
      return db::Status::NotFound(e.what());
    case PersistError::Code::kIo:
      return db::Status::IOError(e.what());
    case PersistError::Code::kUnsupported:
      return db::Status::FailedPrecondition(e.what());
    case PersistError::Code::kCorruption:
      break;
  }
  return db::Status::Corruption(e.what());
}

db::Status current_exception_status() {
  try {
    throw;
  } catch (const FaultInjected& e) {
    // IS-A PersistError (default code kCorruption); type it first so a
    // simulated power cut never reads as on-disk corruption.
    return db::Status::FaultInjected(e.what());
  } catch (const PersistError& e) {
    return to_status(e);
  } catch (const util::BinaryIoError& e) {
    // The codecs' bounds checks fire on truncated or malformed payloads
    // inside checksum-valid framing — still corruption, just detected a
    // layer lower.
    return db::Status::Corruption(e.what());
  } catch (const std::filesystem::filesystem_error& e) {
    return db::Status::IOError(e.what());
  } catch (const std::exception& e) {
    return db::Status::Unknown(e.what());
  } catch (...) {
    return db::Status::Unknown("non-standard exception");
  }
}

db::Status recover(const std::string& dir, RecoveryResult* out) noexcept {
  *out = RecoveryResult{};
  try {
    *out = recover(dir);
    return db::Status::OK();
  } catch (...) {
    return current_exception_status();  // *out is still the empty result
  }
}

}  // namespace smartstore::persist
