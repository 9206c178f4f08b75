// Write-ahead log for SmartStore's dynamic operations: the per-unit log
// format the sharded WAL (persist/wal_shard.h) keeps one of per storage
// unit.
//
// Records mirror the store's mutation API — one kInsert per insert_file,
// one kRemove per erase_file, plus the reconfiguration operations
// (add_storage_unit / remove_storage_unit / autoconfigure), so a crash
// between a topology change and the next checkpoint replays into the new
// topology, not the old one. Records are batched into group-commit blocks
// the same way Section 4.4 aggregates changes into sealed VersionDeltas:
// one atomic, CRC-checksummed block per commit, flushed and fsynced
// together. Recovery is load-latest-checkpoint + replay; a torn or
// truncated tail block (the crash window) is detected by its
// checksum/length and dropped, rolling the log back to the last
// group-commit boundary.
//
// On-disk layout (little-endian):
//
//   [8B magic "SSWALv03"] [u64 log generation]
//   then per commit block:
//   [u32 block magic] [u32 record count] [u64 payload length]
//   [payload] [u32 CRC-32 of payload]
//
// Payload: `record count` records, each [u64 seq] [u8 type] then
//              type 1 (insert): FileMetadata record (persist/codec.h)
//              type 2 (remove): u64-length-prefixed filename
//              type 3 (add unit): no payload
//              type 4 (remove unit): u64 unit id
//              type 5 (autoconfigure): u64 count + attribute subsets
//                                      (persist/codec.h)
//
// The seq is the store-wide monotonic sequence number, so recovery can
// merge the shards back into one mutation order. Logs from before
// sharding (magic v01/v02, no per-record seq) are not read.
//
// The generation changes every time the log is rebased. A checkpoint
// records (generation, record count) per shard as a fence in its
// manifest; recovery skips fenced records when the generations match, so
// a crash landing between "manifest published" and "WAL rebased" replays
// nothing twice (see persist/delta_checkpoint.h). The rebase copies the
// tail's commit blocks byte for byte from the fence's offset, so a block
// is written once, by commit(), and never re-encoded.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "metadata/file_metadata.h"
#include "metadata/schema.h"
#include "persist/snapshot.h"
#include "util/binary_io.h"

namespace smartstore::persist {

inline constexpr char kWalMagic[8] = {'S', 'S', 'W', 'A', 'L', 'v', '0', '3'};
inline constexpr std::uint32_t kWalBlockMagic = 0x4B4C4257;  // "WBLK"

enum class WalRecordType : std::uint8_t {
  kInsert = 1,
  kRemove = 2,
  kAddUnit = 3,        ///< add_storage_unit()
  kRemoveUnit = 4,     ///< remove_storage_unit(unit)
  kAutoconfigure = 5,  ///< autoconfigure(subsets)
};

struct WalRecord {
  WalRecordType type = WalRecordType::kInsert;
  std::uint64_t seq = 0;  ///< store-wide monotonic sequence number
  metadata::FileMetadata file;                  ///< kInsert payload
  std::string name;                             ///< kRemove payload
  std::uint64_t unit = 0;                       ///< kRemoveUnit payload
  std::vector<metadata::AttrSubset> subsets;    ///< kAutoconfigure payload

  /// Data records. seq 0 asks ShardedWal::append to stamp a fresh one.
  static WalRecord insert(const metadata::FileMetadata& f,
                          std::uint64_t seq = 0) {
    WalRecord rec;
    rec.type = WalRecordType::kInsert;
    rec.seq = seq;
    rec.file = f;
    return rec;
  }
  static WalRecord remove(std::string name, std::uint64_t seq = 0) {
    WalRecord rec;
    rec.type = WalRecordType::kRemove;
    rec.seq = seq;
    rec.name = std::move(name);
    return rec;
  }
};

/// Result of scanning a log: all records from complete, checksum-valid
/// blocks, plus where the valid prefix ends.
struct WalScan {
  std::vector<WalRecord> records;
  std::uint64_t generation = 0;
  std::size_t blocks = 0;
  std::size_t valid_bytes = 0;  ///< file offset just past the last good block
  bool torn_tail = false;       ///< trailing partial/corrupt block dropped
  std::uint64_t max_seq = 0;    ///< largest record seq seen
};

/// Scans a WAL, stopping (not failing) at the first torn or corrupt block.
/// A missing file scans as empty. Throws PersistError only when the file
/// exists but is not a WAL at all (bad magic).
WalScan scan_wal(const std::string& path);

/// Encodes one record in the block-payload layout — the exact bytes
/// scan_wal parses. Shared by the live append path and the delta
/// segments (persist/segment.h), so the layouts cannot drift.
void encode_wal_record(util::BinaryWriter& w, const WalRecord& rec);

/// Decodes one record from the block-payload layout. Returns false on an
/// unknown record type; throws util::BinaryIoError on truncation. The
/// caller chooses the failure semantics: scan_wal treats both as a torn
/// tail (keep the prefix), the segment reader as kCorruption (the extent
/// passed its checksum, so a parse failure is a real format break).
bool decode_wal_record(util::BinaryReader& r, WalRecord* out);

/// Append-side of one log. ShardedWal owns one per shard and decides
/// when to commit; the writer itself never commits on its own.
class WalWriter {
 public:
  /// Opens (or creates) the log at `path`. An existing log is scanned and
  /// truncated to its last valid commit block first, so a torn tail from a
  /// previous crash never poisons subsequent appends.
  explicit WalWriter(std::string path);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Buffers a record (its seq already stamped) into the pending batch.
  void append(const WalRecord& rec);

  /// Seals the pending batch into one commit block: write, flush, fsync.
  /// No-op when nothing is pending.
  void commit();

  /// Drops the first `drop` committed records — the prefix a just-published
  /// checkpoint's fence subsumes — and keeps the tail under the next
  /// generation. `drop_bytes` is committed_bytes() observed at the same
  /// instant the fence observed committed_records(): a fence is always
  /// taken at a commit frontier, so the tail splices over as raw block
  /// bytes, O(tail) with no re-parse. Pending records are committed first
  /// so the rebased log is exact. The swap is atomic (temp + rename +
  /// directory fsync): a crash at any instant leaves either the old log
  /// (the checkpoint's fence skips the prefix) or the new one (generation
  /// mismatch replays the whole tail), never a torn mixture. This is how a
  /// checkpoint truncates the log without quiescing the writers appending
  /// behind it.
  ///
  /// Throws PersistError, with the log untouched, when `drop` exceeds the
  /// committed records or `drop_bytes` lies inside the header or past
  /// committed_bytes().
  void rebase(std::size_t drop, std::size_t drop_bytes);

  /// Drops the handle and the pending batch without committing — the
  /// in-process stand-in for the process dying with this writer open
  /// (crash-injection tests freeze the on-disk state with this). Every
  /// later append or commit through this object is a no-op.
  void abandon();

  std::size_t pending_records() const { return pending_; }
  std::uint64_t committed_records() const { return committed_; }
  /// File offset just past the last committed block — the byte-side of the
  /// commit frontier (pair it with committed_records() for rebase()).
  std::size_t committed_bytes() const { return committed_bytes_; }
  std::uint64_t generation() const { return generation_; }
  /// Largest record sequence number found when the log was opened.
  std::uint64_t opened_max_seq() const { return opened_max_seq_; }
  const std::string& path() const { return path_; }

 private:
  void open_truncated_to_valid_prefix();

  std::string path_;
  std::FILE* file_ = nullptr;
  util::BinaryWriter batch_;
  std::size_t pending_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t opened_max_seq_ = 0;
  std::size_t committed_bytes_ = 0;  ///< offset past the last block
};

}  // namespace smartstore::persist
