#include "persist/wal.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <random>

#include "persist/codec.h"
#include "persist/fault.h"
#include "util/crc32.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace smartstore::persist {

namespace {

/// Overwrites `path` with a fresh, empty log carrying `generation` (header
/// only, fsynced, directory entry synced).
void write_empty_wal(const std::string& path, std::uint64_t generation) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw PersistError("cannot create WAL: " + path,
                             PersistError::Code::kIo);
  util::BinaryWriter header;
  header.write_bytes(kWalMagic, sizeof(kWalMagic));
  header.write_u64(generation);
  const bool written = std::fwrite(header.buffer().data(), 1, header.size(),
                                   f) == header.size() &&
                       util::flush_and_sync(f);
  if (std::fclose(f) != 0 || !written)
    throw PersistError("cannot write WAL header: " + path,
                       PersistError::Code::kIo);
  util::fsync_parent_dir(path);
}

/// A commit block's header: magic, record count, payload length.
constexpr std::size_t kBlockHeaderBytes = 4 + 4 + 8;

/// A generation for a log with no usable predecessor: drawn from the
/// system entropy source so it cannot collide with a fence some earlier
/// checkpoint recorded against an unrelated log history.
std::uint64_t fresh_wal_generation() {
  std::random_device rd;
  return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
}

// ---- record codec -----------------------------------------------------------

/// Encodes one record in the block-payload layout — the exact bytes
/// scan_wal parses.
void encode_wal_record(util::BinaryWriter& w, const WalRecord& rec) {
  w.write_u64(rec.seq);
  w.write_u8(static_cast<std::uint8_t>(rec.type));
  switch (rec.type) {
    case WalRecordType::kInsert:
      write_file_meta(w, rec.file);
      break;
    case WalRecordType::kRemove:
      w.write_string(rec.name);
      break;
  }
}

/// Decodes one record from the block-payload layout. Returns false on an
/// unknown record type; throws util::BinaryIoError on truncation (scan_wal
/// treats both as a torn tail and keeps the prefix).
bool decode_wal_record(util::BinaryReader& r, WalRecord* out) {
  out->seq = r.read_u64();
  const std::uint8_t type = r.read_u8();
  switch (type) {
    case static_cast<std::uint8_t>(WalRecordType::kInsert):
      out->type = WalRecordType::kInsert;
      out->file = read_file_meta(r);
      return true;
    case static_cast<std::uint8_t>(WalRecordType::kRemove):
      out->type = WalRecordType::kRemove;
      out->name = r.read_string();
      return true;
    default:
      return false;
  }
}

}  // namespace

// ---- scan -------------------------------------------------------------------

WalScan scan_wal(const std::string& path) {
  WalScan scan;
  std::vector<std::uint8_t> bytes;
  try {
    bytes = util::read_file_bytes(path);
  } catch (const util::BinaryIoError&) {
    return scan;  // no log yet: empty scan
  }
  if (bytes.empty()) return scan;
  if (bytes.size() < sizeof(kWalMagic)) {
    scan.torn_tail = true;  // shorter than the header: a torn creation
    return scan;
  }
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0)
    throw PersistError("bad WAL magic: " + path);

  util::BinaryReader r(bytes);
  r.skip(sizeof(kWalMagic));
  if (r.remaining() < 8) {
    scan.torn_tail = true;  // creation crashed before the generation landed
    return scan;
  }
  scan.generation = r.read_u64();
  scan.valid_bytes = sizeof(kWalMagic) + 8;

  // Per block: magic(4) + count(4) + len(8) + payload + crc(4). Anything
  // that does not parse cleanly from here on is the crash window — stop at
  // the last good block rather than failing.
  while (!r.at_end()) {
    if (r.remaining() < 16) {
      scan.torn_tail = true;
      break;
    }
    if (r.read_u32() != kWalBlockMagic) {
      scan.torn_tail = true;
      break;
    }
    const std::uint32_t count = r.read_u32();
    const std::uint64_t len = r.read_u64();
    if (r.remaining() < 4 || len > r.remaining() - 4) {
      scan.torn_tail = true;
      break;
    }
    const std::uint8_t* payload = bytes.data() + r.position();
    r.skip(static_cast<std::size_t>(len));
    const std::uint32_t stored_crc = r.read_u32();
    if (util::crc32(payload, static_cast<std::size_t>(len)) != stored_crc) {
      scan.torn_tail = true;
      break;
    }

    util::BinaryReader pr(payload, static_cast<std::size_t>(len));
    std::vector<WalRecord> block_records;
    // Every record occupies >= 1 payload byte, so a count beyond `len` is
    // garbage; clamping keeps a crafted header from forcing a huge reserve.
    block_records.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, len)));
    bool parsed = true;
    try {
      for (std::uint32_t i = 0; i < count; ++i) {
        WalRecord rec;
        if (!decode_wal_record(pr, &rec)) {
          parsed = false;
          break;
        }
        block_records.push_back(std::move(rec));
      }
      if (!pr.at_end()) parsed = false;
    } catch (const util::BinaryIoError&) {
      parsed = false;
    }
    if (!parsed) {
      // A checksum-valid block that does not parse is real corruption, not
      // a torn tail — but the recovery contract is the same: keep the
      // prefix, drop from here.
      scan.torn_tail = true;
      break;
    }

    for (auto& rec : block_records) scan.records.push_back(std::move(rec));
    ++scan.blocks;
    scan.valid_bytes = r.position();
  }
  return scan;
}

// ---- writer -----------------------------------------------------------------

WalWriter::WalWriter(std::string path) : path_(std::move(path)) {
  batch_.write_u32(kWalBlockMagic);
  batch_.write_u32(0);  // record count, patched at commit
  batch_.write_u64(0);  // payload length, patched at commit
  open_truncated_to_valid_prefix();
}

WalWriter::~WalWriter() {
  try {
    commit();
  } catch (...) {
    // A destructor cannot surface the failure; the pending batch is simply
    // not durable, the same outcome as crashing just before the commit.
  }
  if (file_) std::fclose(file_);
}

void WalWriter::open_truncated_to_valid_prefix() {
  const WalScan scan = scan_wal(path_);  // throws on non-WAL content
  committed_ = scan.records.size();
  generation_ = scan.generation;
  committed_bytes_ = scan.valid_bytes;

  if (scan.valid_bytes > 0) {
    if (scan.torn_tail) {
      std::error_code ec;
      std::filesystem::resize_file(path_, scan.valid_bytes, ec);
      if (ec)
        throw PersistError("cannot drop torn WAL tail: " + ec.message(),
                           PersistError::Code::kIo);
    }
    file_ = std::fopen(path_.c_str(), "ab");
    if (!file_) throw PersistError("cannot open WAL for append: " + path_,
                       PersistError::Code::kIo);
    return;
  }
  // Absent, empty, or torn before the header completed: start fresh.
  generation_ = fresh_wal_generation();
  write_empty_wal(path_, generation_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (!file_) throw PersistError("cannot open WAL for append: " + path_,
                       PersistError::Code::kIo);
  committed_ = 0;
  committed_bytes_ = sizeof(kWalMagic) + 8;
}

void WalWriter::append(const WalRecord& rec) {
  encode_wal_record(batch_, rec);
  ++pending_;
}

void WalWriter::commit() {
  if (pending_ == 0 || !file_) return;
  const std::size_t payload = batch_.size() - kBlockHeaderBytes;
  batch_.patch_u32(4, static_cast<std::uint32_t>(pending_));
  batch_.patch_u64(8, payload);
  batch_.write_u32(
      util::crc32(batch_.buffer().data() + kBlockHeaderBytes, payload));
  const std::vector<std::uint8_t>& block = batch_.buffer();

  // An injected crash abandons the handle: the half-written bytes are
  // flushed so a fresh scan sees the torn tail a power cut would leave,
  // and the dead handle keeps the destructor from appending behind it.
  auto die_with_handle = [&]() {
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
  };

  // Note the pre-commit boundary so a failed commit (disk full) can be
  // rolled back: leaving a partial block with the position advanced would
  // strand any retried commit behind garbage that recovery truncates away.
  std::fseek(file_, 0, SEEK_END);
  const long start = std::ftell(file_);
  // The block lands in two halves with a crash boundary between them: a
  // power cut does not respect block boundaries, and the torn tail this
  // leaves is exactly what scan_wal's checksum rollback must absorb.
  const std::size_t half = block.size() / 2;
  bool failed = std::fwrite(block.data(), 1, half, file_) != half;
  if (!failed) {
    try {
      fault_point("wal:commit:torn-block");
    } catch (...) {
      die_with_handle();
      throw;
    }
    failed = std::fwrite(block.data() + half, 1, block.size() - half,
                         file_) != block.size() - half;
  }
  if (!failed) {
    try {
      fault_point("wal:commit:pre-sync");
    } catch (...) {
      die_with_handle();
      throw;
    }
    // A full disk may fail only the flush; an I/O error, the fsync.
    failed = !util::flush_and_sync(file_);
  }
  if (failed) {
    // Not acknowledged: the batch (less its checksum) stays pending for a
    // retry, and the log is cut back to the block start. The flush first
    // pushes out (or, when it fails, stdio drops) whatever of the block is
    // still buffered, so nothing of it reaches the file behind the cut.
    batch_.truncate(kBlockHeaderBytes + payload);
    std::fflush(file_);
    std::clearerr(file_);
#if defined(__unix__) || defined(__APPLE__)
    if (start >= 0 && ::ftruncate(::fileno(file_), start) == 0)
      std::fseek(file_, start, SEEK_SET);
#endif
    throw PersistError("cannot append, flush or fsync a WAL block: " + path_,
                       PersistError::Code::kIo);
  }
  committed_bytes_ = static_cast<std::size_t>(start) + block.size();
  committed_ += pending_;
  records_written_ += pending_;
  ++blocks_written_;
  pending_ = 0;
  batch_.truncate(kBlockHeaderBytes);
}

void WalWriter::rebase(std::size_t drop, std::size_t drop_bytes) {
  const std::size_t header = sizeof(kWalMagic) + 8;
  if (drop > committed_ || drop_bytes < header ||
      drop_bytes > committed_bytes_) {
    throw PersistError("WAL rebase past the committed log: " + path_ +
                       " (drop " + std::to_string(drop) + " records at byte " +
                       std::to_string(drop_bytes) + ", committed " +
                       std::to_string(committed_) + " records, " +
                       std::to_string(committed_bytes_) + " bytes)");
  }
  commit();  // the rebased log must carry every acknowledged record
  if (drop == 0) return;  // fence covers nothing: the log already pairs
                          // exactly with the checkpoint, leave it be
  fault_point("wal:rebase:begin");

  // The tail splices over as raw block bytes. (This runs under the shard's
  // mutex; re-scanning the whole log here would stall that shard's writers
  // for the full history since the last fold.)
  std::vector<std::uint8_t> tail(committed_bytes_ - drop_bytes);
  if (!tail.empty()) {
    std::FILE* in = std::fopen(path_.c_str(), "rb");
    if (!in)
      throw PersistError("cannot reopen WAL for rebase: " + path_,
                         PersistError::Code::kIo);
    if (std::fseek(in, static_cast<long>(drop_bytes), SEEK_SET) != 0 ||
        std::fread(tail.data(), 1, tail.size(), in) != tail.size()) {
      std::fclose(in);
      throw PersistError("cannot read WAL tail for rebase: " + path_,
                         PersistError::Code::kIo);
    }
    std::fclose(in);
  }
  util::BinaryWriter out;
  out.write_bytes(kWalMagic, sizeof(kWalMagic));
  out.write_u64(generation_ + 1);
  if (!tail.empty()) out.write_bytes(tail.data(), tail.size());
  // Shared fault-instrumented temp+rename+dir-fsync (prefix "wal:rebase").
  write_file_atomic_faulted(path_, out.buffer(), "wal:rebase");

  // Swap the append handle onto the new inode.
  if (file_) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "ab");
  if (!file_)
    throw PersistError("cannot reopen WAL after rebase: " + path_,
                       PersistError::Code::kIo);
  ++generation_;
  committed_ -= drop;
  committed_bytes_ = out.size();
}

void WalWriter::abandon() {
  pending_ = 0;
  batch_.truncate(kBlockHeaderBytes);
  if (file_) std::fclose(file_);
  file_ = nullptr;
}

}  // namespace smartstore::persist
