#include "persist/segment.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "persist/fault.h"
#include "util/binary_io.h"
#include "util/crc32.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace smartstore::persist {

namespace fs = std::filesystem;

namespace {

void sync_file(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0)
    throw PersistError("cannot flush segment: " + path,
                       PersistError::Code::kIo);
#if defined(__unix__) || defined(__APPLE__)
  if (::fsync(::fileno(f)) != 0)
    throw PersistError("cannot fsync segment: " + path,
                       PersistError::Code::kIo);
#endif
}

/// The manifest's base-kind byte: the base is ckpt/base-<id>.bin. Earlier
/// builds also wrote kind 1, an image adopted from the pre-manifest layout.
constexpr std::uint8_t kBaseKindCheckpoint = 2;
constexpr std::uint8_t kBaseKindAdopted = 1;

void encode_fence(util::BinaryWriter& w, const WalFence& f) {
  w.write_u64(0);  // the pre-sharding (generation, records) pair
  w.write_u64(0);
  w.write_u8(f.present ? 1 : 0);
  w.write_u64(f.shards.size());
  for (const ShardFence& s : f.shards) {
    w.write_u64(s.shard);
    w.write_u64(s.generation);
    w.write_u64(s.records);
  }
}

WalFence decode_fence(util::BinaryReader& r) {
  WalFence f;
  r.read_u64();  // the pre-sharding (generation, records) pair
  r.read_u64();
  f.present = r.read_u8() != 0;
  const std::uint64_t nshards =
      r.read_u64_max(r.remaining(), "manifest fence shard count");
  for (std::uint64_t i = 0; i < nshards; ++i) {
    ShardFence s;
    s.shard = r.read_u64();
    s.generation = r.read_u64();
    s.records = r.read_u64();
    f.shards.push_back(s);
  }
  return f;
}

/// The chain-CRC input for one cut: the previous link's CRC followed by
/// every field of this cut (sans its own chain CRC).
std::uint32_t chain_link_crc(std::uint32_t prev, const DeltaCut& c) {
  util::BinaryWriter w;
  w.write_u32(prev);
  w.write_u64(c.cut_id);
  w.write_u64(c.cut_seq);
  w.write_u64(c.extents.size());
  for (const DeltaExtent& e : c.extents) {
    w.write_u64(e.unit);
    w.write_u64(e.offset);
    w.write_u64(e.length);
    w.write_u64(e.records);
    w.write_u32(e.crc);
  }
  return util::crc32(w.buffer().data(), w.size());
}

[[noreturn]] void corrupt(const std::string& what) {
  throw PersistError("delta manifest corrupt: " + what,
                     PersistError::Code::kCorruption);
}

}  // namespace

std::uint64_t DeltaManifest::segment_end(std::uint64_t unit) const {
  std::uint64_t end = kSegmentHeaderBytes;
  for (const DeltaCut& c : cuts)
    for (const DeltaExtent& e : c.extents)
      if (e.unit == unit) end = std::max(end, e.offset + e.length);
  return end;
}

std::uint64_t DeltaManifest::fenced_records(std::uint64_t shard,
                                            std::uint64_t generation) const {
  if (!fence.present) return 0;
  for (const ShardFence& s : fence.shards)
    if (s.shard == shard) return s.generation == generation ? s.records : 0;
  return 0;
}

std::string ckpt_dir(const std::string& dir) { return dir + "/ckpt"; }

std::string manifest_path(const std::string& dir) {
  return ckpt_dir(dir) + "/MANIFEST";
}

std::string base_path(const std::string& dir, std::uint64_t base_id) {
  return ckpt_dir(dir) + "/base-" + std::to_string(base_id) + ".bin";
}

std::string segment_dir(const std::string& dir) {
  return ckpt_dir(dir) + "/units";
}

std::string segment_path(const std::string& dir, std::uint64_t unit) {
  return segment_dir(dir) + "/" + std::to_string(unit) + ".seg";
}

bool manifest_exists(const std::string& dir) {
  std::error_code ec;
  return fs::exists(manifest_path(dir), ec);
}

DeltaManifest read_manifest(const std::string& dir) {
  const std::string path = manifest_path(dir);
  if (!manifest_exists(dir))
    throw PersistError("no delta manifest: " + path,
                       PersistError::Code::kNotFound);
  std::vector<std::uint8_t> bytes;
  try {
    bytes = util::read_file_bytes(path);
  } catch (const util::BinaryIoError& e) {
    throw PersistError(e.what(), PersistError::Code::kIo);
  }

  try {
    if (bytes.size() < sizeof(kManifestMagic) + 4) corrupt("truncated header");
    if (std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) != 0)
      corrupt("bad magic");
    // The trailer CRC covers everything between the magic and itself.
    const std::size_t body = bytes.size() - sizeof(kManifestMagic) - 4;
    util::BinaryReader tr(bytes.data() + sizeof(kManifestMagic) + body, 4);
    if (tr.read_u32() !=
        util::crc32(bytes.data() + sizeof(kManifestMagic), body))
      corrupt("trailer checksum mismatch");

    util::BinaryReader r(bytes.data() + sizeof(kManifestMagic), body);
    if (r.read_u32() != kManifestFormatVersion)
      corrupt("unsupported format version");
    DeltaManifest m;
    m.manifest_id = r.read_u64();
    const std::uint8_t kind = r.read_u8();
    if (kind == kBaseKindAdopted) {
      throw PersistError(
          path +
              " has a base of kind 1, an image adopted from the pre-manifest "
              "single-log layout by earlier builds; this release reads only "
              "ckpt/base-<id>.bin bases and has no importer",
          PersistError::Code::kUnsupported);
    }
    if (kind != kBaseKindCheckpoint) corrupt("unknown base kind");
    m.base_id = r.read_u64();
    m.last_cut_seq = r.read_u64();
    m.fence = decode_fence(r);
    const std::uint64_t ncuts = r.read_u64_max(r.remaining(), "cut count");
    std::uint32_t prev_crc = 0;
    for (std::uint64_t i = 0; i < ncuts; ++i) {
      DeltaCut c;
      c.cut_id = r.read_u64();
      c.cut_seq = r.read_u64();
      const std::uint64_t next =
          r.read_u64_max(r.remaining(), "extent count");
      for (std::uint64_t j = 0; j < next; ++j) {
        DeltaExtent e;
        e.unit = r.read_u64();
        e.offset = r.read_u64();
        e.length = r.read_u64();
        e.records = r.read_u64();
        e.crc = r.read_u32();
        c.extents.push_back(e);
      }
      c.chain_crc = r.read_u32();
      if (c.chain_crc != chain_link_crc(prev_crc, c))
        corrupt("chain checksum mismatch at cut " + std::to_string(c.cut_id));
      prev_crc = c.chain_crc;
      m.cuts.push_back(std::move(c));
    }
    if (!r.at_end()) corrupt("trailing bytes");
    return m;
  } catch (const util::BinaryIoError& e) {
    corrupt(e.what());
  }
}

void write_manifest(const std::string& dir, const DeltaManifest& m) {
  std::error_code ec;
  fs::create_directories(ckpt_dir(dir), ec);

  util::BinaryWriter body;
  body.write_u32(kManifestFormatVersion);
  body.write_u64(m.manifest_id);
  body.write_u8(kBaseKindCheckpoint);
  body.write_u64(m.base_id);
  body.write_u64(m.last_cut_seq);
  encode_fence(body, m.fence);
  body.write_u64(m.cuts.size());
  std::uint32_t prev_crc = 0;
  for (const DeltaCut& c : m.cuts) {
    body.write_u64(c.cut_id);
    body.write_u64(c.cut_seq);
    body.write_u64(c.extents.size());
    for (const DeltaExtent& e : c.extents) {
      body.write_u64(e.unit);
      body.write_u64(e.offset);
      body.write_u64(e.length);
      body.write_u64(e.records);
      body.write_u32(e.crc);
    }
    prev_crc = chain_link_crc(prev_crc, c);
    body.write_u32(prev_crc);
  }

  util::BinaryWriter out;
  out.write_bytes(kManifestMagic, sizeof(kManifestMagic));
  out.write_bytes(body.buffer().data(), body.size());
  out.write_u32(util::crc32(body.buffer().data(), body.size()));
  write_file_atomic_faulted(manifest_path(dir), out.buffer(),
                            "ckpt:manifest");
}

DeltaExtent append_segment_extent(const std::string& dir, std::uint64_t unit,
                                  const std::vector<WalRecord>& records,
                                  std::uint64_t known_end) {
  const std::string path = segment_path(dir, unit);
  std::error_code ec;
  fs::create_directories(segment_dir(dir), ec);

  if (!fs::exists(path, ec)) {
    util::BinaryWriter header;
    header.write_bytes(kSegmentMagic, sizeof(kSegmentMagic));
    header.write_u64(unit);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f)
      throw PersistError("cannot create segment: " + path,
                         PersistError::Code::kIo);
    const bool ok = std::fwrite(header.buffer().data(), 1, header.size(), f) ==
                    header.size();
    if (ok) sync_file(f, path);
    std::fclose(f);
    if (!ok)
      throw PersistError("short write creating segment: " + path,
                         PersistError::Code::kIo);
    util::fsync_parent_dir(path);
  }

  // Drop orphan bytes a crashed cut may have appended past the last
  // manifest-known end; splicing the new extent behind them would put its
  // manifest offset out of step with the file.
  fault_point("delta:seg:pre-truncate");
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec)
    throw PersistError("cannot stat segment: " + path,
                       PersistError::Code::kIo);
  if (size < known_end)
    throw PersistError("segment shorter than manifest extent end: " + path,
                       PersistError::Code::kCorruption);
  if (size > known_end) {
    fs::resize_file(path, known_end, ec);
    if (ec)
      throw PersistError("cannot truncate segment: " + path,
                         PersistError::Code::kIo);
  }

  util::BinaryWriter payload;
  for (const WalRecord& rec : records) encode_wal_record(payload, rec);

  fault_point("delta:seg:pre-append");
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (!f)
    throw PersistError("cannot open segment for append: " + path,
                       PersistError::Code::kIo);
  bool ok = std::fwrite(payload.buffer().data(), 1, payload.size(), f) ==
            payload.size();
  if (ok) {
    try {
      fault_point("delta:seg:pre-sync");
      sync_file(f, path);
    } catch (...) {
      std::fclose(f);
      throw;
    }
  }
  std::fclose(f);
  if (!ok)
    throw PersistError("short write appending segment extent: " + path,
                       PersistError::Code::kIo);

  DeltaExtent ext;
  ext.unit = unit;
  ext.offset = known_end;
  ext.length = payload.size();
  ext.records = records.size();
  ext.crc = util::crc32(payload.buffer().data(), payload.size());
  return ext;
}

void read_segment_extent(const std::string& dir, const DeltaExtent& ext,
                         std::vector<WalRecord>* out) {
  const std::string path = segment_path(dir, ext.unit);
  std::vector<std::uint8_t> bytes;
  try {
    bytes = util::read_file_bytes(path);
  } catch (const util::BinaryIoError& e) {
    throw PersistError(e.what(), PersistError::Code::kIo);
  }
  if (bytes.size() < kSegmentHeaderBytes ||
      std::memcmp(bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0)
    throw PersistError("segment header corrupt: " + path,
                       PersistError::Code::kCorruption);
  if (ext.offset + ext.length > bytes.size())
    throw PersistError("segment extent out of bounds: " + path,
                       PersistError::Code::kCorruption);
  if (util::crc32(bytes.data() + ext.offset,
                  static_cast<std::size_t>(ext.length)) != ext.crc)
    throw PersistError("segment extent checksum mismatch: " + path,
                       PersistError::Code::kCorruption);
  util::BinaryReader r(bytes.data() + ext.offset,
                       static_cast<std::size_t>(ext.length));
  try {
    for (std::uint64_t i = 0; i < ext.records; ++i) {
      WalRecord rec;
      if (!decode_wal_record(r, &rec))
        throw PersistError("segment extent has unknown record type: " + path,
                           PersistError::Code::kCorruption);
      out->push_back(std::move(rec));
    }
    if (!r.at_end())
      throw PersistError("segment extent has trailing bytes: " + path,
                         PersistError::Code::kCorruption);
  } catch (const util::BinaryIoError& e) {
    throw PersistError("segment extent truncated: " + path + ": " + e.what(),
                       PersistError::Code::kCorruption);
  }
}

void prune_ckpt_files(const std::string& dir, const DeltaManifest& m) {
  std::error_code ec;
  if (!fs::exists(ckpt_dir(dir), ec)) return;
  // Live set: the referenced base image plus every unit with an extent.
  for (const fs::directory_entry& entry :
       fs::directory_iterator(ckpt_dir(dir), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("base-", 0) != 0) continue;
    if (entry.path().string() == base_path(dir, m.base_id)) continue;
    std::error_code rm_ec;
    fs::remove(entry.path(), rm_ec);
  }
  if (!fs::exists(segment_dir(dir), ec)) return;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(segment_dir(dir), ec)) {
    const std::string name = entry.path().filename().string();
    bool live = false;
    for (const DeltaCut& c : m.cuts) {
      for (const DeltaExtent& e : c.extents) {
        if (name == std::to_string(e.unit) + ".seg") {
          live = true;
          break;
        }
      }
      if (live) break;
    }
    if (!live) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
    }
  }
}

}  // namespace smartstore::persist
