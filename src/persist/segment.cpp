#include "persist/segment.h"

#include <cstring>
#include <filesystem>
#include <system_error>

#include "persist/fault.h"
#include "util/binary_io.h"
#include "util/crc32.h"

namespace smartstore::persist {

namespace fs = std::filesystem;

namespace {

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

[[noreturn]] void corrupt(const std::string& what) {
  throw PersistError("delta manifest corrupt: " + what,
                     PersistError::Code::kCorruption);
}

}  // namespace

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
    m.fold_seq = r.read_u64();
    m.fence = decode_fence(r);
    const std::uint64_t cuts = r.read_u64();
    if (cuts != 0) {
      // The checksum held, so this is the chain of delta cuts an earlier
      // build published onto the base (records in ckpt/units/<u>.seg),
      // not damage.
      throw PersistError(
          path + " chains " + std::to_string(cuts) +
              " delta cuts an earlier build took since its last fold; this "
              "release keeps logged records in the WAL until a fold and has "
              "no chain reader (Compact() the directory with the build that "
              "wrote it first)",
          PersistError::Code::kUnsupported);
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
  body.write_u64(m.fold_seq);
  encode_fence(body, m.fence);
  body.write_u64(0);  // cut count: the WAL is the delta

  util::BinaryWriter out;
  out.write_bytes(kManifestMagic, sizeof(kManifestMagic));
  out.write_bytes(body.buffer().data(), body.size());
  out.write_u32(util::crc32(body.buffer().data(), body.size()));
  write_file_atomic_faulted(manifest_path(dir), out.buffer(),
                            "ckpt:manifest");
}

void prune_ckpt_files(const std::string& dir, const DeltaManifest& m) {
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(ckpt_dir(dir), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("base-", 0) != 0) continue;
    if (entry.path().string() == base_path(dir, m.base_id)) continue;
    std::error_code rm_ec;
    fs::remove(entry.path(), rm_ec);
  }
}

}  // namespace smartstore::persist
