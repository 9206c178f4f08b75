#include "rpc/wire.h"

#include <cstring>
#include <utility>

#include "util/binary_io.h"
#include "util/crc32.h"

namespace smartstore::rpc {

namespace {

/// Runs a BinaryReader decode body, mapping the reader's bounds-check
/// exception onto the wire boundary's kCorruption contract.
template <typename Fn>
db::Status decode_guard(const char* what, Fn&& fn) {
  try {
    fn();
    return db::Status::OK();
  } catch (const util::BinaryIoError& e) {
    return db::Status::Corruption(std::string(what) + ": " + e.what());
  } catch (const std::exception& e) {
    return db::Status::Corruption(std::string(what) + ": " + e.what());
  }
}

std::uint32_t payload_crc(const std::vector<std::uint8_t>& p) {
  return p.empty() ? util::crc32_final(util::crc32_init())
                   : util::crc32(p.data(), p.size());
}

void write_file_fields(util::BinaryWriter& w, const metadata::FileMetadata& f) {
  w.write_u64(f.id);
  w.write_string(f.name);
  w.write_f64_block(f.attrs.data(), f.attrs.size());
}

void read_file_fields(util::BinaryReader& r, metadata::FileMetadata* f) {
  f->id = r.read_u64();
  f->name = r.read_string();
  for (std::size_t i = 0; i < metadata::kNumAttrs; ++i) {
    f->attrs[i] = r.read_f64();
  }
}

void write_dims(util::BinaryWriter& w, const metadata::AttrSubset& dims) {
  w.write_u64(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    w.write_u8(static_cast<std::uint8_t>(dims[i]));
  }
}

metadata::AttrSubset read_dims(util::BinaryReader& r) {
  const std::uint64_t n =
      r.read_u64_max(metadata::kNumAttrs, "attr subset size");
  std::vector<metadata::Attr> attrs;
  attrs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint8_t a = r.read_u8();
    if (a >= metadata::kNumAttrs) {
      throw util::BinaryIoError("attribute id out of range");
    }
    attrs.push_back(static_cast<metadata::Attr>(a));
  }
  return metadata::AttrSubset(std::move(attrs));
}

}  // namespace

const char* method_name(Method m) {
  switch (m) {
    case Method::kPing: return "ping";
    case Method::kPut: return "put";
    case Method::kDelete: return "delete";
    case Method::kPointQuery: return "point-query";
    case Method::kRangeQuery: return "range-query";
    case Method::kTopKQuery: return "topk-query";
    case Method::kBatchWrite: return "batch-write";
    case Method::kFlush: return "flush";
    case Method::kGetMap: return "get-map";
    case Method::kStats: return "stats";
    case Method::kSnapPin: return "snap-pin";
    case Method::kSnapRelease: return "snap-release";
    case Method::kReplAppend: return "repl-append";
    case Method::kReplFrontier: return "repl-frontier";
    case Method::kReplBootstrap: return "repl-bootstrap";
  }
  return "?";
}

// ---- frame ------------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(const Frame& f) {
  util::BinaryWriter w;
  w.reserve(kFrameHeaderBytes + f.payload.size());
  w.write_u32(kWireMagic);
  // write_u32 is the only fixed-width integer writer below u64; the u16
  // version travels in a u32's low half (the header layout counts it as
  // 2 bytes of that u32; the high half is the type/method pair).
  w.write_u8(static_cast<std::uint8_t>(kWireVersion & 0xff));
  w.write_u8(static_cast<std::uint8_t>(kWireVersion >> 8));
  w.write_u8(static_cast<std::uint8_t>(f.type));
  w.write_u8(static_cast<std::uint8_t>(f.method));
  w.write_u8(static_cast<std::uint8_t>(f.status));
  w.write_u8(0);  // reserved
  w.write_u32(f.shard);
  w.write_u64(f.client_id);
  w.write_u64(f.seq);
  w.write_u64(f.map_version);
  w.write_u32(static_cast<std::uint32_t>(f.payload.size()));
  w.write_u32(payload_crc(f.payload));
  w.write_bytes(f.payload.data(), f.payload.size());
  return w.release();
}

db::Status peek_payload_len(const std::uint8_t* header, std::size_t size,
                            std::uint32_t* len) {
  if (size < kFrameHeaderBytes) {
    return db::Status::Corruption("frame header truncated");
  }
  return decode_guard("frame header", [&] {
    util::BinaryReader r(header, kFrameHeaderBytes);
    if (r.read_u32() != kWireMagic) {
      throw util::BinaryIoError("bad frame magic");
    }
    const std::uint16_t version = static_cast<std::uint16_t>(
        r.read_u8() | (static_cast<std::uint16_t>(r.read_u8()) << 8));
    if (version > kWireVersion) {
      throw util::BinaryIoError("frame from a newer wire version");
    }
    r.skip(4);  // type, method, status, reserved
    r.skip(4 + 8 + 8 + 8);
    const std::uint32_t payload_len = r.read_u32();
    if (payload_len > kMaxPayloadBytes) {
      throw util::BinaryIoError("implausible payload length");
    }
    *len = payload_len;
  });
}

db::Status decode_frame(const std::uint8_t* data, std::size_t size,
                        Frame* out) {
  if (size < kFrameHeaderBytes) {
    return db::Status::Corruption("frame truncated before header end");
  }
  util::BinaryReader r(data, size);
  std::uint16_t version = 0;
  db::Status s = decode_guard("frame", [&] {
    if (r.read_u32() != kWireMagic) {
      throw util::BinaryIoError("bad frame magic");
    }
    version = static_cast<std::uint16_t>(
        r.read_u8() | (static_cast<std::uint16_t>(r.read_u8()) << 8));
  });
  if (!s.ok()) return s;
  if (version > kWireVersion) {
    return db::Status::InvalidArgument(
        "frame from wire version " + std::to_string(version) +
        " (this build speaks " + std::to_string(kWireVersion) + ")");
  }
  return decode_guard("frame", [&] {
    const std::uint8_t type = r.read_u8();
    if (type > static_cast<std::uint8_t>(MsgType::kResponse)) {
      throw util::BinaryIoError("bad message type");
    }
    out->type = static_cast<MsgType>(type);
    const std::uint8_t method = r.read_u8();
    if (method > static_cast<std::uint8_t>(Method::kReplBootstrap)) {
      throw util::BinaryIoError("unknown method");
    }
    out->method = static_cast<Method>(method);
    const std::uint8_t status = r.read_u8();
    if (status >= db::kNumStatusCodes) {
      throw util::BinaryIoError("status code out of range");
    }
    out->status = static_cast<db::StatusCode>(status);
    r.skip(1);  // reserved
    out->shard = r.read_u32();
    out->client_id = r.read_u64();
    out->seq = r.read_u64();
    out->map_version = r.read_u64();
    const std::uint32_t payload_len = r.read_u32();
    if (payload_len > kMaxPayloadBytes) {
      throw util::BinaryIoError("implausible payload length");
    }
    const std::uint32_t crc = r.read_u32();
    if (r.remaining() != payload_len) {
      throw util::BinaryIoError("payload length does not match frame size");
    }
    out->payload.assign(data + r.position(), data + r.position() + payload_len);
    if (payload_crc(out->payload) != crc) {
      throw util::BinaryIoError("payload CRC mismatch");
    }
  });
}

db::Status decode_frame(const std::vector<std::uint8_t>& bytes, Frame* out) {
  return decode_frame(bytes.data(), bytes.size(), out);
}

// ---- payload codecs ---------------------------------------------------------

void encode_file(const metadata::FileMetadata& f,
                 std::vector<std::uint8_t>* out) {
  util::BinaryWriter w(std::move(*out));
  write_file_fields(w, f);
  *out = w.release();
}

db::Status decode_file(const std::vector<std::uint8_t>& in,
                       metadata::FileMetadata* out) {
  return decode_guard("file payload", [&] {
    util::BinaryReader r(in);
    read_file_fields(r, out);
  });
}

void encode_name(const std::string& name, std::vector<std::uint8_t>* out) {
  util::BinaryWriter w(std::move(*out));
  w.write_string(name);
  *out = w.release();
}

db::Status decode_name(const std::vector<std::uint8_t>& in, std::string* out) {
  return decode_guard("name payload", [&] {
    util::BinaryReader r(in);
    *out = r.read_string();
  });
}

namespace {

/// The v2 trailing as-of seq: v1 payloads end right before it, so a
/// remaining() check is the version switch (0 = latest either way).
std::uint64_t read_as_of_tail(util::BinaryReader& r) {
  return r.remaining() >= 8 ? r.read_u64() : 0;
}

}  // namespace

void encode_point_query(const metadata::PointQuery& q,
                        std::vector<std::uint8_t>* out, std::uint64_t as_of) {
  util::BinaryWriter w(std::move(*out));
  w.write_string(q.filename);
  w.write_u64(as_of);
  *out = w.release();
}

db::Status decode_point_query(const std::vector<std::uint8_t>& in,
                              metadata::PointQuery* out,
                              std::uint64_t* as_of) {
  return decode_guard("point query payload", [&] {
    util::BinaryReader r(in);
    out->filename = r.read_string();
    const std::uint64_t seq = read_as_of_tail(r);
    if (as_of != nullptr) *as_of = seq;
  });
}

void encode_range_query(const metadata::RangeQuery& q,
                        std::vector<std::uint8_t>* out, std::uint64_t as_of) {
  util::BinaryWriter w(std::move(*out));
  write_dims(w, q.dims);
  w.write_vec_f64(q.lo);
  w.write_vec_f64(q.hi);
  w.write_u64(as_of);
  *out = w.release();
}

db::Status decode_range_query(const std::vector<std::uint8_t>& in,
                              metadata::RangeQuery* out,
                              std::uint64_t* as_of) {
  return decode_guard("range query payload", [&] {
    util::BinaryReader r(in);
    out->dims = read_dims(r);
    out->lo = r.read_vec_f64();
    out->hi = r.read_vec_f64();
    const std::uint64_t seq = read_as_of_tail(r);
    if (as_of != nullptr) *as_of = seq;
  });
}

void encode_topk_query(const metadata::TopKQuery& q,
                       std::vector<std::uint8_t>* out, std::uint64_t as_of) {
  util::BinaryWriter w(std::move(*out));
  write_dims(w, q.dims);
  w.write_vec_f64(q.point);
  w.write_u64(q.k);
  w.write_u64(as_of);
  *out = w.release();
}

db::Status decode_topk_query(const std::vector<std::uint8_t>& in,
                             metadata::TopKQuery* out, std::uint64_t* as_of) {
  return decode_guard("topk query payload", [&] {
    util::BinaryReader r(in);
    out->dims = read_dims(r);
    out->point = r.read_vec_f64();
    out->k = r.read_u64();
    const std::uint64_t seq = read_as_of_tail(r);
    if (as_of != nullptr) *as_of = seq;
  });
}

void encode_snapshot_lease(const SnapshotLease& l,
                           std::vector<std::uint8_t>* out) {
  util::BinaryWriter w(std::move(*out));
  w.write_u64(l.lease_id);
  w.write_u64(l.seq);
  *out = w.release();
}

db::Status decode_snapshot_lease(const std::vector<std::uint8_t>& in,
                                 SnapshotLease* out) {
  return decode_guard("snapshot lease payload", [&] {
    util::BinaryReader r(in);
    out->lease_id = r.read_u64();
    out->seq = r.read_u64();
  });
}

void encode_batch(const std::vector<BatchOp>& ops,
                  std::vector<std::uint8_t>* out) {
  util::BinaryWriter w(std::move(*out));
  w.write_u64(ops.size());
  for (const BatchOp& op : ops) {
    w.write_u8(op.is_put ? 1 : 0);
    if (op.is_put) {
      write_file_fields(w, op.file);
    } else {
      w.write_string(op.name);
    }
  }
  *out = w.release();
}

db::Status decode_batch(const std::vector<std::uint8_t>& in,
                        std::vector<BatchOp>* out) {
  return decode_guard("batch payload", [&] {
    util::BinaryReader r(in);
    // Each op is at least 2 bytes (tag + shortest field), so a count
    // larger than the remaining bytes is garbage, not a big batch.
    const std::uint64_t n = r.read_u64_max(r.remaining(), "batch op count");
    out->clear();
    out->reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      BatchOp op;
      op.is_put = r.read_u8() != 0;
      if (op.is_put) {
        read_file_fields(r, &op.file);
      } else {
        op.name = r.read_string();
      }
      out->push_back(std::move(op));
    }
  });
}

void encode_query_result(const db::QueryResult& r,
                         std::vector<std::uint8_t>* out) {
  util::BinaryWriter w(std::move(*out));
  w.write_u8(static_cast<std::uint8_t>(r.kind));
  w.write_bool(r.found);
  w.write_u64(r.id);
  w.write_u64(r.unit);
  w.write_bool(r.first_try);
  w.write_vec_u64(r.ids);
  w.write_u64(r.hits.size());
  for (const auto& [dist, id] : r.hits) {
    w.write_f64(dist);
    w.write_u64(id);
  }
  w.write_f64(0.0);  // retired slot (see wire.h)
  w.write_u64(r.stats.messages);
  w.write_u64(r.stats.hops);
  w.write_i32(r.stats.routing_hops);
  w.write_u64(r.stats.groups_visited);
  w.write_u64(r.stats.records_scanned);
  w.write_f64(0.0);  // retired slot
  w.write_bool(r.stats.failed);
  *out = w.release();
}

db::Status decode_query_result(const std::vector<std::uint8_t>& in,
                               db::QueryResult* out) {
  return decode_guard("query result payload", [&] {
    util::BinaryReader r(in);
    const std::uint8_t kind = r.read_u8();
    if (kind > static_cast<std::uint8_t>(db::QueryKind::kTopK)) {
      throw util::BinaryIoError("query kind out of range");
    }
    out->kind = static_cast<db::QueryKind>(kind);
    out->found = r.read_bool();
    out->id = r.read_u64();
    out->unit = r.read_u64();
    out->first_try = r.read_bool();
    out->ids = r.read_vec_u64();
    const std::uint64_t nhits =
        r.read_u64_max(r.remaining() / (8 + 8), "hit count");
    out->hits.clear();
    out->hits.reserve(nhits);
    for (std::uint64_t i = 0; i < nhits; ++i) {
      const double dist = r.read_f64();
      const std::uint64_t id = r.read_u64();
      out->hits.emplace_back(dist, id);
    }
    r.skip(sizeof(double));  // retired slot
    out->stats.messages = r.read_u64();
    out->stats.hops = r.read_u64();
    out->stats.routing_hops = r.read_i32();
    out->stats.groups_visited = r.read_u64();
    out->stats.records_scanned = r.read_u64();
    r.skip(sizeof(double));  // retired slot
    out->stats.failed = r.read_bool();
  });
}

void encode_message(const std::string& msg, std::vector<std::uint8_t>* out) {
  encode_name(msg, out);
}

db::Status decode_message(const std::vector<std::uint8_t>& in,
                          std::string* out) {
  return decode_name(in, out);
}

db::Status response_status(const Frame& f) {
  if (f.status == db::StatusCode::kOk) return db::Status();
  std::string msg;
  (void)decode_message(f.payload, &msg);  // best-effort
  return db::Status::FromCode(f.status, std::move(msg));
}

void encode_shard_stats(const ShardStats& s, std::vector<std::uint8_t>* out) {
  util::BinaryWriter w(std::move(*out));
  w.write_u64(s.applied_puts);
  w.write_u64(s.applied_deletes);
  w.write_u64(s.dup_hits);
  w.write_u64(s.wrong_shard);
  w.write_u64(s.total_files);
  *out = w.release();
}

db::Status decode_shard_stats(const std::vector<std::uint8_t>& in,
                              ShardStats* out) {
  return decode_guard("shard stats payload", [&] {
    util::BinaryReader r(in);
    out->applied_puts = r.read_u64();
    out->applied_deletes = r.read_u64();
    out->dup_hits = r.read_u64();
    out->wrong_shard = r.read_u64();
    out->total_files = r.read_u64();
  });
}

// ---- replication stream (v3) ------------------------------------------------

void encode_repl_batch(const ReplBatch& b, std::vector<std::uint8_t>* out) {
  util::BinaryWriter w(std::move(*out));
  w.write_bool(b.sync_engaged);
  w.write_u64(b.ops.size());
  for (const ReplOp& op : b.ops) {
    // Tag: 0 = remove, 1 = insert; the decoder refuses any other.
    w.write_u8(op.is_insert ? 1 : 0);
    w.write_u64(op.seq);
    if (op.is_insert) {
      write_file_fields(w, op.file);
    } else {
      w.write_string(op.name);
    }
  }
  *out = w.release();
}

db::Status decode_repl_batch(const std::vector<std::uint8_t>& in,
                             ReplBatch* out) {
  return decode_guard("repl batch payload", [&] {
    util::BinaryReader r(in);
    out->sync_engaged = r.read_bool();
    // Each op is at least 9 bytes (tag + seq), so a count above the
    // remaining byte count is garbage, not a big batch.
    const std::uint64_t n = r.read_u64_max(r.remaining(), "repl op count");
    out->ops.clear();
    out->ops.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      ReplOp op;
      const std::uint8_t tag = r.read_u8();
      if (tag > 1) throw util::BinaryIoError("bad repl op tag");
      op.is_insert = tag == 1;
      op.seq = r.read_u64();
      if (op.is_insert) {
        read_file_fields(r, &op.file);
      } else {
        op.name = r.read_string();
      }
      out->ops.push_back(std::move(op));
    }
  });
}

void encode_repl_status(const ReplStatus& s, std::vector<std::uint8_t>* out) {
  util::BinaryWriter w(std::move(*out));
  w.write_u64(s.frontier);
  w.write_bool(s.ready);
  *out = w.release();
}

db::Status decode_repl_status(const std::vector<std::uint8_t>& in,
                              ReplStatus* out) {
  return decode_guard("repl status payload", [&] {
    util::BinaryReader r(in);
    out->frontier = r.read_u64();
    out->ready = r.read_bool();
  });
}

void encode_repl_bootstrap(const ReplBootstrap& b,
                           std::vector<std::uint8_t>* out) {
  util::BinaryWriter w(std::move(*out));
  w.write_u64(b.seq);
  w.write_u64(b.files.size());
  for (const metadata::FileMetadata& f : b.files) {
    write_file_fields(w, f);
  }
  *out = w.release();
}

db::Status decode_repl_bootstrap(const std::vector<std::uint8_t>& in,
                                 ReplBootstrap* out) {
  return decode_guard("repl bootstrap payload", [&] {
    util::BinaryReader r(in);
    out->seq = r.read_u64();
    // A serialized record is well over 8 bytes; remaining() bounds the
    // count the same way the batch codec does.
    const std::uint64_t n = r.read_u64_max(r.remaining(), "bootstrap count");
    out->files.clear();
    out->files.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      metadata::FileMetadata f;
      read_file_fields(r, &f);
      out->files.push_back(std::move(f));
    }
  });
}

}  // namespace smartstore::rpc
