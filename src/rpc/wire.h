// The service tier's wire format: one versioned, CRC-guarded frame shape
// for every request and response between a metadata client and a shard
// server.
//
// A frame is a fixed-size little-endian header followed by a
// method-specific payload:
//
//   u32  magic        'SSRP' (0x53535250) — rejects foreign byte streams
//   u16  version      kWireVersion; a decoder REJECTS frames from a NEWER
//                     version (it cannot know what the fields mean) and
//                     accepts older ones (the format only appends)
//   u8   type         0 = request, 1 = response
//   u8   method       Method enum
//   u8   status       db::StatusCode (responses; requests carry kOk)
//   u8   reserved     zero on the wire (room for flags)
//   u32  shard        request: target shard; response: responding shard
//   u64  client_id    }  the request id: (client_id, seq) — a retry MUST
//   u64  seq          }  resend the same pair so server dedup can keep the
//                        apply exactly-once
//   u64  map_version  request: the client's cached partition-map version;
//                     response: the server's current one
//   u32  payload_len  bytes following the header
//   u32  payload_crc  CRC-32 of the payload bytes
//
// Payload codecs for the metadata vocabulary (FileMetadata, the three
// query types, batches, query results, status messages) live here too —
// the transports move opaque frames; only this header knows what is inside
// them.
//
// The decode entry points are exception-free: malformed input surfaces as
// db::Status (kCorruption for damage, kInvalidArgument for a future wire
// version), never as an exception or an out-of-bounds read (BinaryReader
// bounds-checks every access).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metadata/file_metadata.h"
#include "metadata/query.h"
#include "smartstore/query.h"
#include "smartstore/status.h"
#include "smartstore/store.h"

namespace smartstore::rpc {

inline constexpr std::uint32_t kWireMagic = 0x53535250;  // "SSRP"
/// v2 adds the snapshot-lease methods (kSnapPin / kSnapRelease) and a
/// trailing as-of sequence on the three query payloads (absent in v1
/// frames, decoded as 0 = latest). v3 adds the replication stream
/// (kReplAppend / kReplFrontier / kReplBootstrap). Decoders accept v1/v2
/// unchanged.
inline constexpr std::uint16_t kWireVersion = 3;
/// Fixed header size in bytes (see the layout above).
inline constexpr std::size_t kFrameHeaderBytes =
    4 + 2 + 1 + 1 + 1 + 1 + 4 + 8 + 8 + 8 + 4 + 4;
/// Upper bound a decoder accepts for payload_len: rejects garbage length
/// prefixes before any allocation. Generous — a 64 MiB batch is ~100k
/// records.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

enum class MsgType : std::uint8_t { kRequest = 0, kResponse = 1 };

/// The meta-service method vocabulary. Values are wire-stable: new methods
/// append, existing values never change meaning.
enum class Method : std::uint8_t {
  kPing = 0,        ///< liveness probe; echoes the payload
  kPut = 1,         ///< upsert one FileMetadata record (keyed, deduped)
  kDelete = 2,      ///< delete by filename (keyed, deduped)
  kPointQuery = 3,  ///< filename lookup (keyed)
  kRangeQuery = 4,  ///< multi-dimensional interval (scatter-gather)
  kTopKQuery = 5,   ///< k nearest neighbors (scatter-gather)
  kBatchWrite = 6,  ///< ordered put/delete batch (keyed per-op, deduped)
  kFlush = 7,       ///< group-commit the shard's WAL
  kGetMap = 8,      ///< fetch the authoritative partition map
  kStats = 9,       ///< shard counters (applied ops, dup hits, files)
  kSnapPin = 10,    ///< pin a shard snapshot; response carries the lease
  kSnapRelease = 11,  ///< drop a snapshot lease (payload: the lease)
  // v3: the primary -> follower replication stream. These carry the map
  // EPOCH in the frame's map_version field — a follower rejects frames
  // from a deposed primary (stale epoch) with kFailedPrecondition.
  kReplAppend = 12,  ///< committed-record batch; response: follower frontier
  kReplFrontier = 13,  ///< read the follower's durable frontier (empty req)
  kReplBootstrap = 14,  ///< full snapshot push to an empty late joiner
};

const char* method_name(Method m);

struct Frame {
  MsgType type = MsgType::kRequest;
  Method method = Method::kPing;
  db::StatusCode status = db::StatusCode::kOk;  ///< responses only
  std::uint32_t shard = 0;
  std::uint64_t client_id = 0;
  std::uint64_t seq = 0;
  std::uint64_t map_version = 0;
  std::vector<std::uint8_t> payload;
};

/// Serializes `f` into the wire layout (header + payload + CRC).
std::vector<std::uint8_t> encode_frame(const Frame& f);

/// Parses one complete frame. Errors: kCorruption (bad magic, bad CRC,
/// truncation, trailing bytes), kInvalidArgument (newer wire version).
db::Status decode_frame(const std::uint8_t* data, std::size_t size,
                        Frame* out);
db::Status decode_frame(const std::vector<std::uint8_t>& bytes, Frame* out);

/// Reads payload_len out of a serialized header so a stream transport
/// knows how many more bytes to read. Validates magic/version/bounds.
db::Status peek_payload_len(const std::uint8_t* header, std::size_t size,
                            std::uint32_t* len);

// ---- payload codecs ---------------------------------------------------------
//
// Writers append to a byte buffer; readers are exception-free wrappers
// that surface malformed payloads as kCorruption. Each request/response
// payload is the concatenation of the fields its method needs.

void encode_file(const metadata::FileMetadata& f,
                 std::vector<std::uint8_t>* out);
db::Status decode_file(const std::vector<std::uint8_t>& in,
                       metadata::FileMetadata* out);

void encode_name(const std::string& name, std::vector<std::uint8_t>* out);
db::Status decode_name(const std::vector<std::uint8_t>& in, std::string* out);

// The three query payloads end with a trailing as-of token (v2).
// kAsOfLatest (0) selects the routed/semantic read path; any other value
// t asks the shard for an exact snapshot scan at commit seq t - 1. The
// +1 bias keeps seq 0 — a freshly pinned empty shard — distinguishable
// from "latest". A v1 payload simply lacks the field and decodes as
// kAsOfLatest; decoders that don't care may pass a null as_of.

/// Wire value of the query as-of token meaning "read latest".
inline constexpr std::uint64_t kAsOfLatest = 0;

/// Commit seq -> wire as-of token (and back, on the serving side).
inline constexpr std::uint64_t as_of_token(std::uint64_t seq) {
  return seq + 1;
}

void encode_point_query(const metadata::PointQuery& q,
                        std::vector<std::uint8_t>* out,
                        std::uint64_t as_of = 0);
db::Status decode_point_query(const std::vector<std::uint8_t>& in,
                              metadata::PointQuery* out,
                              std::uint64_t* as_of = nullptr);

void encode_range_query(const metadata::RangeQuery& q,
                        std::vector<std::uint8_t>* out,
                        std::uint64_t as_of = 0);
db::Status decode_range_query(const std::vector<std::uint8_t>& in,
                              metadata::RangeQuery* out,
                              std::uint64_t* as_of = nullptr);

void encode_topk_query(const metadata::TopKQuery& q,
                       std::vector<std::uint8_t>* out,
                       std::uint64_t as_of = 0);
db::Status decode_topk_query(const std::vector<std::uint8_t>& in,
                             metadata::TopKQuery* out,
                             std::uint64_t* as_of = nullptr);

/// A shard's snapshot lease: the pinned commit seq plus the server-issued
/// id a release must quote. kSnapPin requests carry an empty payload and
/// get a lease back; kSnapRelease requests send the lease back verbatim.
struct SnapshotLease {
  std::uint64_t lease_id = 0;
  std::uint64_t seq = 0;
};

void encode_snapshot_lease(const SnapshotLease& l,
                           std::vector<std::uint8_t>* out);
db::Status decode_snapshot_lease(const std::vector<std::uint8_t>& in,
                                 SnapshotLease* out);

/// One batch op: a put (carrying a record) or a delete (carrying a name).
struct BatchOp {
  bool is_put = true;
  metadata::FileMetadata file;  ///< puts
  std::string name;             ///< deletes
};

void encode_batch(const std::vector<BatchOp>& ops,
                  std::vector<std::uint8_t>* out);
db::Status decode_batch(const std::vector<std::uint8_t>& in,
                        std::vector<BatchOp>* out);

/// Query responses reuse the facade's public result type; the full shape
/// (ids, hits, per-op stats) round-trips so the router can merge
/// scatter-gather results and the bench can account redirect-free latency.
void encode_query_result(const db::QueryResult& r,
                         std::vector<std::uint8_t>* out);
db::Status decode_query_result(const std::vector<std::uint8_t>& in,
                               db::QueryResult* out);

/// Error responses carry their message as the payload.
void encode_message(const std::string& msg, std::vector<std::uint8_t>* out);
db::Status decode_message(const std::vector<std::uint8_t>& in,
                          std::string* out);

/// Per-shard counters for Method::kStats.
struct ShardStats {
  std::uint64_t applied_puts = 0;
  std::uint64_t applied_deletes = 0;
  std::uint64_t dup_hits = 0;      ///< retries answered from the dedup table
  std::uint64_t wrong_shard = 0;   ///< requests redirected away
  std::uint64_t total_files = 0;   ///< records currently hosted
};

void encode_shard_stats(const ShardStats& s, std::vector<std::uint8_t>* out);
db::Status decode_shard_stats(const std::vector<std::uint8_t>& in,
                              ShardStats* out);

// ---- replication stream (v3) ------------------------------------------------

/// One committed WAL record on the wire — the store's own replication
/// record: the primary's seq travels with the op so the follower's log
/// (and MVCC visibility) stays seq-identical to what clients were acked.
/// A NOOP op carries only the seq — it marks a sequence number the primary
/// consumed on a replica-private structural record (unit split/merge); the
/// follower must still account the seq or the contiguous stream (and a
/// promoted follower's stamp counter) would hold a permanent hole.
using ReplOp = db::ReplicatedOp;

/// kReplAppend request: a seq-contiguous run of committed records.
/// `sync_engaged` is the primary's statement that this follower is fully
/// caught up (no degraded-window acks outstanding) — the follower latches
/// it into its promotion-eligibility "ready" flag.
struct ReplBatch {
  bool sync_engaged = false;
  std::vector<ReplOp> ops;
};

void encode_repl_batch(const ReplBatch& b, std::vector<std::uint8_t>* out);
db::Status decode_repl_batch(const std::vector<std::uint8_t>& in,
                             ReplBatch* out);

/// Response payload for all three replication methods, and the promotion
/// scan's input: the follower's durable frontier (highest seq both applied
/// and WAL-committed locally) plus whether it is promotion-eligible.
struct ReplStatus {
  std::uint64_t frontier = 0;
  bool ready = false;
};

void encode_repl_status(const ReplStatus& s, std::vector<std::uint8_t>* out);
db::Status decode_repl_status(const std::vector<std::uint8_t>& in,
                              ReplStatus* out);

/// kReplBootstrap request: the primary's full state at snapshot seq `seq`.
/// The receiving store must be EMPTY; it loads the dump, then the regular
/// append stream resumes from the retained buffer (overlap is skipped by
/// the follower's frontier gate).
struct ReplBootstrap {
  std::uint64_t seq = 0;
  std::vector<metadata::FileMetadata> files;
};

void encode_repl_bootstrap(const ReplBootstrap& b,
                           std::vector<std::uint8_t>* out);
db::Status decode_repl_bootstrap(const std::vector<std::uint8_t>& in,
                                 ReplBootstrap* out);

}  // namespace smartstore::rpc
