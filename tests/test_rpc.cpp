// The rpc layer: wire-format round trips and rejection of damaged or
// future-versioned frames; the in-process transport's bind/call/unbind
// lifecycle; the fault-injecting channel's bookkeeping; and a socket
// round trip over loopback TCP (same Channel contract, real kernel).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "metadata/schema.h"
#include "rpc/fault.h"
#include "rpc/inproc.h"
#include "rpc/socket.h"
#include "rpc/wire.h"
#include "util/binary_io.h"

namespace {

using namespace smartstore;

metadata::FileMetadata make_file(std::uint64_t id) {
  metadata::FileMetadata f;
  f.id = id;
  f.name = "/sub0/u001/app002/f" + std::to_string(id) + ".dat";
  for (std::size_t a = 0; a < metadata::kNumAttrs; ++a)
    f.attrs[a] = static_cast<double>(id) * 1.5 + static_cast<double>(a);
  return f;
}

rpc::Frame make_request(rpc::Method m) {
  rpc::Frame f;
  f.type = rpc::MsgType::kRequest;
  f.method = m;
  f.shard = 3;
  f.client_id = 42;
  f.seq = 7;
  f.map_version = 2;
  return f;
}

// ---- frame ------------------------------------------------------------------

TEST(Wire, FrameRoundTrip) {
  rpc::Frame f = make_request(rpc::Method::kPut);
  rpc::encode_file(make_file(9), &f.payload);

  const std::vector<std::uint8_t> bytes = rpc::encode_frame(f);
  ASSERT_EQ(bytes.size(), rpc::kFrameHeaderBytes + f.payload.size());

  rpc::Frame out;
  ASSERT_TRUE(rpc::decode_frame(bytes, &out).ok());
  EXPECT_EQ(out.type, f.type);
  EXPECT_EQ(out.method, f.method);
  EXPECT_EQ(out.status, f.status);
  EXPECT_EQ(out.shard, f.shard);
  EXPECT_EQ(out.client_id, f.client_id);
  EXPECT_EQ(out.seq, f.seq);
  EXPECT_EQ(out.map_version, f.map_version);
  EXPECT_EQ(out.payload, f.payload);
}

TEST(Wire, EmptyPayloadRoundTrip) {
  const rpc::Frame f = make_request(rpc::Method::kPing);
  rpc::Frame out;
  ASSERT_TRUE(rpc::decode_frame(rpc::encode_frame(f), &out).ok());
  EXPECT_TRUE(out.payload.empty());
}

TEST(Wire, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes =
      rpc::encode_frame(make_request(rpc::Method::kPing));
  bytes[0] ^= 0xff;
  rpc::Frame out;
  EXPECT_EQ(rpc::decode_frame(bytes, &out).code(),
            db::StatusCode::kCorruption);
}

TEST(Wire, RejectsPayloadCorruption) {
  rpc::Frame f = make_request(rpc::Method::kPut);
  rpc::encode_file(make_file(1), &f.payload);
  std::vector<std::uint8_t> bytes = rpc::encode_frame(f);
  bytes.back() ^= 0x01;  // flip one payload bit: the CRC must catch it
  rpc::Frame out;
  EXPECT_EQ(rpc::decode_frame(bytes, &out).code(),
            db::StatusCode::kCorruption);
}

TEST(Wire, RejectsTruncation) {
  const std::vector<std::uint8_t> bytes =
      rpc::encode_frame(make_request(rpc::Method::kPing));
  rpc::Frame out;
  for (const std::size_t cut : {std::size_t{0}, std::size_t{5},
                                rpc::kFrameHeaderBytes - 1}) {
    EXPECT_EQ(rpc::decode_frame(bytes.data(), cut, &out).code(),
              db::StatusCode::kCorruption)
        << "prefix of " << cut << " bytes";
  }
}

TEST(Wire, RejectsFutureVersion) {
  std::vector<std::uint8_t> bytes =
      rpc::encode_frame(make_request(rpc::Method::kPing));
  bytes[4] = static_cast<std::uint8_t>((rpc::kWireVersion + 1) & 0xff);
  bytes[5] = static_cast<std::uint8_t>((rpc::kWireVersion + 1) >> 8);
  rpc::Frame out;
  // A newer version is a negotiation failure, not damage.
  EXPECT_EQ(rpc::decode_frame(bytes, &out).code(),
            db::StatusCode::kInvalidArgument);
}

TEST(Wire, PeekPayloadLen) {
  rpc::Frame f = make_request(rpc::Method::kPut);
  f.payload.assign(123, 0xab);
  const std::vector<std::uint8_t> bytes = rpc::encode_frame(f);
  std::uint32_t len = 0;
  ASSERT_TRUE(
      rpc::peek_payload_len(bytes.data(), rpc::kFrameHeaderBytes, &len).ok());
  EXPECT_EQ(len, 123u);
}

// ---- payload codecs ---------------------------------------------------------

TEST(Wire, FilePayloadRoundTrip) {
  const metadata::FileMetadata f = make_file(77);
  std::vector<std::uint8_t> bytes;
  rpc::encode_file(f, &bytes);
  metadata::FileMetadata out;
  ASSERT_TRUE(rpc::decode_file(bytes, &out).ok());
  EXPECT_EQ(out.id, f.id);
  EXPECT_EQ(out.name, f.name);
  EXPECT_EQ(out.attrs, f.attrs);
}

TEST(Wire, PayloadCodecsAppendToTheCallersBuffer) {
  // A codec writes after whatever its output vector already holds.
  const std::vector<std::uint8_t> prefix = {0xAA, 0xBB, 0xCC};
  std::vector<std::uint8_t> alone;
  rpc::encode_file(make_file(5), &alone);
  rpc::encode_name("x.dat", &alone);
  std::vector<std::uint8_t> bytes = prefix;
  rpc::encode_file(make_file(5), &bytes);
  rpc::encode_name("x.dat", &bytes);
  ASSERT_EQ(bytes.size(), prefix.size() + alone.size());
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), bytes.begin()));
  EXPECT_TRUE(std::equal(alone.begin(), alone.end(),
                         bytes.begin() + static_cast<std::ptrdiff_t>(
                                             prefix.size())));
}

TEST(Wire, QueryPayloadRoundTrips) {
  metadata::RangeQuery rq;
  rq.dims = metadata::AttrSubset(
      {metadata::Attr::kModificationTime, metadata::Attr::kReadBytes});
  rq.lo = la::Vector{0.0, 10.0};
  rq.hi = la::Vector{5.0, 50.0};
  std::vector<std::uint8_t> bytes;
  rpc::encode_range_query(rq, &bytes);
  metadata::RangeQuery rq_out;
  ASSERT_TRUE(rpc::decode_range_query(bytes, &rq_out).ok());
  ASSERT_EQ(rq_out.dims.size(), 2u);
  EXPECT_EQ(rq_out.dims[0], metadata::Attr::kModificationTime);
  EXPECT_DOUBLE_EQ(rq_out.hi[1], 50.0);

  metadata::TopKQuery tq;
  tq.dims = rq.dims;
  tq.point = la::Vector{1.0, 2.0};
  tq.k = 5;
  bytes.clear();
  rpc::encode_topk_query(tq, &bytes);
  metadata::TopKQuery tq_out;
  ASSERT_TRUE(rpc::decode_topk_query(bytes, &tq_out).ok());
  EXPECT_EQ(tq_out.k, 5u);
  EXPECT_DOUBLE_EQ(tq_out.point[0], 1.0);
}

TEST(Wire, QueryAsOfTokenRoundTrip) {
  metadata::RangeQuery rq;
  rq.dims = metadata::AttrSubset({metadata::Attr::kFileSize});
  rq.lo = la::Vector{0.0};
  rq.hi = la::Vector{1.0};
  std::vector<std::uint8_t> bytes;
  rpc::encode_range_query(rq, &bytes, rpc::as_of_token(41));
  metadata::RangeQuery rq_out;
  std::uint64_t as_of = 0;
  ASSERT_TRUE(rpc::decode_range_query(bytes, &rq_out, &as_of).ok());
  EXPECT_EQ(as_of, rpc::as_of_token(41));
  EXPECT_EQ(as_of - 1, 41u);  // the seq the serving shard scans at

  // Seq 0 (an empty shard's pin) must not collapse into "latest".
  bytes.clear();
  rpc::encode_range_query(rq, &bytes, rpc::as_of_token(0));
  ASSERT_TRUE(rpc::decode_range_query(bytes, &rq_out, &as_of).ok());
  EXPECT_NE(as_of, rpc::kAsOfLatest);

  metadata::TopKQuery tq;
  tq.dims = rq.dims;
  tq.point = la::Vector{0.5};
  tq.k = 3;
  bytes.clear();
  rpc::encode_topk_query(tq, &bytes, rpc::as_of_token(7));
  metadata::TopKQuery tq_out;
  ASSERT_TRUE(rpc::decode_topk_query(bytes, &tq_out, &as_of).ok());
  EXPECT_EQ(as_of, rpc::as_of_token(7));

  metadata::PointQuery pq;
  pq.filename = "/sub0/u001/app002/f0.dat";
  bytes.clear();
  rpc::encode_point_query(pq, &bytes, rpc::as_of_token(9));
  metadata::PointQuery pq_out;
  ASSERT_TRUE(rpc::decode_point_query(bytes, &pq_out, &as_of).ok());
  EXPECT_EQ(pq_out.filename, pq.filename);
  EXPECT_EQ(as_of, rpc::as_of_token(9));
}

TEST(Wire, V1QueryPayloadDecodesAsLatest) {
  // A v1 peer's payload simply ends before the as-of tail. Simulate by
  // chopping the trailing token off a v2 encoding.
  metadata::RangeQuery rq;
  rq.dims = metadata::AttrSubset({metadata::Attr::kFileSize});
  rq.lo = la::Vector{0.0};
  rq.hi = la::Vector{1.0};
  std::vector<std::uint8_t> bytes;
  rpc::encode_range_query(rq, &bytes, rpc::as_of_token(5));
  bytes.resize(bytes.size() - 8);
  metadata::RangeQuery rq_out;
  std::uint64_t as_of = 99;
  ASSERT_TRUE(rpc::decode_range_query(bytes, &rq_out, &as_of).ok());
  EXPECT_EQ(as_of, rpc::kAsOfLatest);
  ASSERT_EQ(rq_out.dims.size(), 1u);
}

TEST(Wire, SnapshotLeaseRoundTripAndMethods) {
  rpc::SnapshotLease lease;
  lease.lease_id = 17;
  lease.seq = 4242;
  std::vector<std::uint8_t> bytes;
  rpc::encode_snapshot_lease(lease, &bytes);
  rpc::SnapshotLease out;
  ASSERT_TRUE(rpc::decode_snapshot_lease(bytes, &out).ok());
  EXPECT_EQ(out.lease_id, 17u);
  EXPECT_EQ(out.seq, 4242u);

  // The v2 methods are inside the decoder's accepted range...
  rpc::Frame f = make_request(rpc::Method::kSnapPin);
  rpc::Frame decoded;
  ASSERT_TRUE(rpc::decode_frame(rpc::encode_frame(f), &decoded).ok());
  EXPECT_EQ(decoded.method, rpc::Method::kSnapPin);
  f.method = rpc::Method::kSnapRelease;
  ASSERT_TRUE(rpc::decode_frame(rpc::encode_frame(f), &decoded).ok());
  // ...as are the v3 replication methods...
  f.method = rpc::Method::kReplAppend;
  ASSERT_TRUE(rpc::decode_frame(rpc::encode_frame(f), &decoded).ok());
  EXPECT_EQ(decoded.method, rpc::Method::kReplAppend);
  f.method = rpc::Method::kReplBootstrap;
  ASSERT_TRUE(rpc::decode_frame(rpc::encode_frame(f), &decoded).ok());
  // ...and one past them is still rejected.
  std::vector<std::uint8_t> raw = rpc::encode_frame(f);
  raw[7] = static_cast<std::uint8_t>(rpc::Method::kReplBootstrap) + 1;
  EXPECT_EQ(rpc::decode_frame(raw, &decoded).code(),
            db::StatusCode::kCorruption);
}

TEST(Wire, BatchPayloadRoundTrip) {
  std::vector<rpc::BatchOp> ops(3);
  ops[0].is_put = true;
  ops[0].file = make_file(1);
  ops[1].is_put = false;
  ops[1].name = "/sub0/u001/app002/f1.dat";
  ops[2].is_put = true;
  ops[2].file = make_file(2);
  std::vector<std::uint8_t> bytes;
  rpc::encode_batch(ops, &bytes);
  std::vector<rpc::BatchOp> out;
  ASSERT_TRUE(rpc::decode_batch(bytes, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].is_put);
  EXPECT_EQ(out[0].file.id, 1u);
  EXPECT_FALSE(out[1].is_put);
  EXPECT_EQ(out[1].name, ops[1].name);
}

TEST(Wire, QueryResultRoundTrip) {
  db::QueryResult r;
  r.kind = db::QueryKind::kTopK;
  r.ids = {5, 9};
  r.hits = {{0.25, 5}, {1.5, 9}};
  r.stats.messages = 7;
  r.stats.records_scanned = 99;
  std::vector<std::uint8_t> bytes;
  rpc::encode_query_result(r, &bytes);
  db::QueryResult out;
  ASSERT_TRUE(rpc::decode_query_result(bytes, &out).ok());
  EXPECT_EQ(out.kind, db::QueryKind::kTopK);
  EXPECT_EQ(out.ids, r.ids);
  ASSERT_EQ(out.hits.size(), 2u);
  EXPECT_DOUBLE_EQ(out.hits[0].first, 0.25);
  EXPECT_EQ(out.stats.messages, 7u);
  EXPECT_EQ(out.stats.records_scanned, 99u);
}

TEST(Wire, QueryResultRetiredSlotsEncodeZeroAndAreSkipped) {
  // The stats of a query result hold two retired f64 slots (a simulated
  // latency and its version-check share): written as 0.0, skipped on
  // decode whatever an older peer put there.
  db::QueryResult r;
  r.kind = db::QueryKind::kPoint;
  r.found = true;
  r.stats.messages = 3;
  r.stats.hops = 2;
  r.stats.routing_hops = 1;
  r.stats.groups_visited = 4;
  r.stats.records_scanned = 5;
  r.stats.failed = true;
  std::vector<std::uint8_t> bytes;
  rpc::encode_query_result(r, &bytes);
  // kind, found, id, unit, first_try, empty ids, empty hits: then stats.
  const std::size_t stats_at = 1 + 1 + 8 + 8 + 1 + 8 + 8;
  const std::size_t latency_at = stats_at;
  const std::size_t version_at = stats_at + 8 + 8 + 8 + 4 + 8 + 8;
  ASSERT_EQ(bytes.size(), version_at + 8 + 1);
  auto f64_at = [&](std::size_t at) {
    double v;
    std::memcpy(&v, bytes.data() + at, sizeof v);
    return v;
  };
  EXPECT_EQ(f64_at(latency_at), 0.0);
  EXPECT_EQ(f64_at(version_at), 0.0);
  std::uint64_t messages;
  std::memcpy(&messages, bytes.data() + latency_at + 8, sizeof messages);
  EXPECT_EQ(messages, 3u);

  // An older peer's payload carries nonzero values there: it decodes.
  const double old_latency = 0.125, old_version = 3e-7;
  std::memcpy(bytes.data() + latency_at, &old_latency, sizeof old_latency);
  std::memcpy(bytes.data() + version_at, &old_version, sizeof old_version);
  db::QueryResult out;
  ASSERT_TRUE(rpc::decode_query_result(bytes, &out).ok());
  EXPECT_TRUE(out.found);
  EXPECT_EQ(out.stats, r.stats);
}

TEST(Wire, ShardStatsRoundTrip) {
  rpc::ShardStats s;
  s.applied_puts = 10;
  s.dup_hits = 3;
  s.total_files = 1234;
  std::vector<std::uint8_t> bytes;
  rpc::encode_shard_stats(s, &bytes);
  rpc::ShardStats out;
  ASSERT_TRUE(rpc::decode_shard_stats(bytes, &out).ok());
  EXPECT_EQ(out.applied_puts, 10u);
  EXPECT_EQ(out.dup_hits, 3u);
  EXPECT_EQ(out.total_files, 1234u);
}

TEST(Wire, ReplBatchRoundTripAndTruncation) {
  rpc::ReplBatch b;
  b.sync_engaged = true;
  b.ops.resize(2);
  b.ops[0].is_insert = true;
  b.ops[0].seq = 11;
  b.ops[0].file = make_file(4);
  b.ops[1].is_insert = false;
  b.ops[1].seq = 12;
  b.ops[1].name = "/sub0/u001/app002/f4.dat";
  std::vector<std::uint8_t> bytes;
  rpc::encode_repl_batch(b, &bytes);

  rpc::ReplBatch out;
  ASSERT_TRUE(rpc::decode_repl_batch(bytes, &out).ok());
  EXPECT_TRUE(out.sync_engaged);
  ASSERT_EQ(out.ops.size(), 2u);
  EXPECT_TRUE(out.ops[0].is_insert);
  EXPECT_EQ(out.ops[0].seq, 11u);
  EXPECT_EQ(out.ops[0].file.id, 4u);
  EXPECT_EQ(out.ops[0].file.name, b.ops[0].file.name);
  EXPECT_EQ(out.ops[0].file.attrs, b.ops[0].file.attrs);
  EXPECT_FALSE(out.ops[1].is_insert);
  EXPECT_EQ(out.ops[1].seq, 12u);
  EXPECT_EQ(out.ops[1].name, b.ops[1].name);

  // Every proper prefix is a truncated batch: kCorruption, never a crash
  // or a short batch.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    rpc::ReplBatch partial;
    EXPECT_EQ(rpc::decode_repl_batch(cut, &partial).code(),
              db::StatusCode::kCorruption)
        << "prefix of " << len << " bytes";
  }
}

TEST(Wire, ReplBatchRetiredNoopTagIsCorruption) {
  // Tag 2 once marked a seq spent on a structural WAL record, encoded as
  // the tag and the seq alone. Neither is written any more, so a batch
  // carrying one is not a stream this build produces.
  util::BinaryWriter w;
  w.write_bool(false);
  w.write_u64(1);   // one op
  w.write_u8(2);    // the retired seq-hole tag
  w.write_u64(13);  // its seq
  rpc::ReplBatch out;
  EXPECT_EQ(rpc::decode_repl_batch(w.buffer(), &out).code(),
            db::StatusCode::kCorruption);
}

// ---- in-process transport ---------------------------------------------------

rpc::Handler echo_handler(std::uint32_t shard) {
  return [shard](const rpc::Frame& req) {
    rpc::Frame resp;
    resp.type = rpc::MsgType::kResponse;
    resp.method = req.method;
    resp.shard = shard;
    resp.client_id = req.client_id;
    resp.seq = req.seq;
    resp.payload = req.payload;
    return resp;
  };
}

TEST(Inproc, BindCallUnbind) {
  rpc::InprocNetwork net;
  auto channel = net.Connect(0);

  // Channel to a never-bound shard: usable, just unavailable.
  rpc::Frame resp;
  EXPECT_TRUE(channel->Call(make_request(rpc::Method::kPing), &resp)
                  .IsUnavailable());

  net.Bind(0, echo_handler(0));
  EXPECT_TRUE(net.IsBound(0));
  rpc::Frame req = make_request(rpc::Method::kPing);
  rpc::encode_message("hello", &req.payload);
  ASSERT_TRUE(channel->Call(req, &resp).ok());
  EXPECT_EQ(resp.type, rpc::MsgType::kResponse);
  EXPECT_EQ(resp.seq, req.seq);
  std::string echoed;
  ASSERT_TRUE(rpc::decode_message(resp.payload, &echoed).ok());
  EXPECT_EQ(echoed, "hello");

  // Crash: the SAME channel sees kUnavailable, then recovery after rebind.
  net.Unbind(0);
  EXPECT_FALSE(net.IsBound(0));
  EXPECT_TRUE(channel->Call(req, &resp).IsUnavailable());
  net.Bind(0, echo_handler(0));
  EXPECT_TRUE(channel->Call(req, &resp).ok());
}

// ---- fault channel ----------------------------------------------------------

TEST(Fault, AlwaysDropRequestIsTimeout) {
  rpc::InprocNetwork net;
  net.Bind(0, echo_handler(0));
  rpc::FaultSpec spec;
  spec.drop_request_p = 1.0;
  rpc::FaultChannel faulty(net.Connect(0), spec);
  rpc::Frame resp;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(faulty.Call(make_request(rpc::Method::kPing), &resp)
                    .IsTimeout());
  }
  EXPECT_EQ(faulty.counts().dropped_requests, 10u);
}

TEST(Fault, DuplicateDeliversTwice) {
  rpc::InprocNetwork net;
  std::atomic<int> deliveries{0};
  net.Bind(0, [&deliveries](const rpc::Frame& req) {
    ++deliveries;
    return echo_handler(0)(req);
  });
  rpc::FaultSpec spec;
  spec.duplicate_p = 1.0;
  rpc::FaultChannel faulty(net.Connect(0), spec);
  rpc::Frame resp;
  ASSERT_TRUE(faulty.Call(make_request(rpc::Method::kPing), &resp).ok());
  EXPECT_EQ(deliveries.load(), 2);
  EXPECT_EQ(faulty.counts().duplicated, 1u);
}

TEST(Fault, MixedFaultsAreSeedDeterministic) {
  rpc::FaultSpec spec;
  spec.duplicate_p = 0.2;
  spec.drop_request_p = 0.2;
  spec.drop_response_p = 0.2;
  spec.seed = 99;
  auto run = [&spec] {
    rpc::InprocNetwork net;
    net.Bind(0, echo_handler(0));
    rpc::FaultChannel faulty(net.Connect(0), spec);
    rpc::Frame resp;
    for (int i = 0; i < 200; ++i) {
      (void)faulty.Call(make_request(rpc::Method::kPing), &resp);
    }
    return faulty.counts();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.dropped_requests, b.dropped_requests);
  EXPECT_EQ(a.dropped_responses, b.dropped_responses);
  EXPECT_GT(a.duplicated + a.dropped_requests + a.dropped_responses, 0u);
}

// ---- socket transport -------------------------------------------------------

TEST(Socket, LoopbackRoundTrip) {
  rpc::SocketServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, echo_handler(1)).ok());
  ASSERT_NE(server.port(), 0);

  rpc::SocketChannel channel("127.0.0.1", server.port());
  rpc::Frame req = make_request(rpc::Method::kPing);
  rpc::encode_message("over tcp", &req.payload);
  rpc::Frame resp;
  ASSERT_TRUE(channel.Call(req, &resp).ok());
  EXPECT_EQ(resp.shard, 1u);
  std::string echoed;
  ASSERT_TRUE(rpc::decode_message(resp.payload, &echoed).ok());
  EXPECT_EQ(echoed, "over tcp");
  server.Stop();
}

TEST(Socket, ConcurrentClients) {
  rpc::SocketServer server;
  ASSERT_TRUE(server.Start("127.0.0.1", 0, echo_handler(0)).ok());
  std::vector<std::thread> clients;
  std::atomic<int> ok_calls{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&server, &ok_calls, c] {
      rpc::SocketChannel channel("127.0.0.1", server.port());
      for (int i = 0; i < 25; ++i) {
        rpc::Frame req = make_request(rpc::Method::kPing);
        req.client_id = static_cast<std::uint64_t>(c);
        req.seq = static_cast<std::uint64_t>(i);
        rpc::Frame resp;
        if (channel.Call(req, &resp).ok() && resp.seq == req.seq) ++ok_calls;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_calls.load(), 100);
  server.Stop();
}

TEST(Socket, ReconnectAfterServerRestart) {
  rpc::SocketServer first;
  ASSERT_TRUE(first.Start("127.0.0.1", 0, echo_handler(0)).ok());
  const std::uint16_t port = first.port();
  rpc::SocketChannel channel("127.0.0.1", port);
  rpc::Frame resp;
  ASSERT_TRUE(channel.Call(make_request(rpc::Method::kPing), &resp).ok());

  first.Stop();
  EXPECT_FALSE(channel.Call(make_request(rpc::Method::kPing), &resp).ok());

  rpc::SocketServer second;
  ASSERT_TRUE(second.Start("127.0.0.1", port, echo_handler(0)).ok());
  // The channel reconnects lazily: the restarted server is reachable
  // without constructing a new channel.
  EXPECT_TRUE(channel.Call(make_request(rpc::Method::kPing), &resp).ok());
  second.Stop();
}

#if defined(__unix__) || defined(__APPLE__)

// A server that answers the FIRST connection with a deliberately partial
// frame and then stalls; every later connection gets a full echo. Proves
// the channel's recv path treats a mid-frame timeout as a dead stream —
// tear down and reconnect — rather than resuming the read and splicing
// the stale half-frame onto the next response.
TEST(Socket, PartialFrameThenTimeoutTearsDownAndReconnects) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ASSERT_EQ(::listen(listen_fd, 4), 0);

  // Reads one full request frame off `fd` (header, then payload).
  const auto read_request = [](int fd) {
    std::vector<std::uint8_t> header(rpc::kFrameHeaderBytes);
    std::size_t got = 0;
    while (got < header.size()) {
      const ssize_t n = ::recv(fd, header.data() + got, header.size() - got,
                               0);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    std::uint32_t payload_len = 0;
    if (!rpc::peek_payload_len(header.data(), header.size(), &payload_len)
             .ok()) {
      return false;
    }
    std::vector<std::uint8_t> payload(payload_len);
    got = 0;
    while (got < payload.size()) {
      const ssize_t n = ::recv(fd, payload.data() + got,
                               payload.size() - got, 0);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return true;
  };

  std::thread server([&] {
    rpc::Frame resp;
    resp.type = rpc::MsgType::kResponse;
    resp.method = rpc::Method::kPing;
    const std::vector<std::uint8_t> full = rpc::encode_frame(resp);

    // Connection 1: answer with 10 bytes of a valid frame, then stall.
    const int c1 = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(c1, 0);
    ASSERT_TRUE(read_request(c1));
    ASSERT_EQ(::send(c1, full.data(), 10, 0), 10);
    // Stall until the client gives up and closes (recv sees EOF).
    std::uint8_t scratch;
    while (::recv(c1, &scratch, 1, 0) > 0) {
    }
    ::close(c1);

    // Connection 2: a well-behaved echo.
    const int c2 = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(c2, 0);
    ASSERT_TRUE(read_request(c2));
    ASSERT_EQ(::send(c2, full.data(), full.size(), 0),
              static_cast<ssize_t>(full.size()));
    ::close(c2);
  });

  rpc::SocketChannel channel("127.0.0.1", port, /*recv_timeout_ms=*/300);
  rpc::Frame resp;
  // Mid-frame stall: the call must fail with kTimeout, not hang or
  // misparse — and the channel must drop the connection.
  EXPECT_TRUE(channel.Call(make_request(rpc::Method::kPing), &resp)
                  .IsTimeout());
  // The very next call runs on a FRESH connection and succeeds; a channel
  // that resumed the old stream would read the stale half-frame first and
  // fail the magic/CRC checks instead.
  EXPECT_TRUE(channel.Call(make_request(rpc::Method::kPing), &resp).ok());

  server.join();
  ::close(listen_fd);
}

#endif  // __unix__ || __APPLE__

TEST(Socket, ConnectFailureIsUnavailable) {
  rpc::SocketChannel channel("127.0.0.1", 1);  // nothing listens on port 1
  rpc::Frame resp;
  EXPECT_TRUE(channel.Call(make_request(rpc::Method::kPing), &resp)
                  .IsUnavailable());
}

}  // namespace
