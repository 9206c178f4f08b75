// smartstore::db::Store implementation: the one place that knows how to
// compose core::SmartStore, persist::ShardedWal, persist::recover and the
// checkpoint engine (persist::DeltaEngine behind the persist::Compactor's
// background slot) into a correctly-wired deployment — and how to take it
// apart again in the right order.
//
// Every gated entry point runs through Impl::serve: take lifecycle_mu,
// pass the serving gate, run the body, map what it throws to a Status.
//
// Lock architecture (outer to inner):
//   lifecycle_mu (shared_mutex) — every operation holds it shared, so the
//     store cannot close under a running Put/Query; Close/Abandon/Bulkload/
//     LoadBootstrap and the quiesced introspection reads hold it
//     exclusively. This lock
//     is ABOVE every core-store lock: an operation takes it before calling
//     into the core and releases it after, so exclusive acquisition doubles
//     as "no facade operation is in flight".
//   ckpt_mu (mutex) — serializes every interaction with the compactor's
//     trigger/wait pair (two threads get()ing the same std::future is a
//     data race). The auto-cadence path only try_locks it: if someone else
//     is talking to the compactor, a cadence trigger is already redundant.
//     Invariant: every wal/delta/compactor dereference happens under
//     lifecycle_mu (shared suffices), so Close/Abandon — which hold it
//     exclusively — may drain and reset them without ckpt_mu: no shared
//     holder can exist concurrently.
//
// Crash discipline (kFaultInjected): the first operation that sees
// persist::FaultInjected runs crash() exactly once — drain the in-flight
// checkpoint (a checkpoint that already passed its own fault boundaries is
// allowed to land, matching "the power dies an instant later"), then
// abandon every WAL handle so no destructor commits records the caller was
// never told were durable. The handle is poisoned; the data directory is
// left exactly as the simulated power cut would leave it.
#include "smartstore/store.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/smartstore.h"
#include "db/lock_file.h"
#include "persist/compactor.h"
#include "persist/delta_checkpoint.h"
#include "persist/recovery.h"
#include "persist/segment.h"
#include "persist/snapshot.h"
#include "persist/wal_shard.h"
#include "util/annotated_mutex.h"
#include "util/thread_annotations.h"

namespace smartstore::db {

namespace {

core::Routing to_core(Routing r) {
  return r == Routing::kOnline ? core::Routing::kOnline
                               : core::Routing::kOffline;
}

QueryStats to_public(const core::QueryStats& s) {
  QueryStats out;
  out.messages = s.messages;
  out.hops = s.hops;
  out.routing_hops = s.routing_hops;
  out.groups_visited = s.groups_visited;
  out.records_scanned = s.records_scanned;
  out.failed = s.failed;
  return out;
}

/// Does `dir` hold a deployment: a manifest, or a WAL shard log (a store
/// that crashed before its first checkpoint has only those)?
bool holds_deployment(const std::string& dir) {
  if (persist::manifest_exists(dir)) return true;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(
           persist::ShardedWal::shard_dir(dir), ec)) {
    std::uint64_t shard = 0;
    if (persist::ShardedWal::parse_shard_id(entry.path(), &shard)) return true;
  }
  return false;
}

}  // namespace

struct Store::Impl {
  Options opts;
  std::string dir;  ///< empty in in-memory mode
  DirLock lock;
  RecoveryInfo recovery;

  // wal, delta and compactor exist on durable stores only. Teardown order
  // matters and is encoded in Close(): the compactor's background job runs
  // through the delta engine, the engine references store and WAL, the
  // WAL holds open shard files.
  std::unique_ptr<core::SmartStore> core;
  std::unique_ptr<persist::ShardedWal> wal;
  std::unique_ptr<persist::DeltaEngine> delta;
  std::unique_ptr<persist::Compactor> compactor;

  mutable util::SharedMutex lifecycle_mu{util::LockRank::kLifecycle};
  bool closed SS_GUARDED_BY(lifecycle_mu) = false;
  std::atomic<bool> crashed{false};
  std::once_flag crash_once;

  util::Mutex ckpt_mu{util::LockRank::kDbCheckpoint};
  std::atomic<std::uint64_t> mutations_since_ckpt{0};
  /// A non-crash checkpoint failure drained by an introspection read
  /// (whose return type cannot carry it) parks here until the next
  /// Checkpoint() or Close() surfaces it.
  Status deferred_ckpt_error SS_GUARDED_BY(ckpt_mu);

  // Op/recall counters (the "smartstore.counters.*" properties).
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> deletes{0};
  std::atomic<std::uint64_t> point_queries{0};
  std::atomic<std::uint64_t> point_hits{0};
  std::atomic<std::uint64_t> range_queries{0};
  std::atomic<std::uint64_t> range_hits{0};
  std::atomic<std::uint64_t> topk_queries{0};
  std::atomic<std::uint64_t> topk_hits{0};

  /// Freeze the on-disk state the way a power cut would. Runs at most
  /// once; never called with ckpt_mu held (the catch blocks that reach it
  /// run after their lock guards unwound).
  void crash() {
    std::call_once(crash_once, [this] {
      crashed.store(true, std::memory_order_release);
      if (compactor) {
        const util::MutexLock ck(ckpt_mu);
        try {
          compactor->wait();  // an in-flight checkpoint may land — "the
        } catch (...) {       // power dies an instant later"
          // The worker's own injected fault; the directory already holds
          // whatever prefix its crash point left.
        }
      }
      if (wal) {
        core->attach_journal(nullptr);
        wal->abandon();  // pending batches were never acknowledged
      }
    });
  }

  /// Caller holds lifecycle_mu (shared suffices — this never changes the
  /// pointers, and Close/Abandon reset them only under exclusive). A
  /// checkpoint failure observed here must not vanish: wait()'s rethrow
  /// is one-shot (the future is consumed), so an injected crash poisons
  /// the handle via crash() and any other failure is deferred to the next
  /// Checkpoint()/Close() through deferred_ckpt_error.
  CheckpointInfo checkpoint_info_locked() SS_REQUIRES_SHARED(lifecycle_mu) {
    CheckpointInfo info;
    bool fault = false;
    {
      const util::MutexLock ck(ckpt_mu);
      if (!compactor) return info;
      try {
        compactor->wait();  // drain: report the finished job's stats
      } catch (...) {
        Status s = persist::current_exception_status();
        if (s.IsFaultInjected()) {
          fault = true;
        } else if (deferred_ckpt_error.ok()) {
          deferred_ckpt_error = std::move(s);
        }
      }
      const persist::DeltaCutStats st = delta->last_stats();
      info.completed = delta->completed();
      info.total_mutations_during = delta->total_mutations_during();
      info.total_cow_copies = delta->total_cow_copies();
      info.last_freeze_s = st.freeze_s;
      info.last_write_s = st.write_s;
      info.last_truncate_s = st.truncate_s;
      info.last_snapshot_bytes =
          st.folded ? st.base_bytes : static_cast<std::size_t>(st.delta_bytes);
      info.last_was_delta = info.completed > 0 && !st.folded;
      info.last_delta_records = st.delta_records;
      info.last_delta_units = st.units_contributing;
      info.last_delta_units_cold = st.units_cold;
      info.delta_cuts = delta->cuts();
      info.delta_folds = delta->folds();
      info.delta_chain_len = delta->chain_len();
      info.delta_chain_bytes = delta->chain_bytes();
    }
    if (fault) crash();  // outside ckpt_mu (crash() re-acquires it)
    return info;
  }

  /// The serving gate: refuses a closed or crashed handle.
  Status check_serving() const SS_REQUIRES_SHARED(lifecycle_mu) {
    if (closed) return Status::FailedPrecondition("store is closed");
    if (crashed.load(std::memory_order_acquire)) {
      return Status::FaultInjected(
          "store crashed at an injected fault point; reopen the directory "
          "to recover");
    }
    return Status::OK();
  }

  /// The entry skeleton of every gated operation: takes lifecycle_mu as
  /// `Lock` (util::ReaderLock, or util::WriterLock for the whole-store
  /// operations), passes the serving gate, runs `fn` and maps what it
  /// throws at the boundary. `fn` returns a Status or a StatusOr.
  template <typename Lock, typename Fn>
  auto serve(Fn&& fn) -> decltype(fn()) {
    Lock lk(lifecycle_mu);
    Status gate = check_serving();
    if (!gate.ok()) return gate;
    try {
      return fn();
    } catch (...) {
      Status s = persist::current_exception_status();
      // crash() needs only ckpt_mu, which the unwind out of `fn` released.
      if (s.IsFaultInjected()) crash();
      return s;
    }
  }

  bool durable() const { return !opts.in_memory; }

  /// Checkpoint()/Compact(): runs `action` on the compactor under ckpt_mu,
  /// concurrent with serving threads. A failure an introspection drain
  /// parked earlier is surfaced once instead of checkpointing over it.
  template <typename Action>
  Status run_checkpoint(const char* what, Action&& action) {
    return serve<util::ReaderLock>([&] {
      if (!durable())
        return Status::FailedPrecondition(
            std::string("ephemeral store cannot ") + what);
      const util::MutexLock ck(ckpt_mu);
      if (!deferred_ckpt_error.ok()) {
        Status s = deferred_ckpt_error;
        deferred_ckpt_error = Status::OK();
        return s;
      }
      action(*compactor);
      mutations_since_ckpt.store(0, std::memory_order_relaxed);
      return Status::OK();
    });
  }

  /// The one query body: validates `request`, then runs the routed read
  /// (null `seq`) or the exact snapshot scan at `*seq`. Only routed reads
  /// count toward the smartstore.counters.* properties.
  StatusOr<QueryResult> query(const QueryRequest& request,
                              const std::uint64_t* seq) {
    const core::Routing routing =
        to_core(request.routing.value_or(opts.routing));
    auto count = [seq](std::atomic<std::uint64_t>& queries,
                       std::atomic<std::uint64_t>& hits, bool hit) {
      if (seq) return;
      queries.fetch_add(1, std::memory_order_relaxed);
      if (hit) hits.fetch_add(1, std::memory_order_relaxed);
    };
    QueryResult out;
    out.kind = request.kind();
    if (const auto* p = std::get_if<metadata::PointQuery>(&request.op)) {
      if (p->filename.empty())
        return Status::InvalidArgument("point query needs a filename");
      const core::PointResult r = seq
                                      ? core->snapshot_point_query(*p, *seq)
                                      : core->point_query(*p, routing);
      out.found = r.found;
      out.id = r.id;
      out.unit = r.unit;
      out.first_try = r.first_try;
      out.stats = to_public(r.stats);
      count(point_queries, point_hits, r.found);
    } else if (const auto* rq =
                   std::get_if<metadata::RangeQuery>(&request.op)) {
      if (rq->dims.empty())
        return Status::InvalidArgument("range query needs >= 1 dimension");
      if (rq->lo.size() != rq->dims.size() ||
          rq->hi.size() != rq->dims.size()) {
        return Status::InvalidArgument(
            "range query lo/hi must match the dimension subset");
      }
      const core::RangeResult r = seq
                                      ? core->snapshot_range_query(*rq, *seq)
                                      : core->range_query(*rq, routing);
      out.ids = r.ids;
      out.stats = to_public(r.stats);
      count(range_queries, range_hits, !r.ids.empty());
    } else {
      const auto& tq = std::get<metadata::TopKQuery>(request.op);
      if (tq.k == 0) return Status::InvalidArgument("top-k query needs k > 0");
      if (tq.dims.empty())
        return Status::InvalidArgument("top-k query needs >= 1 dimension");
      if (tq.point.size() != tq.dims.size()) {
        return Status::InvalidArgument(
            "top-k query point must match the dimension subset");
      }
      const core::TopKResult r = seq ? core->snapshot_topk_query(tq, *seq)
                                     : core->topk_query(tq, routing);
      out.hits = r.hits;
      out.ids = r.ids();
      out.stats = to_public(r.stats);
      count(topk_queries, topk_hits, !r.hits.empty());
    }
    return out;
  }

  /// The one mutation path of Put, Delete and Write: the attached WAL
  /// logs the record under the routed unit's lock and commits it after
  /// that lock is released, so the mutation is durable on return.
  /// erase() reports an absent name.
  void put(const metadata::FileMetadata& f) {
    core->insert_file(f);
    puts.fetch_add(1, std::memory_order_relaxed);
    note_mutations(1);
  }

  bool erase(const std::string& name) {
    if (!core->erase_file(name)) return false;
    deletes.fetch_add(1, std::memory_order_relaxed);
    note_mutations(1);
    return true;
  }

  /// Cadence accounting: every acknowledged mutation counts toward the
  /// next automatic background checkpoint. Only try_locks ckpt_mu — if
  /// another thread is already talking to the compactor, this trigger is
  /// redundant. May throw (trigger() surfaces a previously failed
  /// checkpoint); callers' boundary catch maps it.
  void note_mutations(std::uint64_t n) {
    if (n == 0 || opts.checkpoint_every == 0 || !compactor) return;
    const std::uint64_t total =
        mutations_since_ckpt.fetch_add(n, std::memory_order_relaxed) + n;
    if (total < opts.checkpoint_every) return;
    if (!ckpt_mu.try_lock()) return;
    const util::MutexLock ck(ckpt_mu, std::adopt_lock);
    if (mutations_since_ckpt.load(std::memory_order_relaxed) <
        opts.checkpoint_every)
      return;  // someone else already reset the counter
    // Coalescing guard: reset the counter whether or not the trigger
    // landed. A false return means a checkpoint is already in flight,
    // and its fence will cover (at least) the window that tripped this
    // cadence — without the reset, EVERY subsequent mutation would find
    // the counter still over threshold and re-enter this path until the
    // running checkpoint finished (the note_mutations thundering herd).
    // The mutations folded away here count toward the in-flight run, not
    // the next window; at worst the next checkpoint is one period late.
    compactor->trigger();
    mutations_since_ckpt.store(0, std::memory_order_relaxed);
  }
};

Store::Store() : impl_(std::make_unique<Impl>()) {}

Store::~Store() {
  Close();  // best effort; failures already surfaced or never will be
}

// ---- Open -------------------------------------------------------------------

StatusOr<std::unique_ptr<Store>> Store::Open(const Options& options,
                                             const std::string& path) {
  if (options.num_units == 0)
    return Status::InvalidArgument("num_units must be > 0");
  if (options.fanout < 2)
    return Status::InvalidArgument("fanout must be >= 2");
  if (!options.in_memory && path.empty())
    return Status::InvalidArgument("path must be non-empty (or set in_memory)");
  if (options.checkpoint_every > 0 && options.in_memory)
    return Status::InvalidArgument(
        "checkpoint_every requires a durable store (checkpoints fence "
        "against the WAL shards)");

  std::unique_ptr<Store> store(new Store());
  Impl& im = *store->impl_;
  im.opts = options;

  core::Config cfg;
  cfg.num_units = options.num_units;
  cfg.fanout = options.fanout;
  cfg.seed = options.seed;

  // Every core a Store opens serves from before it is built or replays
  // its log (persist::recover switches the cores it loads the same way).
  auto serving_core = [&cfg] {
    auto core = std::make_unique<core::SmartStore>(cfg);
    core->serve();
    core->build({});
    return core;
  };
  try {
    if (options.in_memory) {
      im.core = serving_core();
    } else {
      im.dir = path;
      // Refused before anything (the directory, its LOCK) is created.
      if (!options.create_if_missing && !holds_deployment(path))
        return Status::NotFound("no checkpoint or WAL log in " + path);
      std::error_code ec;
      std::filesystem::create_directories(path, ec);
      if (ec)
        return Status::IOError("cannot create " + path + ": " + ec.message());

      // The LOCK file: two handles on one data directory would interleave
      // WAL shards and race checkpoints silently. flock is per open file
      // description, so this also catches a double-open within one process.
      Status ls = im.lock.Acquire(path);
      if (!ls.ok()) return ls;

      // The manifest is the one marker of an existing deployment. Files of
      // the pre-manifest single-log layout are refused rather than silently
      // buried under an empty store: this release has no importer for
      // them. (A manifest that adopted such an image is refused by
      // recovery, with the same FailedPrecondition.)
      const bool have_checkpoint = persist::manifest_exists(path);
      if (!have_checkpoint) {
        for (const char* legacy : {"snapshot.bin", "wal.bin"}) {
          if (std::filesystem::exists(std::filesystem::path(path) / legacy,
                                      ec)) {
            return Status::FailedPrecondition(
                path + " holds a " + legacy +
                " from the pre-manifest single-log layout and no "
                "ckpt/MANIFEST; this release reads only wal/<unit>.log + "
                "ckpt/ and has no importer");
          }
        }
      }

      if (have_checkpoint) {
        persist::RecoveryResult rec;
        Status rs = persist::recover(path, &rec);
        if (!rs.ok()) return rs;
        im.core = std::move(rec.store);
        im.recovery.recovered = true;
        im.recovery.wal_records = rec.wal_records;
        im.recovery.wal_blocks = rec.wal_blocks;
        im.recovery.wal_fenced = rec.wal_fenced;
        im.recovery.wal_shards = rec.wal_shards;
        im.recovery.wal_tail_torn = rec.wal_tail_torn;
        im.recovery.used_manifest = rec.used_manifest;
        im.recovery.delta_cuts = rec.delta_cuts;
        im.recovery.delta_records = rec.delta_records;
      } else {
        im.core = serving_core();
        // A deployment that crashed before its first checkpoint has WAL
        // records but no manifest; their base image is exactly the empty
        // build above (assuming the same Options), so the full log replays.
        if (std::filesystem::is_directory(
                persist::ShardedWal::shard_dir(path), ec)) {
          persist::RecoveryResult rec;
          persist::replay_dir_logs(*im.core, path, persist::WalFence{}, rec);
          im.recovery.recovered = rec.wal_records > 0;
          im.recovery.wal_records = rec.wal_records;
          im.recovery.wal_blocks = rec.wal_blocks;
          im.recovery.wal_shards = rec.wal_shards;
          im.recovery.wal_tail_torn = rec.wal_tail_torn;
        }
      }

      im.wal =
          std::make_unique<persist::ShardedWal>(path, im.core->units().size());
      im.core->attach_journal(im.wal.get());
      im.delta =
          std::make_unique<persist::DeltaEngine>(*im.core, *im.wal, path);
      // No thread until the first background trigger.
      im.compactor = std::make_unique<persist::Compactor>(
          *im.delta, options.compaction_trigger,
          options.compaction_byte_budget);
    }
  } catch (...) {
    return persist::current_exception_status();
  }
  return store;
}

// ---- bulk load --------------------------------------------------------------

Status Store::Bulkload(const std::vector<metadata::FileMetadata>& files) {
  Impl& im = *impl_;
  return im.serve<util::WriterLock>([&] {
    if (im.core->total_files() != 0) {
      return Status::FailedPrecondition(
          "Bulkload requires an empty store (build() is a whole-deployment "
          "operation); open a fresh directory or use Put/Write");
    }
    const util::MutexLock ck(im.ckpt_mu);
    // No background cut may race the build.
    if (im.compactor) im.compactor->wait();
    im.core->build(files);
    // Fold before returning (durable stores): Bulkload is not WAL-logged,
    // and the no-checkpoint recovery path assumes a log's base image is
    // the EMPTY build — without a base holding the population, a crash
    // before the first explicit Checkpoint would silently replay later
    // Puts onto an empty store and drop the bulkload. On a 4-core x86-64
    // VM, with fsync answered without reaching a device, the fold's write
    // phase (encode and CRC the base image, write it and the manifest)
    // takes ~4 ms of an ~18 ms Bulkload of 12,500 files and ~23 ms of
    // ~170 ms at 80,000 files.
    if (im.delta && !files.empty()) im.delta->fold();
    return Status::OK();
  });
}

// ---- mutations --------------------------------------------------------------

namespace {

/// The one name rule of every mutation: a record under an empty name could
/// be stored but never deleted or looked up.
Status check_name(const std::string& name) {
  return name.empty() ? Status::InvalidArgument("empty filename")
                      : Status::OK();
}

}  // namespace

Status Store::Put(const metadata::FileMetadata& file) {
  Status s = check_name(file.name);
  if (!s.ok()) return s;
  Impl& im = *impl_;
  return im.serve<util::ReaderLock>([&] {
    im.put(file);
    return Status::OK();
  });
}

Status Store::Delete(const std::string& name) {
  Status s = check_name(name);
  if (!s.ok()) return s;
  Impl& im = *impl_;
  return im.serve<util::ReaderLock>([&] {
    if (!im.erase(name))
      return Status::NotFound("no file named '" + name + "'");
    return Status::OK();
  });
}

Status Store::Write(WriteBatch&& batch) {
  const std::vector<WriteBatch::Op> ops = std::move(batch).release();
  // Every op passes the name rule before any applies: a refused batch
  // changes nothing.
  for (const WriteBatch::Op& op : ops) {
    Status s = check_name(op.type == WriteBatch::OpType::kPut ? op.file.name
                                                              : op.name);
    if (!s.ok()) return s;
  }
  Impl& im = *impl_;
  return im.serve<util::ReaderLock>([&] {
    for (const WriteBatch::Op& op : ops) {
      if (op.type == WriteBatch::OpType::kPut) {
        im.put(op.file);
      } else {
        // A Delete of an absent name inside a batch is not an error — the
        // batch's contract is "apply what exists", mirroring erase
        // replay's idempotence.
        im.erase(op.name);
      }
    }
    return Status::OK();
  });
}

// ---- queries ----------------------------------------------------------------

StatusOr<QueryResult> Store::Query(const QueryRequest& request) {
  Impl& im = *impl_;
  return im.serve<util::ReaderLock>(
      [&]() -> StatusOr<QueryResult> { return im.query(request, nullptr); });
}

// ---- snapshot reads / time travel -------------------------------------------

StatusOr<Snapshot> Store::GetSnapshot() {
  Impl& im = *impl_;
  return im.serve<util::ReaderLock>([&]() -> StatusOr<Snapshot> {
    std::uint64_t seq = 0;
    std::shared_ptr<void> pin = im.core->pin_snapshot(&seq);
    return Snapshot(seq, std::move(pin));
  });
}

std::uint64_t Store::LatestSequence() const {
  util::ReaderLock lk(impl_->lifecycle_mu);
  return impl_->core->last_commit_seq();
}

StatusOr<QueryResult> Store::Query(const QueryRequest& request,
                                   const ReadOptions& options) {
  Impl& im = *impl_;
  return im.serve<util::ReaderLock>([&]() -> StatusOr<QueryResult> {
    // Resolve the seq first: a kReadLatest read pins for the duration of
    // this one scan so GC cannot reclaim a version out from under it.
    std::uint64_t seq = options.snapshot_seq;
    std::shared_ptr<void> pin;
    if (seq == ReadOptions::kReadLatest) pin = im.core->pin_snapshot(&seq);
    return im.query(request, &seq);
  });
}

// ---- durability control -----------------------------------------------------

Status Store::Flush() {
  Impl& im = *impl_;
  return im.serve<util::ReaderLock>([&] {
    if (!im.durable())
      return Status::FailedPrecondition("ephemeral store has no WAL");
    im.wal->commit_all();
    return Status::OK();
  });
}

Status Store::Checkpoint() {
  return impl_->run_checkpoint(
      "checkpoint", [](persist::Compactor& c) { c.checkpoint_now(); });
}

Status Store::Compact() {
  // compact_now waits out an in-flight background job, then folds the
  // whole chain into a fresh base on this thread — concurrent with
  // serving (the engine uses the epoch-freeze/COW protocol).
  return impl_->run_checkpoint(
      "compact", [](persist::Compactor& c) { c.compact_now(); });
}

// ---- replication ------------------------------------------------------------

Status Store::SetCommitTap(CommitTap tap) {
  Impl& im = *impl_;
  return im.serve<util::ReaderLock>([&] {
    if (!im.wal) {
      return Status::FailedPrecondition(
          "the commit tap observes WAL durability; this store has no WAL");
    }
    if (!tap) {
      im.wal->set_commit_tap(nullptr);
      return Status::OK();
    }
    im.wal->set_commit_tap([t = std::move(tap)](const persist::WalRecord& rec) {
      ReplicatedOp op;
      op.is_insert = rec.type == persist::WalRecordType::kInsert;
      op.seq = rec.seq;
      if (op.is_insert) {
        op.file = rec.file;
      } else {
        op.name = rec.name;
      }
      t(op);
    });
    return Status::OK();
  });
}

Status Store::ApplyReplicated(const std::vector<ReplicatedOp>& ops,
                              std::uint64_t* frontier_out) {
  Impl& im = *impl_;
  return im.serve<util::ReaderLock>([&] {
    if (!im.wal) {
      return Status::FailedPrecondition(
          "replicated applies must be WAL-logged (a promoted follower has "
          "to survive its own crash); this store has no WAL");
    }
    std::uint64_t applied = 0;
    for (const ReplicatedOp& op : ops) {
      // The frontier gate: applies run strictly in seq order, so anything
      // at or below the last commit seq already landed here — duplicate
      // batches from a retrying sender and bootstrap overlap re-sends are
      // no-ops, not double-applies.
      if (op.seq <= im.core->last_commit_seq()) continue;
      if (op.is_insert) {
        im.core->insert_file(op.file, 0.0, op.seq);
      } else if (!im.core->erase_file(op.name, op.seq)) {
        // Absent-name removes are fine: mirrors recovery replay's
        // idempotence (the delete was acked somewhere; re-applying onto a
        // state that never saw the insert must not fail the stream).
        // Identical histories mean the name always exists here; still,
        // the stream must neither stall the frontier nor let a restart
        // reuse op.seq for a different mutation — the erase advanced the
        // clock to op.seq, and the no-op remove is logged anyway (replay
        // of a kRemove tolerates absence), and committed like every
        // applied op: the caller reports the returned frontier as durable.
        im.wal->log_remove(0, op.name, op.seq);
        im.wal->commit(0);
      }
      ++applied;
    }
    if (frontier_out) *frontier_out = im.core->last_commit_seq();
    im.note_mutations(applied);
    return Status::OK();
  });
}

StatusOr<std::vector<metadata::FileMetadata>> Store::DumpSnapshot(
    std::uint64_t* seq_out) {
  Impl& im = *impl_;
  return im.serve<util::ReaderLock>(
      [&]() -> StatusOr<std::vector<metadata::FileMetadata>> {
        // The dump scans the live store at a pinned seq: writers keep
        // landing at later seqs, and GC cannot reclaim a version the scan
        // still needs. Nothing is cut or written, so bootstrapping a
        // follower leaves the checkpoint chain alone.
        std::uint64_t seq = 0;
        const std::shared_ptr<void> pin = im.core->pin_snapshot(&seq);
        if (seq_out) *seq_out = seq;
        return im.core->snapshot_dump(seq);
      });
}

Status Store::LoadBootstrap(std::uint64_t seq,
                            const std::vector<metadata::FileMetadata>& files) {
  Impl& im = *impl_;
  return im.serve<util::WriterLock>([&] {
    if (im.core->total_files() != 0 || im.core->last_commit_seq() != 0) {
      return Status::FailedPrecondition(
          "LoadBootstrap requires a never-mutated store (a stale replica "
          "must be wiped and reopened, not overwritten in place)");
    }
    // Each record takes a fresh local stamp (the dump does not carry the
    // original per-record seqs); there are at most `seq` of them, so all
    // stamps land at or below `seq` — then the clock jumps TO `seq`, and
    // the resumed stream (> seq) passes the ApplyReplicated gate.
    for (const metadata::FileMetadata& f : files) im.core->insert_file(f);
    im.core->note_commit_seq(seq);
    if (!im.delta || seq == 0) {
      im.note_mutations(files.size());
      return Status::OK();
    }
    // Fold before returning, as Bulkload does: the jump to `seq` writes no
    // log record, so only a base image and the manifest's last_cut_seq
    // keep it across a restart (a cut would not: on a store with a
    // manifest and no new records it is a no-op). Without it the clock
    // would resume at the last record's local stamp, and the
    // ApplyReplicated gate would re-apply ops the dump already holds.
    const util::MutexLock ck(im.ckpt_mu);
    im.compactor->wait();
    im.delta->fold();
    return Status::OK();
  });
}

// ---- introspection ----------------------------------------------------------

const RecoveryInfo& Store::recovery_info() const { return impl_->recovery; }
const Options& Store::options() const { return impl_->opts; }
const std::string& Store::path() const { return impl_->dir; }

CheckpointInfo Store::GetCheckpointInfo() const {
  // Lifecycle shared FIRST: Close/Abandon reset compactor/wal under the
  // exclusive lock, so every introspection path that dereferences them
  // must hold it shared — otherwise this races a concurrent Close into a
  // use-after-free. ckpt_mu nests inside (same order as Checkpoint()).
  util::ReaderLock lk(impl_->lifecycle_mu);
  return impl_->checkpoint_info_locked();
}

bool Store::GetProperty(const std::string& name, std::string* value) {
  if (!value) return false;
  Impl& im = *impl_;

  auto u64 = [&](std::uint64_t v) {
    *value = std::to_string(v);
    return true;
  };

  // Counter / WAL / checkpoint properties: cheap reads, but still under
  // the shared lifecycle lock — Close() frees the WAL and checkpoint
  // engine under the exclusive lock, and these dereference them.
  {
    util::ReaderLock lk(im.lifecycle_mu);

    if (name == "smartstore.counters.puts") return u64(im.puts.load());
    if (name == "smartstore.counters.deletes") return u64(im.deletes.load());
    if (name == "smartstore.counters.point-queries")
      return u64(im.point_queries.load());
    if (name == "smartstore.counters.point-hits")
      return u64(im.point_hits.load());
    if (name == "smartstore.counters.range-queries")
      return u64(im.range_queries.load());
    if (name == "smartstore.counters.range-hits")
      return u64(im.range_hits.load());
    if (name == "smartstore.counters.topk-queries")
      return u64(im.topk_queries.load());
    if (name == "smartstore.counters.topk-hits")
      return u64(im.topk_hits.load());

    // WAL frontier properties: the sharded writer is internally locked.
    if (name == "smartstore.wal.shards")
      return u64(im.wal ? im.wal->num_shards() : 0);
    if (name == "smartstore.wal.next-seq")
      return u64(im.wal ? im.core->last_commit_seq() + 1 : 0);
    if (name == "smartstore.wal.committed-records") {
      std::uint64_t total = 0;
      if (im.wal) {
        for (std::size_t s = 0; s < im.wal->num_shards(); ++s)
          total += im.wal->committed_records(s);
      }
      return u64(total);
    }
    if (name == "smartstore.wal.group-commit.effective") {
      // Measured: records per commit block since Open. 0 on a store
      // without a WAL or before its first commit.
      return u64(im.wal ? im.wal->records_per_commit() : 0);
    }
    if (name == "smartstore.wal.frontier") {
      if (!im.wal) {
        *value = "";
        return true;
      }
      // One "shard:generation:committed+pending" triple per shard that
      // has taken a record (display format — machine consumers should use
      // the numeric wal.* properties above).
      std::string out;
      for (std::size_t s = 0; s < im.wal->num_shards(); ++s) {
        const std::uint64_t committed = im.wal->committed_records(s);
        const std::uint64_t pending = im.wal->pending_records(s);
        if (committed == 0 && pending == 0) continue;
        if (!out.empty()) out += ' ';
        out += std::to_string(s) + ':' +
               std::to_string(im.wal->generation(s)) + ':' +
               std::to_string(committed) + '+' + std::to_string(pending);
      }
      *value = out;
      return true;
    }

    // MVCC properties: atomics and leaf-locked registries, never blocked
    // behind a mutation.
    if (name == "smartstore.mvcc.commit-seq")
      return u64(im.core->last_commit_seq());
    if (name == "smartstore.mvcc.pinned-snapshots")
      return u64(im.core->pinned_snapshots());
    if (name == "smartstore.mvcc.tombstones")
      return u64(im.core->tombstone_count());
    if (name == "smartstore.mvcc.gc-watermark") {
      const std::uint64_t w = im.core->gc_watermark();
      if (w == core::kNoWatermark) {
        *value = "none";  // nothing pinned: every tombstone reclaimable
        return true;
      }
      return u64(w);
    }

    // Name-filter geometry (it grows with the population; see
    // core::Config::bloom_auto_size) and the growth steps since Open.
    if (name == "smartstore.bloom.bits") return u64(im.core->bloom_bits());
    if (name == "smartstore.bloom.resizes")
      return u64(im.core->bloom_resizes());

    // The current checkpoint base image (ckpt/base-<id>.bin).
    if (name == "smartstore.snapshot.path" ||
        name == "smartstore.snapshot.bytes") {
      if (!im.delta || im.delta->base_id() == 0) return false;
      const std::string base = persist::base_path(im.dir, im.delta->base_id());
      if (name == "smartstore.snapshot.path") {
        *value = base;
        return true;
      }
      std::error_code ec;
      const auto sz = std::filesystem::file_size(base, ec);
      return !ec && u64(static_cast<std::uint64_t>(sz));
    }

    // Checkpoint properties route through the drain in
    // checkpoint_info_locked (we already hold the shared lock it needs).
    if (name.rfind("smartstore.checkpoints.", 0) == 0) {
      // Cadence accounting, NOT routed through the drain: tests observe
      // the coalescing guard without perturbing an in-flight checkpoint.
      if (name == "smartstore.checkpoints.cadence-pending")
        return u64(im.mutations_since_ckpt.load(std::memory_order_relaxed));
      const CheckpointInfo info = im.checkpoint_info_locked();
      if (name == "smartstore.checkpoints.completed")
        return u64(info.completed);
      if (name == "smartstore.checkpoints.mutations-during")
        return u64(info.total_mutations_during);
      if (name == "smartstore.checkpoints.cow-copies")
        return u64(info.total_cow_copies);
      if (name == "smartstore.checkpoints.last-snapshot-bytes")
        return u64(info.last_snapshot_bytes);
      return false;
    }

    // Checkpoint-engine properties: engine atomics.
    if (name.rfind("smartstore.ckpt.", 0) == 0) {
      const persist::DeltaEngine* eng = im.delta.get();
      if (name == "smartstore.ckpt.delta-cuts")
        return u64(eng ? eng->cuts() : 0);
      if (name == "smartstore.ckpt.delta-folds")
        return u64(eng ? eng->folds() : 0);
      if (name == "smartstore.ckpt.delta-chain-len")
        return u64(eng ? eng->chain_len() : 0);
      if (name == "smartstore.ckpt.delta-chain-bytes")
        return u64(eng ? eng->chain_bytes() : 0);
      if (name == "smartstore.ckpt.delta-last-cut-seq")
        return u64(eng ? eng->last_cut_seq() : 0);
      if (name == "smartstore.ckpt.delta-total-bytes")
        return u64(eng ? eng->total_delta_bytes() : 0);
      return false;
    }
  }

  // Invariant validation genuinely needs stillness (it cross-checks
  // unlocked state across every layer): the one property that still
  // quiesces. Gate on the name FIRST — an unknown or mistyped property
  // must return false without ever escalating to the stop-the-world lock.
  if (name == "smartstore.invariants-ok") {
    util::WriterLock ex(im.lifecycle_mu);
    *value = im.core->check_invariants() ? "1" : "0";
    return true;
  }

  // Structural / space properties: one introspect() pass at a pinned
  // snapshot, concurrent with mutators (shared structure lock + per-unit
  // locks + sync stripes inside the core — no facade-level exclusion).
  const bool structural =
      name == "smartstore.total-files" || name == "smartstore.num-units" ||
      name == "smartstore.tree-height" || name == "smartstore.tree-groups" ||
      name == "smartstore.index-units";
  const bool space_prop = name == "smartstore.space.metadata-bytes" ||
                          name == "smartstore.space.index-bytes" ||
                          name == "smartstore.space.replica-bytes" ||
                          name == "smartstore.space.version-bytes" ||
                          name == "smartstore.space.total-bytes";
  if (!structural && !space_prop) return false;

  util::ReaderLock lk(im.lifecycle_mu);
  std::uint64_t seq = 0;
  const std::shared_ptr<void> pin = im.core->pin_snapshot(&seq);
  const core::SmartStore::Introspection view = im.core->introspect(seq);
  if (name == "smartstore.total-files") return u64(view.files);
  if (name == "smartstore.num-units") return u64(view.num_units);
  if (name == "smartstore.tree-height") return u64(view.tree_height);
  if (name == "smartstore.tree-groups") return u64(view.tree_groups);
  if (name == "smartstore.index-units") return u64(view.index_units);
  const core::SmartStore::SpaceBreakdown& space = view.avg_space;
  if (name == "smartstore.space.metadata-bytes")
    return u64(space.metadata_bytes);
  if (name == "smartstore.space.index-bytes") return u64(space.index_bytes);
  if (name == "smartstore.space.replica-bytes") return u64(space.replica_bytes);
  if (name == "smartstore.space.version-bytes") return u64(space.version_bytes);
  return u64(space.total());
}

SpaceInfo Store::GetSpaceInfo() {
  // One snapshot-pinned introspect() pass — the typed alternative to five
  // separate smartstore.space.* property round-trips, concurrent with
  // mutators.
  util::ReaderLock lk(impl_->lifecycle_mu);
  std::uint64_t seq = 0;
  const std::shared_ptr<void> pin = impl_->core->pin_snapshot(&seq);
  const core::SmartStore::SpaceBreakdown space =
      impl_->core->introspect(seq).avg_space;
  SpaceInfo info;
  info.metadata_bytes = space.metadata_bytes;
  info.index_bytes = space.index_bytes;
  info.replica_bytes = space.replica_bytes;
  info.version_bytes = space.version_bytes;
  info.total_bytes = space.total();
  return info;
}

// ---- lifecycle --------------------------------------------------------------

Status Store::Close() {
  util::WriterLock ex(impl_->lifecycle_mu);
  Impl& im = *impl_;
  if (im.closed) return Status::OK();
  im.closed = true;

  Status result = Status::OK();
  const bool crashed = im.crashed.load(std::memory_order_acquire);
  // The exclusive lifecycle lock already excludes every writer of the
  // deferred slot, but taking ckpt_mu keeps the GUARDED_BY contract
  // uniform (it is uncontended here and nests correctly inside).
  {
    const util::MutexLock ck(im.ckpt_mu);
    if (!im.deferred_ckpt_error.ok()) {
      result = im.deferred_ckpt_error;
      im.deferred_ckpt_error = Status::OK();
    }
  }
  // An injected fault in either step below is the power cut: every WAL
  // handle is abandoned and the fault is the result. Any other failure is
  // kept unless an earlier one already is.
  auto settle = [&](auto&& step) {
    try {
      step();
    } catch (...) {
      Status s = persist::current_exception_status();
      if (s.IsFaultInjected()) {
        im.crashed.store(true, std::memory_order_release);
        im.wal->abandon();
        result = std::move(s);
      } else if (result.ok()) {
        result = std::move(s);
      }
    }
  };
  // Drain the in-flight checkpoint before anything it references goes away.
  if (im.compactor) settle([&] { im.compactor->wait(); });
  if (im.wal && !crashed && !im.crashed.load(std::memory_order_acquire)) {
    // Every acknowledged mutation is already durable; a record whose
    // commit failed (its caller got the error) gets one more try.
    settle([&] { im.wal->commit_all(); });
  }

  // Teardown order: the compactor's (drained) job ran through the engine,
  // the engine references the WAL, the WAL holds the shard files, and the
  // LOCK releases last — nothing of this handle touches the directory
  // afterwards.
  if (im.wal) im.core->attach_journal(nullptr);
  im.compactor.reset();
  im.delta.reset();
  im.wal.reset();
  im.lock.Release();
  return result;
}

void Store::Abandon() {
  util::WriterLock ex(impl_->lifecycle_mu);
  Impl& im = *impl_;
  if (im.closed && !im.crashed.load(std::memory_order_acquire)) {
    // Already cleanly closed: nothing left to abandon.
    return;
  }
  im.closed = true;
  im.crashed.store(true, std::memory_order_release);
  if (im.compactor) {
    try {
      im.compactor->wait();  // a checkpoint that already passed its
    } catch (...) {          // boundaries lands — "the power dies an
    }                        // instant later"
  }
  if (im.wal) {
    im.core->attach_journal(nullptr);
    im.wal->abandon();
  }
  im.compactor.reset();
  im.delta.reset();
  im.wal.reset();
  im.lock.Release();
}

}  // namespace smartstore::db
