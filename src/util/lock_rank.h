// Runtime lock-order validation: the dynamic half of the lock-discipline
// machinery (the static half is Clang Thread Safety Analysis, wired through
// util/thread_annotations.h + util/annotated_mutex.h).
//
// TSA proves "you hold the right lock" but cannot express *ordering* —
// in particular the address-keyed stripe pools (core/striped_locks.h),
// where the lock you take depends on a runtime hash. So every mutex in the
// store carries a LockRank, and a thread-local stack of currently-held
// ranks enforces the one global rule on every acquire:
//
//     a thread may only acquire a lock of STRICTLY GREATER rank than
//     every lock it already holds.
//
// Strict inequality is what encodes the striping discipline: two stripes
// share a rank, so holding one while taking another (even a different
// stripe of the same pool) is rejected — walkers must lock a node, update,
// release, then move to the parent ("child before parent, one at a time").
// It also rejects recursive acquisition of the same mutex outright.
//
// The check runs BEFORE blocking on the underlying mutex, so an ordering
// violation aborts with a diagnostic instead of deadlocking the test run.
//
// kLeaf-ranked mutexes are terminal and exempt: they guard a few scalar
// updates, never call out, and may be taken from anywhere (logging, fault
// points, thread-pool queues); tracking them would only burn cycles.
//
// Enabled when NDEBUG is unset (debug/asan presets) or when
// SMARTSTORE_LOCK_RANK_CHECKS is defined (the tsan preset compiles
// RelWithDebInfo, which defines NDEBUG, so CMake injects the macro there
// explicitly). Release builds compile the validator out entirely: the
// on_acquire/on_release hooks are empty inline functions.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace smartstore::util {

/// The global acquisition order, top of the hierarchy first. Gaps between
/// values leave room for the ROADMAP's next lock domains (seqlock/RCU read
/// path, distributed metadata service) without renumbering.
enum class LockRank : int {
  kLifecycle = 0,        ///< db::Store lifecycle shared_mutex
  kDbCheckpoint = 2,     ///< db::Store checkpoint serialization mutex
  kCompactor = 6,        ///< delta-checkpoint engine / compactor mutex
                         ///< (held across begin_checkpoint: below kShape)
  kShape = 10,           ///< core structure (shape) shared_mutex
  kUnit = 20,            ///< per-storage-unit record mutexes
  kSummaryStripe = 30,   ///< index-unit summary stripe pool
  kSyncStripe = 40,      ///< group replica-sync stripe pool
  kFreeze = 50,          ///< checkpoint freeze state (the frozen core)
  kWalShardMap = 52,     ///< sharded-WAL shard-map shape mutex
  kWalShard = 54,        ///< per-shard WAL writer mutexes
  kReplBuffer = 56,      ///< replication commit-tap reorder buffer (taken
                         ///< from under a kWalShard mutex by the tap)
  kCluster = 58,         ///< sim::Cluster queue/counter mutex
  // The service tier (src/rpc, src/svc) sits numerically ABOVE every store
  // rank on purpose: a service-tier lock may therefore NEVER be held while
  // calling down into db::Store (whose lifecycle lock is rank 0) — the
  // handler/router protocols release before descending (dedup uses
  // pending-markers, the router copies the shard id out of its map cache),
  // and the validator aborts any accidental hold-across-the-facade.
  kRpcRegistry = 60,     ///< in-process transport endpoint registry
  kSvcCluster = 62,      ///< svc::Cluster shard bookkeeping mutex
  kSvcMap = 63,          ///< MetaService installed-partition-map mutex
  kSvcDedup = 64,        ///< MetaService request-id dedup table + cv
  kSvcLease = 65,        ///< MetaService snapshot-lease table
  kSvcRouter = 66,       ///< Router partition-map cache shared_mutex
  kRpcChannel = 68,      ///< socket channel/server connection mutexes
  kLeaf = 250,           ///< terminal scalar-update locks — untracked
};

inline const char* lock_rank_name(LockRank r) {
  switch (r) {
    case LockRank::kLifecycle: return "lifecycle";
    case LockRank::kDbCheckpoint: return "db-checkpoint";
    case LockRank::kCompactor: return "compactor";
    case LockRank::kShape: return "shape";
    case LockRank::kUnit: return "unit";
    case LockRank::kSummaryStripe: return "summary-stripe";
    case LockRank::kSyncStripe: return "sync-stripe";
    case LockRank::kFreeze: return "freeze";
    case LockRank::kWalShardMap: return "wal-shard-map";
    case LockRank::kWalShard: return "wal-shard";
    case LockRank::kReplBuffer: return "repl-buffer";
    case LockRank::kCluster: return "cluster";
    case LockRank::kRpcRegistry: return "rpc-registry";
    case LockRank::kSvcCluster: return "svc-cluster";
    case LockRank::kSvcMap: return "svc-map";
    case LockRank::kSvcDedup: return "svc-dedup";
    case LockRank::kSvcLease: return "svc-lease";
    case LockRank::kSvcRouter: return "svc-router";
    case LockRank::kRpcChannel: return "rpc-channel";
    case LockRank::kLeaf: return "leaf";
  }
  return "?";
}

#if !defined(NDEBUG) || defined(SMARTSTORE_LOCK_RANK_CHECKS)
#define SMARTSTORE_LOCK_RANK_ACTIVE 1
#endif

#ifdef SMARTSTORE_LOCK_RANK_ACTIVE

class LockOrderValidator {
 public:
  /// Call immediately BEFORE blocking on the mutex at `mu`.
  static void on_acquire(const void* mu, LockRank rank) {
    if (rank == LockRank::kLeaf) return;
    Stack& s = tls();
    for (int i = 0; i < s.depth; ++i) {
      if (s.held[i].mu == mu) {
        fail("recursive acquisition", mu, rank, s.held[i].rank);
      }
      if (s.held[i].rank >= rank) {
        fail("rank not above all held locks", mu, rank, s.held[i].rank);
      }
    }
    if (s.depth == kMaxDepth) {
      fail("held-lock stack overflow", mu, rank, rank);
    }
    s.held[s.depth++] = Held{mu, rank};
  }

  /// Call immediately AFTER unlocking the mutex at `mu`.
  static void on_release(const void* mu, LockRank rank) {
    if (rank == LockRank::kLeaf) return;
    Stack& s = tls();
    for (int i = s.depth - 1; i >= 0; --i) {
      if (s.held[i].mu != mu) continue;
      for (int j = i; j + 1 < s.depth; ++j) s.held[j] = s.held[j + 1];
      --s.depth;
      return;
    }
    fail("release of a lock not held", mu, rank, rank);
  }

  /// True iff the calling thread holds the (non-leaf) mutex at `mu`.
  static bool holds(const void* mu) {
    const Stack& s = tls();
    for (int i = 0; i < s.depth; ++i) {
      if (s.held[i].mu == mu) return true;
    }
    return false;
  }

  /// Number of tracked locks the calling thread currently holds.
  static int held_count() { return tls().depth; }

 private:
  static constexpr int kMaxDepth = 16;
  struct Held {
    const void* mu;
    LockRank rank;
  };
  struct Stack {
    Held held[kMaxDepth];
    int depth = 0;
  };

  static Stack& tls() {
    thread_local Stack s;
    return s;
  }

  [[noreturn]] static void fail(const char* what, const void* mu,
                                LockRank acquiring, LockRank held) {
    std::fprintf(stderr,
                 "lock-rank violation: %s (acquiring %s(%d) at %p while "
                 "holding %s(%d))\n",
                 what, lock_rank_name(acquiring), static_cast<int>(acquiring),
                 mu, lock_rank_name(held), static_cast<int>(held));
    std::abort();
  }
};

#else  // !SMARTSTORE_LOCK_RANK_ACTIVE

class LockOrderValidator {
 public:
  static void on_acquire(const void*, LockRank) {}
  static void on_release(const void*, LockRank) {}
  static bool holds(const void*) { return false; }
  static int held_count() { return 0; }
};

#endif  // SMARTSTORE_LOCK_RANK_ACTIVE

}  // namespace smartstore::util
