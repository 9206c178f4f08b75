// Open-time configuration of the embedded store.
//
// Options is the one place where the durability/concurrency machinery the
// lower layers export piecemeal (core striping, the sharded WAL,
// background checkpoint cadence) is composed into a coherent deployment.
// Everything has a safe default: Options{} opens a durable, write-ahead
// logged store that checkpoints only when asked. A durable store has one
// durability path: every mutation is logged to the sharded WAL
// (<path>/wal/<unit>.log, one log per storage unit — writers routed to
// different units commit and fsync independently) and committed before
// it is acknowledged, and a checkpoint folds the log into a base image
// under <path>/ckpt/ once the log has grown to the base's size. No option
// trades that durability for speed.
#pragma once

#include <cstddef>
#include <cstdint>

namespace smartstore::db {

/// Query routing mode (paper Sections 3.3 / 3.4). kOffline consults the
/// replicated group summaries and bounds the search scope (fast,
/// recall < 100% under replica staleness); kOnline multicasts through the
/// semantic R-tree (exact, message-heavy).
enum class Routing { kOnline, kOffline };

struct Options {
  // ---- deployment shape (used only when Open builds a fresh store; an
  // ---- existing checkpoint carries its own configuration) ----------------
  std::size_t num_units = 20;   ///< storage units (metadata servers)
  std::size_t fanout = 8;       ///< semantic R-tree M
  std::uint64_t seed = 42;      ///< placement / routing rng seed

  /// Default routing for queries whose QueryRequest does not override it.
  Routing routing = Routing::kOffline;

  // ---- open semantics ----------------------------------------------------
  /// Build an empty deployment on a fresh dir; when false, Open answers
  /// kNotFound for a path holding neither a checkpoint nor a WAL log.
  bool create_if_missing = true;

  /// Ephemeral mode: no data directory, no LOCK file, no WAL, no
  /// checkpoints (Checkpoint()/Flush() return kFailedPrecondition). The
  /// `path` argument to Open is ignored. For query-only experiments and
  /// tests that do not want disk state.
  bool in_memory = false;

  // ---- checkpoints -------------------------------------------------------
  /// Background-checkpoint cadence: every N acknowledged mutations, run
  /// one checkpoint on a background thread, concurrent with serving. The
  /// WAL is the delta: a checkpoint folds the deployment into a fresh base
  /// image under <path>/ckpt/ (the store as of a pinned seq) when there is
  /// no base yet or when the shards hold at least as many records logged
  /// since the base as the base holds, and writes nothing otherwise.
  /// Recovery loads the base and replays the WAL tail. 0 = checkpoint only
  /// on explicit Checkpoint() calls. Requires a durable store.
  std::size_t checkpoint_every = 0;
};

}  // namespace smartstore::db
