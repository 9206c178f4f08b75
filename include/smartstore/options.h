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
// it is acknowledged, and every checkpoint is a delta cut or fold under
// <path>/ckpt/. No option trades that durability for speed.
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
  /// Background-checkpoint cadence: every N acknowledged mutations, take
  /// a delta CUT on a background thread, concurrent with serving — slice
  /// each storage unit's WAL shard since the last cut into an append-only
  /// segment file under <path>/ckpt/, publish a manifest chaining the cut
  /// onto the base image, and rebase the shards. Cold units contribute
  /// nothing; a wholly cold store cuts for free. Recovery loads base +
  /// delta chain + WAL tail. 0 = checkpoint only on explicit Checkpoint()
  /// calls. Requires a durable store.
  std::size_t checkpoint_every = 0;

  /// After a cut, fold the delta chain into a fresh base image (epoch
  /// freeze + copy-on-write, concurrent with serving) once it exceeds this
  /// many cuts. 0 = never by length.
  std::size_t compaction_trigger = 4;

  /// ...or once the chain's segment extents exceed this many bytes.
  /// 0 = never by bytes. Both 0 = compact only on explicit Compact().
  std::uint64_t compaction_byte_budget = 64ull << 20;
};

}  // namespace smartstore::db
