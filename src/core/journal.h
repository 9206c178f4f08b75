// The durable seam of core::SmartStore: the one interface through which a
// mutation reaches a write-ahead log. A store has at most one journal
// attached (SmartStore::attach_journal); persist::ShardedWal is the
// implementation every durable deployment attaches.
//
// Per mutation the core calls exactly one log_* and then commit() for the
// same unit. The log runs under the routed unit's lock, after the commit
// seq is stamped and before the in-memory apply, so a unit's log order is
// its apply order. The commit runs after that lock is released, so its
// fsync stalls only the writers of the unit it flushes.
// Reconfiguration (add/remove unit, autoconfigure) and build() never call
// the journal: the next checkpoint fold captures them.
#pragma once

#include <cstdint>
#include <string>

#include "core/units.h"
#include "metadata/file_metadata.h"

namespace smartstore::core {

class Journal {
 public:
  virtual ~Journal() = default;

  /// Logs the insert of `f` into `unit` under commit seq `seq`. Buffers
  /// only; never an fsync (it runs under the unit lock).
  virtual void log_insert(UnitId unit, const metadata::FileMetadata& f,
                          std::uint64_t seq) = 0;
  /// Logs the removal of `name` from `unit` under commit seq `seq`.
  virtual void log_remove(UnitId unit, const std::string& name,
                          std::uint64_t seq) = 0;
  /// The commit point for `unit`, once per logged mutation: returns only
  /// once the mutation's record is durable, so the caller may acknowledge
  /// it.
  virtual void commit(UnitId unit) = 0;
};

}  // namespace smartstore::core
