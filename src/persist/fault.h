// Crash injection for the persistence layer.
//
// Every durability-relevant boundary in src/persist/ — each snapshot
// section, each stage of an atomic file publish (partial temp, pre-rename,
// pre-dir-fsync), each WAL commit block (including a torn half-written
// block) and each WAL rebase stage — calls fault_point(). Tests arm a
// countdown; when the armed point is reached a FaultInjected exception
// unwinds the writer mid-operation, leaving the on-disk files in exactly
// the state a power cut at that instant would: the crash-injection suite
// then asserts recover() lands on a consistent prefix from *any* of these
// states.
//
// Disarmed cost is one relaxed atomic increment per fault point, so the
// hooks stay compiled into production binaries (the CLI exposes them via
// --crash-at for reproducing recovery scenarios by hand).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "persist/snapshot.h"

namespace smartstore::persist {

/// Thrown when an armed fault point fires — the in-process stand-in for
/// the process dying at that write boundary.
class FaultInjected : public PersistError {
 public:
  using PersistError::PersistError;
};

/// Arms the injector: the `nth` fault point passed from now on (1-based)
/// throws FaultInjected. Resets the pass counter.
void fault_arm(std::uint64_t nth);

/// Disarms the injector. Resets the pass counter.
void fault_disarm();

/// Fault points passed since the last arm/disarm — run a scenario once
/// disarmed to enumerate its fault points, then sweep 1..N armed.
std::uint64_t fault_points_passed();

/// Name of the fault point that fired most recently (empty when none has).
std::string fault_last_fired();

/// Declares a crash boundary. Counts the pass; throws FaultInjected when
/// this is the armed occurrence.
void fault_point(const char* where);

/// util::write_file_atomic with crash boundaries at each durability stage
/// — "<prefix>:torn-temp" after half the temp file (flushed, so a fresh
/// scan sees the tear), "<prefix>:pre-rename" with the full temp
/// unpublished, "<prefix>:pre-dirsync" after the rename but before the
/// directory entry is durable. Every temp+rename publish in src/persist/
/// (base images, manifests, WAL rebases) goes through this one
/// implementation, so their crash behavior cannot drift. It deliberately
/// mirrors util::write_file_atomic rather than wrapping it — util/ stays
/// free of persist dependencies, and the fault hooks need to fire inside
/// the write. When the OS refuses the open, a write or the rename, it
/// throws PersistError kIo. The one log write NOT routed here is a fresh
/// shard log's header, which has no temp/rename stages; its sole crash
/// window (a short header) is covered by scan_wal's torn-creation
/// handling.
void write_file_atomic_faulted(const std::string& path,
                               const std::vector<std::uint8_t>& bytes,
                               const std::string& fault_prefix);

}  // namespace smartstore::persist
