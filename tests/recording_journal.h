// A core::Journal that records every call the store makes on it, then
// forwards the call to a persist::ShardedWal. The seam tests assert on the
// call sequence; the crash sweep reads each insert's (shard, index) from
// it, recorded before the WAL append, so an attempt whose append or
// commit crashes is still on file. Single-threaded use only: the call log
// is unguarded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/journal.h"
#include "persist/wal_shard.h"

namespace smartstore::persist {

class RecordingJournal final : public core::Journal {
 public:
  enum class Kind { kInsert, kRemove, kCommit };
  struct Call {
    Kind kind = Kind::kCommit;
    core::UnitId unit = 0;
    std::string name;       ///< log calls only
    std::uint64_t seq = 0;  ///< log calls only
    std::uint64_t idx = 0;  ///< log calls: records logged to `unit` before
  };

  explicit RecordingJournal(ShardedWal& wal) : wal_(wal) {}

  void log_insert(core::UnitId unit, const metadata::FileMetadata& f,
                  std::uint64_t seq) override {
    record(Kind::kInsert, unit, f.name, seq);
    wal_.log_insert(unit, f, seq);
  }
  void log_remove(core::UnitId unit, const std::string& name,
                  std::uint64_t seq) override {
    record(Kind::kRemove, unit, name, seq);
    wal_.log_remove(unit, name, seq);
  }
  void commit(core::UnitId unit) override {
    calls_.push_back({Kind::kCommit, unit, {}, 0, 0});
    wal_.commit(unit);
  }

  const std::vector<Call>& calls() const { return calls_; }
  /// Records logged to `unit` so far (cumulative across rebases).
  std::uint64_t logged(core::UnitId unit) const {
    return unit < logged_.size() ? logged_[unit] : 0;
  }

 private:
  void record(Kind kind, core::UnitId unit, const std::string& name,
              std::uint64_t seq) {
    if (unit >= logged_.size()) logged_.resize(unit + 1, 0);
    calls_.push_back({kind, unit, name, seq, logged_[unit]++});
  }

  ShardedWal& wal_;
  std::vector<Call> calls_;
  std::vector<std::uint64_t> logged_;
};

}  // namespace smartstore::persist
