// In-memory span recorder for the traced run.
//
// A span is one call across a layer boundary, recorded from the
// benchmark's own code around the public call: name, start, end, the
// enclosing span on the same thread (its parent) and the client op id it
// serves. Recording is off in the end-to-end runs; when on, every thread
// appends to its own buffer (no lock on the record path) and the buffers
// are collected after the recording threads have joined. The in-process
// transport delivers a request on the caller's thread, so a router call's
// channel calls are its children on that thread.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench::spans {

enum class Name : std::uint8_t {
  kRouterPoint,
  kRouterPut,
  kRouterDelete,
  kRouterRange,
  kRouterTopK,
  kChannelCall,  ///< tag: rpc::Method
  kStoreQuery,   ///< tag: db::QueryKind
  kStorePut,
  kStoreDelete,
  kStoreFlush,
  kStoreCheckpoint,
  kStoreCompact,
  kCount
};

const char* name_of(Name n);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;      ///< client op id (client << 40 | sequence)
  std::int32_t parent = -1;  ///< index into the same thread's spans
  Name name = Name::kCount;
  std::uint8_t tag = 0;
};

/// The spans one thread recorded, in begin order.
struct ThreadSpans {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
};

void set_enabled(bool on);
bool enabled();

/// Sets the op id stamped on the calling thread's next spans.
void set_op(std::uint64_t op);

/// Opens a span on the calling thread; returns its index for end().
std::int32_t begin(Name n, std::uint8_t tag);
void end(std::int32_t index);

/// Moves every thread's spans out (buffers stay registered, emptied).
/// Call only while no thread is recording.
std::vector<ThreadSpans> take();

/// RAII span; records nothing while recording is off.
class Scope {
 public:
  explicit Scope(Name n, std::uint8_t tag = 0)
      : index_(enabled() ? begin(n, tag) : -1) {}
  ~Scope() {
    if (index_ >= 0) end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_;
};

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Nanoseconds of [start, end) not covered by any child interval. Children
/// are clipped to the parent and may overlap one another.
std::int64_t self_ns(std::int64_t start, std::int64_t end,
                     std::vector<Interval> children);

struct Derived {
  std::int64_t self_ns = 0;
  std::uint32_t children = 0;  ///< direct children
};

/// Self time and direct-child count of every span of one thread.
std::vector<Derived> derive(const std::vector<Span>& spans);

/// Writes all spans as TSV (thread, op, name, tag, start_ns, end_ns,
/// parent). Returns false when the file cannot be written.
bool write_tsv(const std::string& path, const std::vector<ThreadSpans>& all);

}  // namespace perfbench::spans
