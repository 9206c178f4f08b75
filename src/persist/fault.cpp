#include "persist/fault.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "util/annotated_mutex.h"
#include "util/binary_io.h"
#include "util/thread_annotations.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace smartstore::persist {

namespace {

// countdown < 0: disarmed. countdown == k > 0: the k-th fault_point from
// now fires. Decremented at each pass; fires when it reaches 0.
std::atomic<std::int64_t> g_countdown{-1};
std::atomic<std::uint64_t> g_passed{0};

util::Mutex g_name_mu;
std::string g_last_fired SS_GUARDED_BY(g_name_mu);

}  // namespace

void fault_arm(std::uint64_t nth) {
  g_passed.store(0, std::memory_order_relaxed);
  g_countdown.store(static_cast<std::int64_t>(nth), std::memory_order_relaxed);
}

void fault_disarm() {
  g_countdown.store(-1, std::memory_order_relaxed);
  g_passed.store(0, std::memory_order_relaxed);
}

std::uint64_t fault_points_passed() {
  return g_passed.load(std::memory_order_relaxed);
}

std::string fault_last_fired() {
  const util::MutexLock lock(g_name_mu);
  return g_last_fired;
}

void fault_point(const char* where) {
  g_passed.fetch_add(1, std::memory_order_relaxed);
  if (g_countdown.load(std::memory_order_relaxed) < 0) return;
  if (g_countdown.fetch_sub(1, std::memory_order_relaxed) == 1) {
    {
      const util::MutexLock lock(g_name_mu);
      g_last_fired = where;
    }
    throw FaultInjected(std::string("injected crash at ") + where);
  }
}

void write_file_atomic_faulted(const std::string& path,
                               const std::vector<std::uint8_t>& bytes,
                               const std::string& fault_prefix) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f)
    throw PersistError("cannot open for writing: " + tmp,
                       PersistError::Code::kIo);
  // The bytes land in two halves with a crash boundary between them: a
  // power cut does not respect write() boundaries, and the flushed torn
  // temp is exactly what the crash-injection suite must recover past.
  // Empty buffers skip fwrite entirely: data() may be null then, and
  // fwrite with a null pointer is undefined even for zero bytes.
  const std::size_t half = bytes.size() / 2;
  bool short_write =
      half > 0 && std::fwrite(bytes.data(), 1, half, f) != half;
  if (!short_write) {
    try {
      fault_point((fault_prefix + ":torn-temp").c_str());
    } catch (...) {
      std::fflush(f);
      std::fclose(f);
      throw;  // half a temp file; the published file is untouched
    }
    const std::size_t rest = bytes.size() - half;
    short_write =
        rest > 0 && std::fwrite(bytes.data() + half, 1, rest, f) != rest;
  }
  if (short_write) {
    std::fclose(f);
    throw PersistError("short write: " + tmp, PersistError::Code::kIo);
  }
  std::fflush(f);
#if defined(__unix__) || defined(__APPLE__)
  ::fsync(::fileno(f));
#endif
  std::fclose(f);

  fault_point((fault_prefix + ":pre-rename").c_str());
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec)
    throw PersistError("rename " + tmp + " -> " + path + ": " + ec.message(),
                       PersistError::Code::kIo);
  fault_point((fault_prefix + ":pre-dirsync").c_str());
  util::fsync_parent_dir(path);
}

}  // namespace smartstore::persist
