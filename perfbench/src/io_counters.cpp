#include "io_counters.h"

#include <sys/types.h>

#include <atomic>
#include <cstdio>

namespace {

std::atomic<std::uint64_t> g_fsyncs{0};
std::atomic<std::uint64_t> g_write_bytes{0};
std::atomic<std::uint64_t> g_write_calls{0};

void count_write(std::uint64_t bytes) {
  g_write_bytes.fetch_add(bytes, std::memory_order_relaxed);
  g_write_calls.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

extern "C" {

std::size_t __real_fwrite(const void* ptr, std::size_t size, std::size_t n,
                          std::FILE* f);
ssize_t __real_write(int fd, const void* buf, std::size_t count);

int __wrap_fsync(int /*fd*/) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

int __wrap_fdatasync(int /*fd*/) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

std::size_t __wrap_fwrite(const void* ptr, std::size_t size, std::size_t n,
                          std::FILE* f) {
  const std::size_t done = __real_fwrite(ptr, size, n, f);
  count_write(static_cast<std::uint64_t>(done) * size);
  return done;
}

ssize_t __wrap_write(int fd, const void* buf, std::size_t count) {
  const ssize_t done = __real_write(fd, buf, count);
  if (done > 0) count_write(static_cast<std::uint64_t>(done));
  return done;
}

}  // extern "C"

namespace perfbench {

IoCounters IoCounters::Now() {
  return {g_fsyncs.load(std::memory_order_relaxed),
          g_write_bytes.load(std::memory_order_relaxed),
          g_write_calls.load(std::memory_order_relaxed)};
}

}  // namespace perfbench
