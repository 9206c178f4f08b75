// Counters kept at the libc boundary by link-time wrappers (see
// CMakeLists.txt: -Wl,--wrap=...). They see every call the SmartStore
// libraries make, because those libraries are linked into this binary.
//
// fsync and fdatasync are counted and answered without reaching the
// device. The benchmark keeps its data inside the checkout it runs from,
// which is usually a shared disk whose flush latency swings by several
// times within minutes; answering here is what a tmpfs data directory
// does, so the durable workload times the program's durability path and
// counts its flushes instead of timing the device.
#pragma once

#include <cstdint>

namespace perfbench {

struct IoCounters {
  std::uint64_t fsyncs = 0;       ///< fsync + fdatasync calls
  std::uint64_t write_bytes = 0;  ///< bytes handed to fwrite + write
  std::uint64_t write_calls = 0;

  static IoCounters Now();
  IoCounters operator-(const IoCounters& earlier) const {
    return {fsyncs - earlier.fsyncs, write_bytes - earlier.write_bytes,
            write_calls - earlier.write_calls};
  }
};

}  // namespace perfbench
