// Binary serialization substrate for the persistence layer.
//
// BinaryWriter appends little-endian primitives to a growable byte buffer;
// BinaryReader decodes from a read-only view with bounds checking on every
// access — a truncated or corrupted input surfaces as a BinaryIoError, never
// as an out-of-bounds read or a multi-gigabyte allocation from a garbage
// length prefix. Doubles travel as IEEE-754 bit patterns so values (incl.
// infinities from empty MBRs) round-trip exactly.
//
// The encoding is deliberately dumb: fixed-width integers, u64 length
// prefixes, no varints, no alignment. Snapshot/WAL framing, versioning and
// checksumming live one layer up in src/persist/.
//
// The writer copies each value's bytes as the host holds them, one copy
// per value and one per vector's element block. That is the little-endian
// wire encoding only on a little-endian host whose size_t is 8 bytes and
// whose double is IEEE-754 binary64; the static_asserts below pin all
// three, so a host that differs fails to compile rather than writing
// images, logs and frames no other host can read.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace smartstore::util {

static_assert(std::endian::native == std::endian::little,
              "BinaryWriter copies host words: the wire is little-endian");
static_assert(sizeof(std::size_t) == 8,
              "std::size_t vectors are copied as u64 blocks");
static_assert(std::numeric_limits<double>::is_iec559 && sizeof(double) == 8,
              "doubles travel as IEEE-754 binary64 bit patterns");

/// Raised on any malformed read: out-of-bounds access, implausible length
/// prefix, or a value that fails a caller-declared sanity bound.
class BinaryIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class BinaryWriter {
 public:
  BinaryWriter() = default;
  /// Adopts `buf`: writes land after the bytes it holds, and release()
  /// hands the vector back — a payload codec encodes straight into its
  /// caller's buffer.
  explicit BinaryWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {}

  void write_u8(std::uint8_t v) { buf_.push_back(v); }
  void write_u32(std::uint32_t v) { append(&v, sizeof v); }
  void write_u64(std::uint64_t v) { append(&v, sizeof v); }
  void write_i32(std::int32_t v) { write_u32(static_cast<std::uint32_t>(v)); }
  void write_f64(double v) { append(&v, sizeof v); }
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  /// u64 length prefix + raw bytes.
  void write_string(const std::string& s);
  void write_bytes(const void* data, std::size_t len) { append(data, len); }
  /// `n` doubles as one block, with no count prefix (fixed-size arrays).
  void write_f64_block(const double* v, std::size_t n) {
    append(v, n * sizeof(double));
  }
  /// u64 element count + elements.
  void write_vec_f64(const std::vector<double>& v);
  void write_vec_u64(const std::vector<std::uint64_t>& v);
  /// std::size_t vectors are widened to u64 on the wire.
  void write_vec_size(const std::vector<std::size_t>& v);

  /// Overwrite the u32 / u64 at byte offset `at`, which an earlier write
  /// of the same width left there (a count or length prefix written
  /// before its payload was sized).
  void patch_u32(std::size_t at, std::uint32_t v) { patch(at, &v, sizeof v); }
  void patch_u64(std::size_t at, std::uint64_t v) { patch(at, &v, sizeof v); }
  /// Drops every byte past the first `size` (none when it holds fewer).
  void truncate(std::size_t size) {
    if (size < buf_.size()) buf_.resize(size);
  }
  /// Makes room for `more` bytes past the current end, so the writes that
  /// fill them do not reallocate.
  void reserve(std::size_t more) { buf_.reserve(buf_.size() + more); }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  /// Moves the buffer out (an adopted one with its earlier bytes),
  /// leaving the writer empty.
  std::vector<std::uint8_t> release();
  std::size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }

 private:
  /// Copies `len` bytes to the end in one call. Out of line on purpose:
  /// inlined into its callers, std::vector's growth path draws false
  /// -Wstringop-overflow and -Warray-bounds warnings from GCC 12.
  void append(const void* data, std::size_t len);
  void patch(std::size_t at, const void* v, std::size_t len);

  std::vector<std::uint8_t> buf_;
};

class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<std::uint8_t>& buf)
      : BinaryReader(buf.data(), buf.size()) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32() { return static_cast<std::int32_t>(read_u32()); }
  double read_f64();
  bool read_bool();
  std::string read_string();
  std::vector<double> read_vec_f64();
  std::vector<std::uint64_t> read_vec_u64();
  std::vector<std::size_t> read_vec_size();

  /// read_u64 checked against an inclusive upper bound (e.g. element counts
  /// that index into an existing container).
  std::uint64_t read_u64_max(std::uint64_t max, const char* what);

  /// Advances past `n` bytes (bounds-checked).
  void skip(std::size_t n);

  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }
  std::size_t position() const { return pos_; }

 private:
  /// Validates that `n` more bytes exist and returns a pointer to them,
  /// advancing the cursor.
  const std::uint8_t* take(std::size_t n);
  /// A length prefix for `elem_size`-byte elements must fit in what is left
  /// of the buffer; rejects garbage lengths before any allocation.
  std::size_t take_count(std::size_t elem_size);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- whole-file helpers -----------------------------------------------------

/// Reads an entire file; throws BinaryIoError when absent or unreadable.
std::vector<std::uint8_t> read_file_bytes(const std::string& path);

/// Pushes `f`'s stdio buffer to the OS and fsyncs the descriptor (the
/// fsync on POSIX only); false when either fails, i.e. when the bytes
/// written so far are not known to be durable.
bool flush_and_sync(std::FILE* f);

/// Best-effort fsync of the directory containing `path` (POSIX; no-op on
/// other platforms): makes a just-created or just-renamed directory entry
/// survive power loss.
void fsync_parent_dir(const std::string& path);

}  // namespace smartstore::util
