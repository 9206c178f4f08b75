#include "util/binary_io.h"

#include <cstring>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace smartstore::util {

// ---- BinaryWriter -----------------------------------------------------------

void BinaryWriter::append(const void* data, std::size_t len) {
  if (len == 0) return;  // data may be null for an empty source
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  append(s.data(), s.size());
}

void BinaryWriter::write_vec_f64(const std::vector<double>& v) {
  write_u64(v.size());
  append(v.data(), v.size() * sizeof(double));
}

void BinaryWriter::write_vec_u64(const std::vector<std::uint64_t>& v) {
  write_u64(v.size());
  append(v.data(), v.size() * sizeof(std::uint64_t));
}

void BinaryWriter::write_vec_size(const std::vector<std::size_t>& v) {
  write_u64(v.size());
  append(v.data(), v.size() * sizeof(std::size_t));
}

void BinaryWriter::patch(std::size_t at, const void* v, std::size_t len) {
  if (at > buf_.size() || buf_.size() - at < len)
    throw std::out_of_range("BinaryWriter::patch past the end");
  std::memcpy(buf_.data() + at, v, len);
}

std::vector<std::uint8_t> BinaryWriter::release() {
  std::vector<std::uint8_t> out;
  out.swap(buf_);
  return out;
}

// ---- BinaryReader -----------------------------------------------------------

const std::uint8_t* BinaryReader::take(std::size_t n) {
  if (n > size_ - pos_) {
    throw BinaryIoError("binary read past end of buffer (" +
                        std::to_string(n) + " bytes wanted, " +
                        std::to_string(size_ - pos_) + " left)");
  }
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::size_t BinaryReader::take_count(std::size_t elem_size) {
  const std::uint64_t n = read_u64();
  if (elem_size != 0 && n > remaining() / elem_size) {
    throw BinaryIoError("implausible length prefix " + std::to_string(n) +
                        " (only " + std::to_string(remaining()) +
                        " bytes left)");
  }
  return static_cast<std::size_t>(n);
}

std::uint8_t BinaryReader::read_u8() { return *take(1); }

std::uint32_t BinaryReader::read_u32() {
  const std::uint8_t* p = take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t BinaryReader::read_u64() {
  const std::uint8_t* p = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

double BinaryReader::read_f64() {
  return std::bit_cast<double>(read_u64());
}

bool BinaryReader::read_bool() {
  const std::uint8_t v = read_u8();
  if (v > 1) throw BinaryIoError("malformed bool value");
  return v != 0;
}

std::string BinaryReader::read_string() {
  const std::size_t n = take_count(1);
  const std::uint8_t* p = take(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

std::vector<double> BinaryReader::read_vec_f64() {
  const std::size_t n = take_count(8);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = read_f64();
  return v;
}

std::vector<std::uint64_t> BinaryReader::read_vec_u64() {
  const std::size_t n = take_count(8);
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = read_u64();
  return v;
}

std::vector<std::size_t> BinaryReader::read_vec_size() {
  const std::size_t n = take_count(8);
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::size_t>(read_u64());
  return v;
}

void BinaryReader::skip(std::size_t n) { take(n); }

std::uint64_t BinaryReader::read_u64_max(std::uint64_t max, const char* what) {
  const std::uint64_t v = read_u64();
  if (v > max) {
    throw BinaryIoError(std::string(what) + " out of range: " +
                        std::to_string(v) + " > " + std::to_string(max));
  }
  return v;
}

// ---- whole-file helpers -----------------------------------------------------

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw BinaryIoError("cannot open for reading: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(size > 0 ? static_cast<std::size_t>(size)
                                           : 0);
  if (!bytes.empty() && std::fread(bytes.data(), 1, bytes.size(), f) !=
                            bytes.size()) {
    std::fclose(f);
    throw BinaryIoError("short read: " + path);
  }
  std::fclose(f);
  return bytes;
}

bool flush_and_sync(std::FILE* f) {
  if (std::fflush(f) != 0) return false;
#if defined(__unix__) || defined(__APPLE__)
  if (::fsync(::fileno(f)) != 0) return false;
#endif
  return true;
}

void fsync_parent_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) parent = ".";
  const int fd = ::open(parent.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace smartstore::util
