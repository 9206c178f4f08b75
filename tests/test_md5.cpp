// RFC 1321 conformance tests for the MD5 implementation.
#include "bloom/md5.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace smartstore::bloom {
namespace {

// The seven official RFC 1321 test vectors.
TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(md5("").hex(), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(md5("a").hex(), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(md5("abc").hex(), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(md5("message digest").hex(), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(md5("abcdefghijklmnopqrstuvwxyz").hex(),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(
      md5("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")
          .hex(),
      "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(md5("1234567890123456789012345678901234567890123456789012345678"
                "9012345678901234567890")
                .hex(),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
  const std::string s = "the quick brown fox jumps over the lazy dog";
  Md5 h;
  for (char c : s) h.update(&c, 1);
  EXPECT_EQ(h.finalize().hex(), md5(s).hex());
}

TEST(Md5, ChunkedUpdatesAcrossBlockBoundary) {
  std::string s(200, 'x');
  for (std::size_t split = 0; split < s.size(); split += 37) {
    Md5 h;
    h.update(s.substr(0, split));
    h.update(s.substr(split));
    EXPECT_EQ(h.finalize().hex(), md5(s).hex());
  }
}

TEST(Md5, ExactBlockLengths) {
  // 55, 56, 63, 64, 65 bytes exercise the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 128u}) {
    std::string s(len, 'b');
    Md5 h;
    h.update(s);
    EXPECT_EQ(h.finalize(), md5(s)) << "len=" << len;
  }
}

std::string byte_pattern(std::size_t len) {
  std::string s(len, '\0');
  for (std::size_t i = 0; i < len; ++i)
    s[i] = static_cast<char>((i * 7 + 3) & 0xff);
  return s;
}

TEST(Md5, PaddingBoundariesOneShotMatchesTwoPieces) {
  // Every length up to 200 crosses each padding case: the 0x80 byte and
  // the length field in one block (L mod 64 < 56) or spilling into a
  // second (55/56/63/64 are the edges).
  for (std::size_t len = 0; len <= 200; ++len) {
    const std::string s = byte_pattern(len);
    const Md5Digest whole = md5(s);
    for (std::size_t split : {std::size_t{0}, std::size_t{1}, len / 2,
                              len == 0 ? 0 : len - 1}) {
      if (split > len) continue;
      Md5 h;
      h.update(s.data(), split);
      h.update(s.data() + split, len - split);
      EXPECT_EQ(h.finalize(), whole) << "len=" << len << " split=" << split;
    }
  }
}

TEST(Md5, PaddingBoundaryVectors) {
  // Digests of bytes (7i + 3) mod 256, i < L, from a standard MD5
  // implementation (Python's hashlib), at and around each block edge.
  const std::pair<std::size_t, const char*> kVectors[] = {
      {0, "d41d8cd98f00b204e9800998ecf8427e"},
      {1, "8666683506aacd900bbd5a74ac4edf68"},
      {55, "52c0e574e1198de5fe3f8f11440dcb1b"},
      {56, "46c9907fc908ee68b1e7b8e71286a518"},
      {57, "1c805dd236c35cab25fcb1bc73802c51"},
      {63, "a62f6d59e837867693f042f5b8f5a236"},
      {64, "7160b8fb5e9e4023d549c3971fbaeead"},
      {65, "70bd662e7aefbda85a0f7244167b7897"},
      {119, "e84905d4214f4d1ca56c2cdcc152b143"},
      {120, "e3eb5a6c8669ea01a8c185b8abc8a5dc"},
      {127, "acce2474d6cc8302120d09c818d17ef7"},
      {128, "10b2da1a82f16d99a81a7203fe9f02cb"},
      {200, "4c79b81ac94bad7a875519ce6b964c66"},
  };
  for (const auto& [len, hex] : kVectors)
    EXPECT_EQ(md5(byte_pattern(len)).hex(), hex) << "len=" << len;
}

TEST(Md5, WordsSplit128BitsIntoFour32Bit) {
  const Md5Digest d = md5("abc");
  const auto w = d.words();
  // Reassemble little-endian words into bytes and compare.
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(static_cast<std::uint8_t>((w[i] >> (8 * j)) & 0xff),
                d.bytes[i * 4 + j]);
    }
  }
}

TEST(Md5, DistinctInputsDistinctDigests) {
  EXPECT_NE(md5("file_a.dat"), md5("file_b.dat"));
  EXPECT_NE(md5("/sub0/u1/f1"), md5("/sub1/u1/f1"));
}

TEST(Md5, BinaryDataWithEmbeddedNuls) {
  const char data[] = {0x00, 0x01, 0x02, 0x00, 0x03};
  const auto d1 = md5(data, sizeof(data));
  const auto d2 = md5(data, sizeof(data));
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1, md5(data, sizeof(data) - 1));
}

}  // namespace
}  // namespace smartstore::bloom
