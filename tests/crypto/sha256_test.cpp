// SHA-256 and HMAC-SHA256 against FIPS/RFC known-answer vectors.
#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.h"

namespace nwade::crypto {
namespace {

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(sha256(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog, repeatedly";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), sha256(msg)) << "split at " << split;
  }
}

TEST(Sha256, ExactBlockBoundaries) {
  // Messages of length 55/56/63/64/65 hit distinct padding paths.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(msg);
    Sha256 b;
    for (char c : msg) b.update(std::string_view(&c, 1));
    EXPECT_EQ(a.finish(), b.finish()) << "len " << len;
  }
}

TEST(Sha256, PaddingBoundariesMatchKnownDigests) {
  // Digests of n repeated 'x' bytes from an independent SHA-256 (Python's
  // hashlib). Each length lands the 0x80 marker and the 64-bit length at a
  // different offset, including the one-extra-block spill past byte 55.
  const struct {
    std::size_t len;
    const char* hex;
  } kCases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {1, "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881"},
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {57, "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
      {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
      {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
      {128, "24da1b81d0b16df6428eee73c69fcb2a93c76bc6df706f0c6670fe6bfe800464"},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(digest_hex(sha256(std::string(c.len, 'x'))), c.hex)
        << "len " << c.len;
  }
}

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const std::string msg = "Hi There";
  const Digest mac = hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(digest_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const Digest mac = hmac_sha256(
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(key.data()),
                                    key.size()),
      std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(msg.data()),
                                    msg.size()));
  EXPECT_EQ(digest_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  const Bytes key(131, 0xaa);  // > block size, RFC 4231 case 6 key shape
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest mac = hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(digest_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, MidstateMacEqualsHmacSha256) {
  // Every key length around the 64-byte block (and past it, where the key is
  // hashed first), each with a few random messages of random length.
  Rng rng(4231);
  for (std::size_t key_len = 0; key_len <= 130; ++key_len) {
    Bytes key(key_len);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const HmacSha256 hmac(key);
    for (int m = 0; m < 4; ++m) {
      Bytes msg(static_cast<std::size_t>(rng.uniform_int(0, 200)));
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      ASSERT_EQ(digest_hex(hmac.mac(msg)), digest_hex(hmac_sha256(key, msg)))
          << "key length " << key_len << ", message length " << msg.size();
    }
  }
}

}  // namespace
}  // namespace nwade::crypto
