// CRC-32: the sliced implementation must equal the classic bytewise
// definition on every length and every start alignment.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace nwade::util {
namespace {

/// The bytewise reference: one table lookup per input byte.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, CheckValue) {
  constexpr std::string_view kCheck = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(kCheck.data());
  EXPECT_EQ(crc32({p, kCheck.size()}), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  Rng rng(0xC3C32u);
  std::vector<std::uint8_t> buf(4099 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (int i = 0; i < 400; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 4099));
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::span<const std::uint8_t> s(buf.data() + offset, len);
      ASSERT_EQ(crc32(s), reference_crc32(s)) << "len=" << len << " offset=" << offset;
    }
  }
  // Every short length, where the 8-byte loop and the tail meet.
  for (std::size_t len = 0; len <= 64; ++len) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::span<const std::uint8_t> s(buf.data() + offset, len);
      ASSERT_EQ(crc32(s), reference_crc32(s)) << "len=" << len << " offset=" << offset;
    }
  }
}

}  // namespace
}  // namespace nwade::util
