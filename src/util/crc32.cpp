#include "util/crc32.h"

#include <array>

namespace nwade::util {
namespace {

/// table[0] is the classic bytewise table; table[k][b] advances the CRC of
/// byte b through k further zero bytes, so eight lookups consume eight
/// input bytes at once (slicing-by-8).
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const Tables t = make_tables();
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    // Little-endian assembly by shifts: independent of host byte order and
    // of alignment.
    const std::uint32_t lo = crc ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
                                    std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace nwade::util
