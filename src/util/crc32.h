// CRC-32 (IEEE 802.3 polynomial, reflected) for checkpoint section
// integrity. Not cryptographic — the chain layer handles authenticity; this
// catches torn writes and bit rot in checkpoint files before a resume
// silently diverges.
#pragma once

#include <cstdint>
#include <span>

namespace nwade::util {

/// CRC-32 of `data` (init 0xFFFFFFFF, final xor, reflected polynomial
/// 0xEDB88320) — the same value `cksum`-style tools and zlib's crc32 report.
std::uint32_t crc32(std::span<const std::uint8_t> data);

}  // namespace nwade::util
