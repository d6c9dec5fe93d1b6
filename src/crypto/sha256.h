// FIPS 180-4 SHA-256, implemented from scratch (no third-party crypto).
//
// Used for block hashes, Merkle trees, and as the digest inside RSA
// signatures, matching the paper's "hash value of a block is generated using
// the SHA256 method".
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#include "util/bytes.h"

namespace nwade::crypto {

/// A 256-bit digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256();

  /// Absorbs more input. May be called repeatedly.
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s);

  /// Finalizes and returns the digest. The hasher must not be reused after.
  Digest finish();

 private:
  void compress(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_len_{0};
  std::size_t buffer_len_{0};
};

/// One-shot convenience.
Digest sha256(std::span<const std::uint8_t> data);
Digest sha256(std::string_view s);

/// HMAC-SHA256 (RFC 2104), deriving the key's pads on every call.
Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> msg);

/// HMAC-SHA256 under one fixed key, for the fast test signer. The key's
/// ipad and opad blocks are absorbed once, at construction; each mac()
/// resumes from copies of those two midstates, so it costs two compressions
/// fewer than hmac_sha256 and returns the same bytes.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key);

  Digest mac(std::span<const std::uint8_t> msg) const;

 private:
  Sha256 inner_;  ///< after key ^ ipad
  Sha256 outer_;  ///< after key ^ opad
};

/// Hash-table hash for digests: a digest is uniformly distributed, so its
/// first 8 bytes are a good hash.
struct DigestHash {
  std::size_t operator()(const Digest& d) const {
    std::size_t h;
    static_assert(sizeof(h) <= sizeof(Digest));
    std::memcpy(&h, d.data(), sizeof(h));
    return h;
  }
};

/// Digest as a hex string.
std::string digest_hex(const Digest& d);

}  // namespace nwade::crypto
