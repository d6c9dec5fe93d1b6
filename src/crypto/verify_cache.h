// Digest-keyed signature-verification cache.
//
// A NWADE broadcast makes every vehicle node verify the *same* block bytes
// against the *same* IM public key: N receivers, N identical modexps. Since
// signature verification is a pure function of (key, message, signature),
// the first receiver's answer is everyone's answer. This cache keys results
// by SHA-256 over those three inputs, so the fleet pays one modexp per
// block and N-1 hash-lookups.
//
// Correctness properties:
//   * A tampered message or signature changes the key digest, so it can
//     never alias its honest twin — a forged block always recomputes (and
//     fails) on its own cache miss.
//   * Key rotation changes the verifier fingerprint folded into the key, so
//     stale entries for a retired key are unreachable, not merely evicted.
//   * Capacity is bounded with exact FIFO eviction; capacity 0 disables
//     caching entirely (every lookup misses, stores are dropped).
//
// Ownership: each World owns one cache and hands it to its vehicles through
// `Signer::verifier_with_cache()`, so memoized verdicts can neither race nor
// leak across runs. One mutex guards the map, the FIFO and the counters; a
// World steps on one thread, so the lock is never contended — it only keeps
// a cache shared by hand between threads safe.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace nwade::crypto {

class SigVerifyCache {
 public:
  struct Stats {
    std::uint64_t hits{0};
    std::uint64_t misses{0};
    std::uint64_t insertions{0};
    std::uint64_t evictions{0};
  };

  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit SigVerifyCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// Cache key: SHA-256 over (verifier fingerprint, message, signature),
  /// length-prefixed.
  static Digest key_of(const Digest& verifier_fingerprint,
                       std::span<const std::uint8_t> msg,
                       std::span<const std::uint8_t> sig);

  /// The cached verdict for `key`, counting a hit/miss either way.
  std::optional<bool> lookup(const Digest& key);

  /// Records a verdict, evicting the oldest entry when full. Idempotent for
  /// a key already present (verdicts are pure, so the value cannot differ).
  void store(const Digest& key, bool ok);

  /// Live entry count (≤ capacity).
  std::size_t size() const;
  std::size_t capacity() const;

  Stats stats() const;
  void reset_stats();

  /// Serializes capacity, counters and the entries, so a resumed run replays
  /// the same hits, misses and evictions. The entries are written as 16
  /// lists grouped by `key[8] % 16`, each in FIFO order (the `crypto`
  /// section's layout, docs/CHECKPOINT.md §6); restore merges them by insertion
  /// sequence. Restore overwrites the cache in place and returns false on
  /// malformed input: a duplicate key, seqs that do not increase within a
  /// list, or more entries than the capacity.
  void checkpoint_save(ByteWriter& w) const;
  bool checkpoint_restore(ByteReader& r);

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t next_seq_{0};  ///< insertion sequence of the next store
  Stats stats_;
  std::unordered_map<Digest, bool, DigestHash> verdicts_;
  /// (insertion seq, key), oldest first; always holds exactly the keys of
  /// `verdicts_`.
  std::deque<std::pair<std::uint64_t, Digest>> fifo_;
};

}  // namespace nwade::crypto
